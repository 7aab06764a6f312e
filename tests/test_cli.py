"""CLI surface: payload shapes, schema conformance, determinism, error codes,
file outputs, and the CAS export scripts."""

import copy
import gc
import hashlib
import importlib
import json
import os
import shlex
import subprocess
import sys
import time
from functools import lru_cache
from importlib import resources
from itertools import combinations_with_replacement, islice
from pathlib import Path

import jsonschema
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aci3 import (DomainError, MonomialIdeal, aci_construction, ci_hilbert, cli, export_cas,
                  koszul_table, pfaffians, rigid_witness, script_is_balanced, verify)
from aci3.classify import EVEN, ODD, AciFamily, h_window, maximal_table
from aci3.cli import build_parser, main, run, validate_payload
from aci3.schemacheck import compile_schema


def payload(argv):
    result = run(argv)
    assert result.status == "ok", result.message
    return result.payload


class TestHfCommands:
    def test_ci(self):
        assert payload(["hf", "ci", "--degrees", "3,3,3"]) == [1, 3, 6, 7, 6, 3, 1]

    def test_diff(self):
        assert payload(["hf", "diff", "--hf", "1,2,1", "--order", "1"]) == [1, 1, -1, -1]

    def test_from_betti(self):
        table = json.dumps({"c": 3, "levels": [[0], [2, 2, 2], [4, 4, 4], [6]]})
        assert payload(["hf", "from-betti", "--table", table]) == [1, 3, 3, 1]

    def test_recognize(self):
        assert payload(["hf", "recognize", "--hf", "1,3,3,1"]) == [2, 2, 2]
        assert payload(["hf", "recognize", "--hf", "1,3,1"]) is None

    def test_recognize_long_input_is_fast(self):
        # once cubic in the length of h: about 10 s at this length
        start = time.perf_counter()
        assert payload(["hf", "recognize", "--hf", "1," + "3," * 1000 + "1"]) is None
        assert time.perf_counter() - start < 1.0

    def test_bound(self):
        assert payload(["hf", "bound", "--hf", "1,3,1", "--c", "3", "--j", "2"]) == 5

    def test_csv_output(self, tmp_path, monkeypatch):
        monkeypatch.setenv("ACI3_OUTPUT_DIR", str(tmp_path))
        payload(["hf", "ci", "--degrees", "2,2,3", "--csv", "hf.csv"])
        text = (tmp_path / "hf.csv").read_text()
        assert text.splitlines()[0] == "degree,value"
        assert text.splitlines()[1:] == ["0,1", "1,3", "2,4", "3,3", "4,1"]

    def test_csv_bytes(self, tmp_path, monkeypatch):
        monkeypatch.setenv("ACI3_OUTPUT_DIR", str(tmp_path))
        payload(["hf", "ci", "--degrees", "2,2", "--csv", "hf.csv"])
        assert (tmp_path / "hf.csv").read_bytes() == b"degree,value\r\n0,1\r\n1,2\r\n2,1\r\n"


class TestOtherCommands:
    def test_aci_monomial_verify(self):
        got = payload(["aci", "monomial", "--degrees", "2,2,2", "--h", "3", "--verify"])
        assert got["matches"] is True
        assert got["hilbert"] == [1, 3, 3, 1]
        assert got["pretty"] == "x^2, xz, y^2, z^3"
        assert [1, 0, 1] in got["ideal"]["gens"]

    def test_betti_oracle_from_file(self, tmp_path):
        path = tmp_path / "ideal.json"
        path.write_text(json.dumps({"c": 3, "gens": [[2, 0, 0], [0, 2, 0], [0, 0, 2]]}))
        got = payload(["betti", "oracle", "--ideal-file", str(path)])
        assert got["table"]["levels"] == [[0], [2, 2, 2], [4, 4, 4], [6]]
        missing = run(["betti", "oracle", "--ideal-file", str(tmp_path / "no.json")])
        assert missing.status == "error" and missing.code == "input-error"

    def test_betti_oracle_refuses_the_unit_ideal(self, capsys):
        argv = ["betti", "oracle", "--ideal", '{"c":3,"gens":[[0,0,0]]}']
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert json.loads(captured.err) == {
            "code": "input-error", "message": "quotient by the unit ideal is the zero algebra",
            "status": "error"}

    def test_aci_monomial_past_four_variables(self):
        # x, y, z, w name up to four variables; past that they are x1..xc
        got = payload(["aci", "monomial", "--degrees", "2,2,2,2,2", "--h", "3"])
        assert got["pretty"] == "x1^2, x1x5, x2^2, x3^2, x4^2, x5^3"

    def test_betti_oracle_with_expected(self):
        ideal = json.dumps({"c": 3, "gens": [[2, 0, 0], [0, 3, 0], [0, 0, 2], [1, 1, 0]]})
        expected = json.dumps({"c": 3, "levels": [[0], [2, 2, 2, 3], [3, 4, 4, 4, 5], [5, 6]]})
        got = payload(["betti", "oracle", "--ideal", ideal, "--expected", expected])
        assert got["matches"] is True and got["diff"] == []

    def test_liaison_link(self):
        got = payload(["liaison", "link", "--z", "2,2,3", "--hq", "1,3,3,1"])
        assert got == {"hg": [1, 2, 1], "theta": 7, "e": 4}

    def test_liaison_cone(self):
        table = json.dumps({"c": 3, "levels": [[0], [2, 2, 2, 3], [3, 4, 4, 4, 5], [5, 6]]})
        got = payload(["liaison", "cone", "--table", table, "--z", "2,2,3"])
        assert got["table"]["levels"][1] == [1, 2, 2, 2, 3]
        assert got["hg"] == [1, 2, 1]

    def test_classify_tables(self):
        got = payload(["classify", "tables", "--a", "3", "--h", "5"])
        assert len(got["tables"]) == 3
        assert {t["t"] for t in got["tables"]} == {2, 3, 4}
        assert all(t["d_star"] in (3, 5) for t in got["tables"])
        assert len(got["edges"]) == 2

    def test_classify_tmax_and_dstar(self):
        assert payload(["classify", "tmax", "--a", "4"]) == 5
        assert payload(["classify", "dstar", "--a", "3", "--h", "5", "--t", "4"]) == 3
        assert payload(["classify", "dstar", "--a", "3", "--h", "5", "--t", "3"]) == 5

    def test_gorenstein(self):
        got = payload(["gorenstein", "gaeta", "--delta", "2,3,3,4,4"])
        assert got == {"ok": True, "reason": None, "theta": 8}
        assert payload(["gorenstein", "delta-low", "--a", "3", "--h", "5"]) == [2, 3, 3, 4, 4]
        assert payload(["gorenstein", "delta-high", "--a", "3", "--h", "6"]) == [3, 3, 3, 4, 5]

    def test_pfaffian(self):
        got = payload(["pfaffian", "alt", "--delta", "2,3,3,4,4"])
        assert got["theta"] == 8 and got["size"] == 5
        by_pair = {(e["i"], e["j"]): e for e in got["entries"]}
        assert by_pair[(4, 5)]["terms"] == []
        assert by_pair[(1, 2)]["degree"] == 3
        sub = payload(["pfaffian", "sub", "--delta", "2,3,3,4,4", "--i", "1"])
        assert sub["pretty"] == "-x24*x35 + x25*x34"
        ex = payload(["pfaffian", "example"])
        assert ex["degrees_q"] == [3, 3, 5, 3] and ex["sorted_degrees"] == [3, 3, 3, 5]

    def test_verify_scope(self, capsys):
        got = payload(["verify", "--scope", "gaeta"])
        assert got["passed"] is True
        assert [c["ok"] for c in got["checks"]] == [True]
        assert "gaeta/delta-builders" in capsys.readouterr().err


class TestErrorsAndDeterminism:
    def test_error_result(self):
        result = run(["hf", "ci", "--degrees", "0,2"])
        assert result.status == "error"
        assert result.code == "input-error"

    def test_domain_error_codes(self):
        assert run(["aci", "monomial", "--degrees", "2,2,2", "--h", "9"]).code == "h-out-of-range"
        assert run(["liaison", "link", "--z", "2,2,2", "--hq", "1,3,3,1"]).code == "not-linked"
        assert run(["gorenstein", "delta-low", "--a", "3", "--h", "6"]).code == "h-out-of-range"

    def test_main_exit_codes(self, capsys):
        assert main(["classify", "tmax", "--a", "3"]) == 0
        assert capsys.readouterr().out == "3\n"
        assert main(["hf", "ci", "--degrees", "-1"]) == 1
        err = capsys.readouterr().err
        assert json.loads(err)["status"] == "error"

    def test_envelope(self, capsys):
        assert main(["hf", "ci", "--degrees", "2,2", "--envelope"]) == 0
        env = json.loads(capsys.readouterr().out)
        assert env["status"] == "ok"
        assert env["payload"] == [1, 2, 1]
        assert env["provenance"] == ["ci-hilbert-koszul-product"]

    def test_envelope_abbreviation(self, capsys):
        assert main(["hf", "ci", "--degrees", "2,2", "--env"]) == 0
        env = json.loads(capsys.readouterr().out)
        assert env["status"] == "ok" and env["payload"] == [1, 2, 1]

    def test_byte_identical_runs(self, capsys):
        main(["classify", "tables", "--a", "4", "--h", "6"])
        first = capsys.readouterr().out
        main(["classify", "tables", "--a", "4", "--h", "6"])
        assert capsys.readouterr().out == first

    def test_every_payload_validates(self):
        # validate_payload raises on schema violations; exercised on a sample
        validate_payload("hf-ci", [1, 3, 3, 1])
        with pytest.raises(Exception):
            validate_payload("hf-ci", [1, -3])


_ANTICHAIN_6001 = json.dumps({"c": 3, "gens": [[i, 6000 - i, 0] for i in range(6001)]})
_ZERO_TAIL = "1," + ",".join(["0"] * 60_000)


def json_error(argv, capsys):
    """Exit status 1 and a JSON error on stderr; returns its code."""
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    err = json.loads(captured.err)
    assert err["status"] == "error"
    return err["code"]


class TestInputErrors:
    @pytest.mark.parametrize("argv", [
        ["betti", "oracle", "--ideal", '{"c":"x","gens":[[2,0,0]]}'],
        ["betti", "oracle", "--ideal", '{"c":3,"gens":"ab"}'],
        ["hf", "from-betti", "--table", '{"c":3,"levels":[[0],["a"],[],[]]}'],
        # each once read as an integer by truncation or by int()
        ["betti", "oracle", "--ideal", '{"c":3,"gens":[[2.5,0,0],[0,2,0],[0,0,2]]}'],
        ["betti", "oracle", "--ideal", '{"c":3,"gens":[["2",0,0],[0,2,0],[0,0,2]]}'],
        ["betti", "oracle", "--ideal", '{"c":3,"gens":[[true,0,0],[0,2,0],[0,0,2]]}'],
        ["betti", "oracle", "--ideal", '{"c":3.9,"gens":[[2,0,0],[0,2,0],[0,0,2]]}'],
        ["betti", "oracle", "--ideal", '{"c":"3","gens":[[2,0,0],[0,2,0],[0,0,2]]}'],
        ["betti", "oracle", "--ideal", '{"c":3,"gens":[[2,0,0],[0,2,0],[0,0,2]]}',
         "--expected", '{"c":3,"levels":[[0],[2.9,2,2],[4,4,4],[6]]}'],
        ["hf", "from-betti", "--table", '{"c":3.7,"levels":[[0],[2,2,2],[4,4,4],[6]]}'],
        ["hf", "from-betti", "--table", '{"c":3,"levels":[[0],[2,2,true],[4,4,4],[6]]}'],
        ["liaison", "cone", "--table", '{"c":3,"levels":[[0],[2.5,2,2],[4,4,4],[6]]}',
         "--z", "2,2,2"],
        ["export", "cas", "--kind", "monomial",
         "--ideal", '{"c":3,"gens":[[2.5,0,0],[0,2,0],[0,0,2]]}'],
    ])
    def test_non_integer_json_values(self, argv, capsys):
        assert json_error(argv, capsys) == "input-error"

    @pytest.mark.parametrize("data", [
        b'{"c":' + b"9" * 5000 + b"}",    # past Python's integer digit limit
        b"[" * 100_000,                   # nested too deep to decode
        b"\xff",                          # not UTF-8
    ], ids=["long-integer", "deep-nesting", "not-utf8"])
    def test_undecodable_json(self, data, tmp_path, capsys):
        path = tmp_path / "ideal.json"
        path.write_bytes(data)
        assert json_error(["betti", "oracle", "--ideal-file", str(path)], capsys) == "input-error"
        if data.isascii():
            argv = ["hf", "from-betti", "--table", data.decode()]
            assert json_error(argv, capsys) == "input-error"

    @pytest.mark.parametrize("argv", [
        ["classify", "tmax", "--a", "x"],
        ["classify", "dstar", "--a", "3", "--h", "5"],
        ["pfaffian", "alt", "--delta", "2,3,3,4,4", "--sub", "1"],
        ["classify"],
    ])
    def test_usage_errors(self, argv, capsys):
        assert json_error(argv, capsys) == "input-error"

    @pytest.mark.parametrize("text", ["3,,3", "3,", ",3", ","])
    @pytest.mark.parametrize("argv", [
        ["hf", "ci", "--degrees"],
        ["hf", "diff", "--hf"],
        ["gorenstein", "gaeta", "--delta"],
        ["liaison", "link", "--hq", "1,2,1", "--z"],
    ])
    def test_empty_list_items_are_refused(self, argv, text, capsys):
        # once dropped, so that `hf ci --degrees 3,,3` answered for CI(3,3)
        assert main(argv + [text]) == 1
        err = json.loads(capsys.readouterr().err)
        assert (err["code"], err["message"]) == (
            "input-error", f"expected comma-separated integers, got {text!r}")

    def test_empty_text_is_the_empty_list(self):
        assert payload(["hf", "ci", "--degrees", ""]) == [1]

    @pytest.mark.parametrize("route", [["gorenstein", "gaeta"], ["pfaffian", "alt"],
                                       ["pfaffian", "sub", "--i", "1"]],
                             ids=["gaeta", "alt", "sub"])
    @pytest.mark.parametrize("delta, message", [
        ("1,2,3,4", '"input-error","message":"length must be odd and >= 3, got 4"'),
        ("2,1", '"input-error","message":"length must be odd and >= 3, got 2"'),
        ("3,2,4", '"input-error","message":"degrees must be sorted ascending, got (3, 2, 4)"'),
        ("0,1,1", '"input-error","message":"need degrees >= 1, got 0"'),
        ("3,2,0", '"input-error","message":"need degrees >= 1, got 0"'),
        ("1,1,1,1,1", '"theta-not-integral","message":"theta = 5/2 is not an integer"'),
        ("2,,3", '"input-error","message":"expected comma-separated integers, got \'2,,3\'"'),
    ], ids=["even-length", "even-length-first", "out-of-order", "entry-0", "floor-first",
            "theta-not-integral", "empty-item"])
    def test_bad_deltas_answer_byte_for_byte(self, route, delta, message, capsys):
        # the length rule, then the integer floor, then the order, then theta
        status = main([*route[:2], "--delta", delta, *route[2:]])
        captured = capsys.readouterr()
        if route[0] == "gorenstein" and "theta" in message:    # a verdict, not an error
            assert (status, captured.err) == (0, "")
            assert captured.out == ('{"ok":false,"reason":"theta = 5/2 is not an integer",'
                                    '"theta":null}\n')
        else:
            assert (status, captured.out) == (1, "")
            assert captured.err == '{"code":' + message + ',"status":"error"}\n'

    def test_help_still_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["classify", "tmax", "--help"])
        assert exc.value.code == 0
        assert "--a" in capsys.readouterr().out

    @pytest.mark.parametrize("argv, code", [
        (["classify", "tables", "--a", "60", "--h", "119"], "too-large"),
        (["gorenstein", "delta-low", "--a", "3", "--h", "1000000000"], "h-out-of-range"),
        (["gorenstein", "delta-high", "--a", "3", "--h", "1000000000"], "h-out-of-range"),
        (["hf", "ci", "--degrees", "3000000,3000000,3000000"], "too-large"),
        (["hf", "from-betti", "--table", '{"c":3,"levels":[[0],[100000000],[],[]]}'],
         "too-large"),
        (["hf", "diff", "--hf", "1,2", "--order", "100000000"], "too-large"),
        (["hf", "bound", "--hf", "1,3,1", "--c", "1000000", "--j", "1000000"], "too-large"),
        (["betti", "oracle", "--ideal",
          '{"c":3,"gens":[[400,0,0],[0,400,0],[0,0,400],[1,1,1]]}'], "too-large"),
        (["verify", "--scope", "monomial", "--max-degree", "13"], "too-large"),
        (["verify", "--scope", "liaison", "--max-a", "200"], "too-large"),
        (["aci", "monomial", "--degrees", ",".join(["2"] * 400), "--h", "3"], "too-large"),
        (["gorenstein", "delta-high", "--a", "9998", "--h", "19996"], "too-large"),
        (["gorenstein", "delta-low", "--a", "1000000", "--h", "2000000"], "h-out-of-range"),
        # an antichain of 6001 generators, refused before it is minimalised
        (["betti", "oracle", "--ideal", _ANTICHAIN_6001], "too-large"),
        (["export", "cas", "--kind", "monomial", "--ideal", _ANTICHAIN_6001], "too-large"),
    ])
    def test_oversized_inputs_fail_at_once(self, argv, code, capsys):
        start = time.perf_counter()
        assert json_error(argv, capsys) == code
        assert time.perf_counter() - start < 1.0

    @pytest.mark.parametrize("argv", [
        ["hf", "diff", "--hf", _ZERO_TAIL],
        ["hf", "recognize", "--hf", _ZERO_TAIL],
        ["hf", "bound", "--hf", _ZERO_TAIL, "--c", "3", "--j", "2"],
        ["liaison", "link", "--z", "2,2,2", "--hq", _ZERO_TAIL],
    ])
    def test_long_zero_tails_answer_at_once(self, argv):
        # 60,000 trailing zeros (a 120 KB argument) are trimmed in one pass
        start = time.perf_counter()
        assert run(argv).status == "ok"
        assert time.perf_counter() - start < 1.0

    @pytest.mark.parametrize("argv, named", [
        (["verify", "--scope", "everything"], verify.SCOPES),
        (["export", "cas", "--kind", "groebner"], ("pfaffian-q", "pfaffian-w", "monomial")),
    ])
    def test_unknown_scope_or_kind_lists_the_choices(self, argv, named, capsys):
        # checked once, by verify_suite or export_cas, not by the parser
        assert main(argv) == 1
        message = json.loads(capsys.readouterr().err)["message"]
        assert all(repr(value) in message for value in named)

    def test_verify_caps_admit_their_boundary(self):
        # liaison is cheap at the caps; one above either cap is refused first
        assert (verify.MAX_DEGREE, verify.MAX_A) == (12, 14)
        report = payload(["verify", "--scope", "liaison", "--max-degree", "12", "--max-a", "14"])
        assert report["passed"]
        for bound in (["--max-degree", "13"], ["--max-a", "15"]):
            result = run(["verify", "--scope", "liaison", *bound])
            assert (result.status, result.code) == ("error", "too-large")

    @pytest.mark.parametrize("out_dir, argv", [
        ("", ["hf", "ci", "--degrees", "3,3,3", "--csv", "file/x.csv"]),
        ("", ["hf", "from-betti", "--table", '{"c":3,"levels":[[0],[2,2,2],[4,4,4],[6]]}',
              "--csv", "file/x.csv"]),
        ("", ["export", "cas", "--kind", "pfaffian-q", "--out", "file/x.m2"]),
        ("file/out", ["export", "cas", "--kind", "pfaffian-q"]),
    ])
    def test_failed_writes(self, out_dir, argv, tmp_path, monkeypatch, capsys):
        # a regular file stands where a directory must be, so the write (or
        # making ACI3_OUTPUT_DIR) fails whatever the permissions
        (tmp_path / "file").write_text("")
        monkeypatch.setenv("ACI3_OUTPUT_DIR", str(tmp_path / out_dir))
        assert json_error(argv, capsys) == "input-error"

    @pytest.mark.parametrize("argv", [
        ["hf", "ci", "--degrees", "2,2", "--csv"],
        ["export", "cas", "--kind", "pfaffian-q", "--out"],
    ])
    @pytest.mark.parametrize("name", ["{tmp}/x.out", "../x.out", "in/../../x.out"])
    def test_names_outside_the_output_dir_refused(self, argv, name, tmp_path, monkeypatch,
                                                  capsys):
        # one level above ACI3_OUTPUT_DIR is refused before any write
        monkeypatch.setenv("ACI3_OUTPUT_DIR", str(tmp_path / "out"))
        assert json_error(argv + [name.format(tmp=tmp_path)], capsys) == "input-error"
        assert list(tmp_path.iterdir()) == []

    def test_names_below_the_output_dir_written(self, tmp_path, monkeypatch):
        monkeypatch.setenv("ACI3_OUTPUT_DIR", str(tmp_path))
        (tmp_path / "in").mkdir()
        for name in ("x.csv", "in/../y.csv", "in/z.csv"):
            payload(["hf", "ci", "--degrees", "2,2", "--csv", name])
        assert sorted(str(p.relative_to(tmp_path)) for p in tmp_path.rglob("*.csv")) == \
            ["in/z.csv", "x.csv", "y.csv"]

    @pytest.mark.parametrize("handler, exc_name", [
        (lambda args: ("three", ()), "ValidationError"),   # breaks classify-tmax's schema
        (lambda args: 1 // 0, "ZeroDivisionError"),
    ])
    def test_unexpected_failures_are_internal_errors(self, handler, exc_name, monkeypatch,
                                                     capsys):
        monkeypatch.setattr(cli, "_cmd_classify_tmax", handler)
        assert main(["classify", "tmax", "--a", "3"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        err = json.loads(captured.err)
        assert err["code"] == "internal-error"
        assert err["message"].startswith(exc_name + ": ")

    @pytest.mark.parametrize("route", [["betti", "oracle"],
                                       ["export", "cas", "--kind", "monomial"]],
                             ids=["betti-oracle", "export-cas"])
    def test_ideal_file_is_read_up_to_its_cap(self, route, tmp_path, monkeypatch, capsys):
        # an ideal padded to exactly the cap is read; one character more is
        # refused before any is parsed
        monkeypatch.setenv("ACI3_OUTPUT_DIR", str(tmp_path))
        path = tmp_path / "ideal.json"
        path.write_text(_CI_222.ljust(cli.MAX_IDEAL_FILE))
        assert run([*route, "--ideal-file", str(path)]).status == "ok"
        path.write_text(_CI_222.ljust(cli.MAX_IDEAL_FILE + 1))
        assert main([*route, "--ideal-file", str(path)]) == 1
        assert json.loads(capsys.readouterr().err) == {
            "code": "too-large", "status": "error",
            "message": f"{path} holds more than 1048576 characters"}

    def test_pfaffian_sub_checks_i_before_expanding(self, fresh_plans, monkeypatch, capsys):
        def no_expansion(*args):
            raise AssertionError("expanded before checking --i")
        monkeypatch.setattr(pfaffians, "_pf", no_expansion)
        argv = ["pfaffian", "sub", "--delta", "2,3,3,4,4", "--i", "6"]
        assert json_error(argv, capsys) == "input-error"


def route_argv(route):
    """The argv words that name ``route``."""
    return [route.group] if route.action is None else [route.group, route.action]


@lru_cache(maxsize=None)
def schema_files():
    """The shipped schemas as parsed JSON, by name (read-only)."""
    schemas = resources.files("aci3").joinpath("schemas")
    return {f.name.removesuffix(".schema.json"): json.loads(f.read_text())
            for f in schemas.iterdir() if f.name.endswith(".schema.json")}


README_CONE = ["liaison", "cone", "--z", "2,2,3",
               "--table", '{"c":3,"levels":[[0],[2,2,2,3],[3,4,4,4,5],[5,6]]}']

# One call per route, as in the README tour; betti oracle gets a wrong
# --expected table so that its payload has diff entries.
TOUR = (
    ["hf", "ci", "--degrees", "3,3,3"],
    ["hf", "diff", "--hf", "1,2,1", "--order", "1"],
    ["hf", "from-betti", "--table", '{"c":3,"levels":[[0],[2,2,2],[4,4,4],[6]]}'],
    ["hf", "recognize", "--hf", "1,3,3,1"],
    ["hf", "bound", "--hf", "1,3,1", "--c", "3", "--j", "2"],
    ["aci", "monomial", "--degrees", "2,2,2", "--h", "3", "--verify"],
    ["betti", "oracle", "--ideal", '{"c":3,"gens":[[2,0,0],[0,3,0],[0,0,2],[1,1,0]]}',
     "--expected", '{"c":3,"levels":[[0],[2,2,2],[4,4,4],[6]]}'],
    ["liaison", "link", "--z", "2,2,3", "--hq", "1,3,3,1"],
    README_CONE,
    ["classify", "tables", "--a", "3", "--h", "5"],
    ["classify", "tmax", "--a", "4"],
    ["classify", "dstar", "--a", "3", "--h", "5", "--t", "4"],
    ["gorenstein", "gaeta", "--delta", "2,3,3,4,4"],
    ["gorenstein", "delta-low", "--a", "3", "--h", "5"],
    ["gorenstein", "delta-high", "--a", "3", "--h", "6"],
    ["pfaffian", "alt", "--delta", "2,3,3,4,4"],
    ["pfaffian", "sub", "--delta", "2,3,3,4,4", "--i", "1"],
    ["pfaffian", "example"],
    ["export", "cas", "--kind", "pfaffian-q"],
    ["verify", "--scope", "gaeta"],
)


class TestRoutes:
    def test_every_route_has_a_schema_and_every_schema_a_route(self):
        # every handler is one route's, and each route is declared once
        handlers = sorted(name for name in vars(cli) if name.startswith("_cmd_"))
        assert sorted(route.handler for route in cli.ROUTES) == handlers
        assert {route.group for route in cli.ROUTES} == set(cli._GROUPS)
        assert {route.schema for route in cli.ROUTES} == set(schema_files()) - {"envelope"}

    def test_the_tour_calls_every_route_once(self):
        toured = [argv[:1] if argv[0] == "verify" else argv[:2] for argv in TOUR]
        assert sorted(toured) == sorted(route_argv(route) for route in cli.ROUTES)

    @pytest.mark.parametrize("argv", [
        *TOUR,
        *([*route_argv(route), "--help"] for route in cli.ROUTES),
        ["--help"], ["classify", "--help"], ["hf", "ci", "--degrees", "3,3,3", "--env"],
        [], ["nosuch"], ["hf", "nosuch"], ["classify"], ["hf", "ci"],
        ["classify", "tmax", "--a", "x"], ["--envelope", "hf", "ci", "--degrees", "3,3,3"],
        ["-x", "verify"], ["xyz", "hf", "ci"], ["hf", "ci", "--degrees", "3,3,3", "verify"],
    ], ids=" ".join)
    def test_parser_for_argv_parses_as_the_whole_parser(self, argv, capsys):
        # build_parser(argv) adds only the routes of the group argv names
        def outcome(parser):
            try:
                return vars(parser.parse_args(argv))
            except SystemExit as exc:
                return exc.code, capsys.readouterr().out
            except DomainError as exc:
                return exc.code, str(exc)

        assert outcome(build_parser(argv)) == outcome(build_parser())

    @pytest.mark.parametrize("argv", TOUR, ids=" ".join)
    def test_every_route_payload_passes_jsonschema(self, argv, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("ACI3_OUTPUT_DIR", str(tmp_path))
        schemas = schema_files()
        name = build_parser(argv).parse_args(argv).route.schema
        jsonschema.validate(json.loads(stdout_of(argv, capsys)), schemas[name])
        envelope = json.loads(stdout_of(argv + ["--envelope"], capsys))
        jsonschema.validate(envelope, schemas["envelope"])

    @pytest.mark.parametrize("name", sorted(schema_files()))
    def test_unsupported_keyword_fails_to_load(self, name):
        schema = schema_files()[name]
        compile_schema(schema)
        with pytest.raises(ValueError, match="format"):
            compile_schema(dict(schema, format="date"))


def readme_tour():
    """(argv, trailing comment) for each ``aci3`` line of the README's CLI tour."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## CLI tour", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    for line in block.splitlines():
        if line.startswith("aci3 "):
            command, _, comment = line.partition(" #")
            yield shlex.split(command)[1:], comment.strip()


README_TOUR = list(readme_tour())


class TestReadmeTour:
    """The README's CLI tour runs as written."""

    @pytest.mark.parametrize("argv, comment", [pytest.param(*case, id=" ".join(case[0]))
                                               for case in README_TOUR])
    def test_line_runs_and_prints_its_comment(self, argv, comment, tmp_path, monkeypatch,
                                              capsys):
        monkeypatch.setenv("ACI3_OUTPUT_DIR", str(tmp_path))
        out = stdout_of(argv, capsys)
        try:
            json.loads(comment)
        except ValueError:
            return    # the comment is prose
        assert out == comment + "\n"

    def test_the_tour_shows_every_route_but_verify(self):
        shown = {tuple(argv[:2]) for argv, _ in README_TOUR}
        assert shown == {(route.group, route.action) for route in cli.ROUTES if route.action}


SRC = Path(__file__).resolve().parents[1] / "src"

# Runs in a fresh interpreter: the aci3 modules loaded by ``import
# aci3.cli``, then the exit codes of ``main`` on each argv and the modules
# loaded after them.
PROBE = """
import json, sys
def loaded():
    return sorted(m for m in sys.modules if m.split(".")[0] == "aci3")
from aci3.cli import main
first = loaded()
codes = [main(argv) for argv in json.loads(sys.argv[1])]
print(json.dumps([first, codes, loaded()]))
"""

SHARED = ["aci3", "aci3.cli", "aci3.errors", "aci3.hilbert", "aci3.schemacheck"]

# Group -> the modules each of its routes loads beyond SHARED
ROUTE_LOADS = {
    "hf": (),
    "aci": ("monomials",),
    "betti": ("intmat", "koszul", "monomials"),
    "liaison": ("liaison",),
    "classify": ("classify",),
    "gorenstein": ("classify",),
    "pfaffian": ("monomials", "pfaffians"),
}


def child_env(tmp_path):
    """The environment of a fresh interpreter that imports ``aci3`` from ``SRC``."""
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, ACI3_OUTPUT_DIR=str(tmp_path),
                PYTHONPATH=os.pathsep.join([str(SRC)] + ([path] if path else [])))


def probe(argvs, tmp_path):
    out = subprocess.run([sys.executable, "-c", PROBE, json.dumps(argvs)],
                         env=child_env(tmp_path), capture_output=True, text=True,
                         check=True).stdout
    first, codes, after = json.loads(out.splitlines()[-1])
    assert codes == [0] * len(argvs)
    return first, after


class TestImportGraph:
    """Each route loads only the modules it runs (a cold process compiles
    every module it loads)."""

    def test_cli_and_hf_routes_load_no_kernel_module(self, tmp_path):
        first, after = probe([argv for argv in TOUR if argv[0] == "hf"], tmp_path)
        assert first == after == SHARED

    def test_classify_tables_loads_classify_alone(self, tmp_path):
        _, after = probe([["classify", "tables", "--a", "3", "--h", "5"]], tmp_path)
        assert after == sorted(SHARED + ["aci3.classify"])

    def test_only_verify_loads_verify(self, tmp_path):
        _, after = probe([argv for argv in TOUR if argv[0] != "verify"], tmp_path)
        assert "aci3.verify" not in after

    @pytest.mark.parametrize("argv, modules", [
        *(pytest.param(argv, ROUTE_LOADS[argv[0]], id=" ".join(argv[:2]))
          for argv in TOUR if argv[0] in ROUTE_LOADS),
        *(pytest.param(argv, modules, id=" ".join(argv[:4])) for argv, modules in [
            (["export", "cas", "--kind", "pfaffian-q"],
             ("cas", "classify", "monomials", "pfaffians")),
            (["export", "cas", "--kind", "monomial",
              "--ideal", '{"c":3,"gens":[[2,0,0],[0,2,0],[0,0,2]]}'], ("cas", "monomials")),
            (["verify", "--scope", "monomial", "--max-degree", "2"],
             ("liaison", "monomials", "verify")),
            (["verify", "--scope", "gaeta"], ("classify", "verify")),
        ]),
    ])
    def test_each_route_loads_exactly_its_modules(self, argv, modules, tmp_path):
        _, after = probe([argv], tmp_path)
        assert after == sorted(SHARED + [f"aci3.{m}" for m in modules])

    @pytest.mark.parametrize("scope, unloaded", [
        ("classification", {"aci3.pfaffians", "aci3.koszul", "aci3.monomials"}),
        ("pfaffian", {"aci3.koszul", "aci3.liaison", "aci3.cas"}),
    ])
    def test_verify_loads_the_kernels_of_its_scope(self, scope, unloaded, tmp_path):
        _, after = probe([["verify", "--scope", scope, "--max-a", "2"]], tmp_path)
        assert "aci3.verify" in after
        assert not unloaded & set(after)


# ``python -m aci3`` and what the ``aci3`` console script runs
ENTRIES = {"module": ["-m", "aci3"],
           "script": ["-c", "import sys; from aci3.__main__ import run; sys.exit(run())"]}


def cold_process(entry, args, tmp_path):
    """(stdout, stderr, exit status) of one fresh interpreter."""
    proc = subprocess.run([sys.executable, *entry, *args], env=child_env(tmp_path),
                          capture_output=True, text=True)
    return proc.stdout, proc.stderr, proc.returncode


class TestProcessEntry:
    """``aci3.__main__.run`` runs one command with the cyclic collector off;
    ``cli.main`` in process leaves the collector alone."""

    @pytest.mark.parametrize("entry", ENTRIES.values(), ids=ENTRIES)
    @pytest.mark.parametrize("argv, status", [
        (["hf", "ci", "--degrees", "3,3,3"], 0),
        (["hf", "ci", "--degrees", "3,3,3", "--envelope"], 0),
        (["hf", "ci", "--degrees", "3,x,3"], 1),
        (["hf", "ci"], 1),
        (["verify", "--scope", "gaeta"], 0),
    ], ids=["hf-ci", "envelope", "bad-integer-list", "missing-flag", "verify-gaeta"])
    def test_a_cold_process_prints_what_main_prints(self, entry, argv, status, tmp_path,
                                                     capsys):
        assert main(argv) == status
        captured = capsys.readouterr()
        assert cold_process(entry, argv, tmp_path) == (captured.out, captured.err, status)

    def test_run_leaves_the_collector_off_and_the_heap_frozen(self, tmp_path):
        code = ("import gc, sys; from aci3.__main__ import run; "
                "sys.argv[1:] = ['hf', 'ci', '--degrees', '2,2']; "
                "status = run(); print(status, gc.isenabled(), gc.get_freeze_count() > 0)")
        assert cold_process(["-c", code], [], tmp_path) == ("[1,2,1]\n0 False True\n", "", 0)

    def test_in_process_callers_keep_the_collector(self, capsys):
        frozen = gc.get_freeze_count()
        assert gc.isenabled()
        assert main(["hf", "ci", "--degrees", "3,3,3"]) == 0
        assert gc.isenabled() and gc.get_freeze_count() == frozen
        importlib.import_module("aci3.__main__")
        assert gc.isenabled() and gc.get_freeze_count() == frozen


# Small bounded values for integer and integer-list flags; --flag=value
# keeps a negative value from reading as an option.
VALUES = {
    int: st.integers(-3, 34),
    cli.IntList: st.lists(st.integers(-2, 8), max_size=7).map(lambda v: ",".join(map(str, v))),
}
# The routes whose required flags are all integers or integer lists, by
# name, with the flags to fuzz (their optional integer flags too).
INTEGER_ROUTES = {
    " ".join(route_argv(route)): (route, [(name, VALUES[kw["type"]]) for name, kw in route.flags
                                          if kw.get("type") in VALUES])
    for route in cli.ROUTES
    if any(kw.get("required") for _, kw in route.flags)
    and all(kw.get("type") in VALUES for _, kw in route.flags if kw.get("required"))
}
# the codes the README gives for a bad numeric value
NUMERIC_ERRORS = {"input-error", "h-out-of-range", "invalid-family", "not-hilbert-function",
                  "not-linked", "theta-not-integral", "too-large"}


@lru_cache(maxsize=None)
def reference_validator(name):
    """jsonschema's validator for the payload schema ``name``."""
    schema = schema_files()[name]
    return jsonschema.validators.validator_for(schema)(schema)


class TestIntegerFlagFuzz:
    @pytest.mark.parametrize("route", sorted(INTEGER_ROUTES))
    @settings(max_examples=20)
    @given(data=st.data())
    def test_payload_or_documented_error(self, route, data):
        declared, flags = INTEGER_ROUTES[route]
        argv = route.split() + [f"{flag}={data.draw(values, label=flag)}" for flag, values in flags]
        start = time.perf_counter()
        result = run(argv)
        assert time.perf_counter() - start < 2.0, argv
        if result.status == "ok":
            reference_validator(declared.schema).validate(result.payload)
        else:
            assert result.code in NUMERIC_ERRORS, (argv, result.code, result.message)


_CI_222 = '{"c":3,"gens":[[2,0,0],[0,2,0],[0,0,2]]}'
# The flags that read plain text; every other flag with neither a type nor
# an action reads JSON.
TEXT_FLAGS = {"--csv", "--kind", "--out", "--scope"}
# The argv around each JSON flag: (argv before its value, what it reads,
# argv after it).  An --ideal-file flag gets the value written to a file,
# and that file's path.
JSON_FLAG_ARGV = {
    "betti oracle --ideal": (["betti", "oracle", "--ideal"], "ideal", []),
    "betti oracle --ideal-file": (["betti", "oracle", "--ideal-file"], "ideal", []),
    "betti oracle --expected": (["betti", "oracle", "--ideal", _CI_222, "--expected"], "table", []),
    "hf from-betti --table": (["hf", "from-betti", "--table"], "table", []),
    "liaison cone --table": (["liaison", "cone", "--table"], "table", ["--z", "2,2,2"]),
    "export cas --ideal": (["export", "cas", "--kind", "monomial", "--ideal"], "ideal", []),
    "export cas --ideal-file": (["export", "cas", "--kind", "monomial", "--ideal-file"],
                                "ideal", []),
    "export cas --expected": (["export", "cas", "--kind", "monomial", "--ideal", _CI_222,
                               "--expected"], "table", []),
}
# Each JSON flag of cli.ROUTES, as "<route> <flag>", with its argv (None
# until JSON_FLAG_ARGV gives it one), so that no JSON flag goes unfuzzed.
JSON_FLAGS = {
    key: JSON_FLAG_ARGV.get(key)
    for key in sorted(" ".join([*route_argv(route), name]) for route in cli.ROUTES
                      for name, kw in route.flags
                      if not {"type", "action"} & kw.keys() and name not in TEXT_FLAGS)
}
NON_INTEGERS = st.none() | st.booleans() | st.floats() | st.text(max_size=2)
JSON_VALUES = st.recursive(
    NON_INTEGERS | st.integers(-2, 9),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.sampled_from(["c", "gens", "levels"]), inner, max_size=3),
    max_leaves=12)


def _slot(ints):
    # an integer two times in three, else any other JSON leaf
    return st.one_of(ints, ints, NON_INTEGERS)


# The inputs each flag reads, with every integer slot drawn by _slot.
JSON_INPUTS = {
    "ideal": st.fixed_dictionaries({
        "c": _slot(st.integers(1, 4)),
        "gens": st.lists(st.lists(_slot(st.integers(0, 4)), max_size=4), max_size=5)}),
    "table": st.fixed_dictionaries({
        "c": _slot(st.integers(1, 4)),
        "levels": st.lists(st.lists(_slot(st.integers(0, 12)), max_size=4), max_size=5)}),
}


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    """A temporary directory, set as ACI3_OUTPUT_DIR for the export cas
    calls, that also holds the --ideal-file inputs."""
    path = tmp_path_factory.mktemp("fuzz")
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("ACI3_OUTPUT_DIR", str(path))
        yield path


def _run_json_flag(flag, value, fuzz_dir):
    before, _, after = JSON_FLAGS[flag]
    if flag.endswith("--ideal-file"):
        path = fuzz_dir / "ideal.json"
        path.write_text(value, encoding="utf-8")
        value = str(path)
    argv = before + [value] + after
    start = time.perf_counter()
    result = run(argv)
    assert time.perf_counter() - start < 2.0, argv
    if result.status == "ok":
        schema = build_parser(argv).parse_args(argv).route.schema
        reference_validator(schema).validate(result.payload)
    else:
        assert result.code != "internal-error", (argv, result.message)
    return result


class TestJsonFlagFuzz:
    def test_each_json_flag_has_its_argv(self):
        assert set(JSON_FLAG_ARGV) == set(JSON_FLAGS)

    @pytest.mark.parametrize("flag", sorted(JSON_FLAGS))
    @settings(max_examples=40)
    @given(data=st.data())
    def test_payload_or_json_error(self, flag, data, fuzz_dir):
        value = data.draw(JSON_VALUES.map(json.dumps) | st.text(max_size=12), label="value")
        _run_json_flag(flag, value, fuzz_dir)

    @pytest.mark.parametrize("flag", sorted(JSON_FLAGS))
    @settings(max_examples=40)
    @given(data=st.data())
    def test_non_integer_leaf_is_an_input_error(self, flag, data, fuzz_dir):
        value = data.draw(JSON_INPUTS[JSON_FLAGS[flag][1]], label="value")
        rows = value.get("gens", value.get("levels"))
        result = _run_json_flag(flag, json.dumps(value), fuzz_dir)
        if any(type(v) is not int for v in [value["c"], *(v for row in rows for v in row)]):
            assert result.code == "input-error", (value, result.status, result.message)


@pytest.fixture(scope="module")
def tour_instances(tmp_path_factory):
    """(schema name, instance) for the payload of each tour call, plus an ok
    and an error envelope."""
    instances = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("ACI3_OUTPUT_DIR", str(tmp_path_factory.mktemp("tour")))
        for argv in TOUR:
            result = run(argv)
            assert result.status == "ok", result.message
            instances.append((build_parser().parse_args(argv).route.schema, result.payload))
    for argv in (TOUR[0], ["hf", "ci", "--degrees", "0"]):
        instances.append(("envelope", run(argv).envelope()))
    return instances


def spots(node, path=()):
    """Path of every value inside ``node``, ``node`` itself first."""
    yield path
    items = node.items() if isinstance(node, dict) else \
        enumerate(node) if isinstance(node, list) else ()
    for key, value in items:
        yield from spots(value, path + (key,))


def variants(node):
    """Replacements for one value: a wrong type, a float 1.0, a value below a
    minimum, an enum or pattern miss, a dropped or unknown key, one item
    fewer or more."""
    out = ["x", True, False, 1.0, 1.5, None, -1, 0, [], {}]
    if isinstance(node, int) and not isinstance(node, bool):
        out += [node - 1, float(node)]
    if isinstance(node, str):
        out += [node + "!", node.upper(), node[:-1]]
    if isinstance(node, dict):
        out += [{k: v for k, v in node.items() if k != key} for key in node]
        out.append(dict(node, unknown=0))
    if isinstance(node, list) and node:
        out += [node[:-1], node + node[-1:]]
    return out


DROP = object()


def replaced(instance, path, value):
    """A copy of ``instance`` with the value at ``path`` replaced by ``value``
    (deleted if ``value`` is DROP)."""
    if not path:
        return value
    instance = copy.deepcopy(instance)
    parent = instance
    for key in path[:-1]:
        parent = parent[key]
    if value is DROP:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    return instance


def agree(name, instance) -> bool:
    """Whether validate_payload and jsonschema.validate both accept
    ``instance`` against schema ``name``; fails if they disagree."""
    verdicts = []
    for validate in (lambda: validate_payload(name, instance),
                     lambda: jsonschema.validate(instance, schema_files()[name])):
        try:
            validate()
            verdicts.append(True)
        except jsonschema.ValidationError:
            verdicts.append(False)
    assert verdicts[0] == verdicts[1], (name, instance)
    return verdicts[0]


class TestSchemaCheckAgreesWithJsonschema:
    """The in-package validator accepts and rejects what jsonschema does, on
    real payloads of every route and on mutations of them."""

    @settings(max_examples=400)
    @given(data=st.data())
    def test_mutated_payloads(self, tour_instances, data):
        name, instance = data.draw(st.sampled_from(tour_instances))
        path = data.draw(st.sampled_from(list(spots(instance))))
        node = instance
        for key in path:
            node = node[key]
        agree(name, replaced(instance, path, data.draw(st.sampled_from(variants(node)))))

    @pytest.mark.parametrize("name, path, value, ok", [
        ("classify-tables", ("edges",), DROP, False),                      # required
        ("classify-tables", ("extra",), 0, False),                         # unknown key
        ("classify-tables", ("tables", 0, "t"), "3", False),
        ("classify-tables", ("tables", 0, "t"), True, False),
        ("classify-tables", ("tables", 0, "t"), None, False),
        ("classify-tables", ("tables", 0, "t"), 3.0, True),
        ("classify-tables", ("tables", 0, "t"), 3.5, False),
        ("classify-tables", ("tables", 0, "t"), 0, False),                 # minimum 1
        ("classify-tables", ("tables", 0, "parity"), "neither", False),    # enum
        ("classify-tables", ("edges", 0, "kind"), 1, False),
        ("export-cas", ("sha256",), "0" * 63 + "G", False),                # pattern
        ("liaison-cone", ("candidates", 0), [1], False),                   # minItems
        ("liaison-cone", ("candidates", 0), [1, 2, 3], False),             # maxItems
        ("hf-recognize", (0,), 0, False),                                  # oneOf: neither
        ("hf-recognize", (), None, True),
        ("gorenstein-gaeta", ("theta",), None, True),
        ("envelope", ("status",), "fine", False),
    ])
    def test_each_mutation_kind(self, tour_instances, name, path, value, ok):
        instance = next(i for n, i in tour_instances if n == name)
        assert agree(name, replaced(instance, path, value)) is ok


TABLES_4_6 = (
    '{"a":4,"edges":[{"dst":2,"kind":"couple","src":1,"twists":[9,9]},'
    '{"dst":0,"kind":"ah","src":1,"twists":[10]}],"h":6,"tables":['
    '{"a":4,"d_star":6,"h":6,"levels":[[0],[4,4,4,6],[6,8,8,8,9,9],[9,9,12]],'
    '"parity":"odd","t":3},'
    '{"a":4,"d_star":4,"h":6,"levels":[[0],[4,4,4,6],[6,8,8,8,9,9,10],[9,9,10,12]],'
    '"parity":"even","t":4},'
    '{"a":4,"d_star":4,"h":6,"levels":[[0],[4,4,4,6],[6,8,8,8,10],[10,12]],'
    '"parity":"even","t":2}]}'
)

TABLES_5_10 = (
    '{"a":5,"edges":[{"dst":2,"kind":"couple","src":0,"twists":[11,14]},'
    '{"dst":1,"kind":"couple","src":0,"twists":[12,13]}],"h":10,"tables":['
    '{"a":5,"d_star":10,"h":10,"levels":[[0],[5,5,5,10],[10,10,10,10,11,12,13,14],'
    '[11,12,13,14,15]],"parity":"odd","t":5},'
    '{"a":5,"d_star":10,"h":10,"levels":[[0],[5,5,5,10],[10,10,10,10,11,14],[11,14,15]],'
    '"parity":"odd","t":3},'
    '{"a":5,"d_star":10,"h":10,"levels":[[0],[5,5,5,10],[10,10,10,10,12,13],[12,13,15]],'
    '"parity":"odd","t":3}]}'
)


def stdout_of(argv, capsys):
    assert main(argv) == 0
    return capsys.readouterr().out


def int_list(values) -> str:
    return ",".join(map(str, values))


# Hilbert functions of no complete intersection: a CI with r = H(1) factors
# of degree >= 2 and socle degree s has degrees summing to s + r, so each
# row has one CI, of type (2,2,2), (2,2,3) or (2,2,2,2), whose value is left out
NOT_CI = ([(1, 3, v, 1) for v in (1, 2, 4, 5, 6, 7)]
          + [(1, 3, v, 3, 1) for v in (1, 2, 3, 5, 6, 7)]
          + [(1, 4, v, 4, 1) for v in (1, 2, 3, 4, 5, 7, 8, 9)])


def pfaffian_check_sequences():
    """The sequences of ``verify.check_pfaffian_degrees``, in its order."""
    for length in range(3, 8, 2):
        n = (length - 1) // 2
        for delta in combinations_with_replacement(range(1, 9), length):
            if sum(delta) % n == 0:
                yield delta


def oracle_ideals():
    """The ideals of the pinned `betti oracle` payloads: the ACI construction
    on (a, a, a) and (a - 1, a, a + 1) and the rigid witness for a <= 6,
    CI(10, 10, 10, 10), the largest box the cap admits, and (x, y, z)^d for
    d <= 8, whose staircases are thin."""
    for a in range(2, 7):
        yield from (aci_construction((a, a, a), h) for h in range(a + 1, 2 * a))
    for a in range(3, 7):
        yield from (aci_construction((a - 1, a, a + 1), h) for h in range(a + 2, 2 * a))
    yield from (rigid_witness(a) for a in range(2, 7))
    yield MonomialIdeal(4, [tuple(10 * (k == i) for k in range(4)) for i in range(4)])
    for d in range(1, 9):
        yield MonomialIdeal(3, [(i, j, d - i - j) for i in range(d + 1) for j in range(d + 1 - i)])


class TestPinnedPayloads:
    """Exact outputs of routes whose implementation is shared with the library."""

    def test_cas_script_digests(self):
        digests = {kind: hashlib.sha256(export_cas(kind).encode()).hexdigest()
                   for kind in ("pfaffian-q", "pfaffian-w")}
        assert digests == {
            "pfaffian-q": "7be3f94acd911dca200620387a104436e93ac29cce6af4235690852f1db4b034",
            "pfaffian-w": "5249878f02dd16a31e4082158fb934d655b5e907a3887352e295391bdb59698b",
        }

    def test_liaison_cone_readme_example(self, capsys):
        assert stdout_of(README_CONE, capsys) == (
            '{"candidates":[[1,2],[1,3],[2,4],[2,5],[2,5]],"hg":[1,2,1],'
            '"table":{"c":3,"levels":[[0],[1,2,2,2,3],[2,3,3,3,4,4,5,5],[4,5,5,5]]}}\n'
        )

    @pytest.mark.parametrize("a, h, t, want", [
        (3, 5, 4, 3),
        (3, 5, 3, 5),
        (3, 4, 3, 4),   # h = a + 1 with odd t answers h
        (4, 5, 3, 5),
        (3, 6, 3, 6),
    ])
    def test_dstar_values(self, a, h, t, want):
        assert payload(["classify", "dstar", "--a", str(a), "--h", str(h), "--t", str(t)]) == want

    @pytest.mark.parametrize("a, h, t, code", [
        (1, 2, 3, "input-error"),
        (-5, 0, -1, "input-error"),   # for a < 2 the h window is empty: a is checked first
        (3, 3, 3, "h-out-of-range"),
        (3, 8, 3, "h-out-of-range"),
        (3, 6, 2, "invalid-family"),
        (3, 7, 4, "invalid-family"),
        (2, 3, 1, "input-error"),     # every table has t >= 2
        (2, 3, 0, "input-error"),
        (2, 3, -1, "input-error"),
        (3, 3, 0, "h-out-of-range"),  # the h window is checked before t
    ])
    def test_dstar_errors(self, a, h, t, code):
        assert run(["classify", "dstar", "--a", str(a), "--h", str(h), "--t", str(t)]).code == code

    @pytest.mark.parametrize("a, h, want", [(4, 6, TABLES_4_6), (5, 10, TABLES_5_10)])
    def test_classify_tables(self, a, h, want, capsys):
        assert stdout_of(["classify", "tables", "--a", str(a), "--h", str(h)], capsys) == want + "\n"

    def test_classify_tables_payloads(self, capsys):
        # stdout, byte for byte, of `classify tables` at every (a, h) with a <= 9
        text = ""
        for a in range(2, 10):
            for h in h_window(a).full:
                text += stdout_of(["classify", "tables", "--a", str(a), "--h", str(h)], capsys)
        assert hashlib.sha256(text.encode()).hexdigest() == \
            "c4bb0ea3b22cf5d073b37c05a8417b0190b66e1de88a6e052c238fc60ed7c3ae"

    def test_liaison_cone_payloads(self, capsys):
        # stdout, byte for byte, of `liaison cone` on the maximal table of each
        # family with a <= 6, over Z = (a, a, h)
        text = ""
        for a in range(2, 7):
            window = h_window(a)
            for h in window.full:
                parities = ([EVEN] if h in window.low else []) + ([ODD] if h > a + 1 else [])
                for parity in parities:
                    table = maximal_table(AciFamily(a, h, parity)).table
                    text += stdout_of(["liaison", "cone", "--z", int_list((a, a, h)),
                                       "--table", json.dumps(table.to_json())], capsys)
        assert hashlib.sha256(text.encode()).hexdigest() == \
            "9b4fd4106770bcc97d98593d6d9f857289faba6f53ae094cc36c27d86089c9e6"

    def test_degree_sequence_payloads(self, capsys):
        # stdout, byte for byte, of `hf recognize` on the CI function of every
        # sorted triple with entries 1..7 and on 20 functions of no CI, and of
        # `gorenstein gaeta` and `pfaffian alt` on the first 200 sequences of
        # the sub-pfaffian degree check
        text = ""
        for degs in combinations_with_replacement(range(1, 8), 3):
            h = ci_hilbert(degs).values
            text += stdout_of(["hf", "recognize", "--hf", int_list(h)], capsys)
        for h in NOT_CI:
            out = stdout_of(["hf", "recognize", "--hf", int_list(h)], capsys)
            assert out == "null\n", h
            text += out
        for delta in islice(pfaffian_check_sequences(), 200):
            text += stdout_of(["gorenstein", "gaeta", "--delta", int_list(delta)], capsys)
            text += stdout_of(["pfaffian", "alt", "--delta", int_list(delta)], capsys)
        assert hashlib.sha256(text.encode()).hexdigest() == \
            "9d9c0cc3972e7e37abc7dc150b9441a26fccc51e02aa679b3d2a539df60f9155"

    def test_oracle_against_a_table_of_another_c(self, capsys):
        argv = ["betti", "oracle", "--ideal", _CI_222,
                "--expected", '{"c":2,"levels":[[0],[2,2],[4]]}']
        assert stdout_of(argv, capsys) == (
            '{"diff":[{"computed":"c = 3","expected":"c = 2","level":null}],"matches":false,'
            '"table":{"c":3,"levels":[[0],[2,2,2],[4,4,4],[6]]}}\n')

    def test_alt_past_nine_indices(self, capsys):
        assert main(["pfaffian", "alt", "--delta", ",".join(["1"] * 11)]) == 1
        assert capsys.readouterr().err == ('{"code":"too-large",'
                                           '"message":"supported up to 9 indices, got 11",'
                                           '"status":"error"}\n')

    def test_monomial_export_with_expected(self, tmp_path, monkeypatch):
        monkeypatch.setenv("ACI3_OUTPUT_DIR", str(tmp_path))
        got = payload(["export", "cas", "--kind", "monomial", "--ideal", _CI_222,
                       "--expected", '{"c":3,"levels":[[0],[2,2,2],[4,4,4],[6]]}'])
        assert (got["bytes"], got["sha256"]) == (
            236, "cd0d1f6bc6debc4b91d942dcf743fcbd2f3c5618ebfe1a30084b2b727127b0c3")
        assert "--   2: {4, 4, 4}\n" in (tmp_path / "monomial.m2").read_text()

    def test_betti_oracle_payloads(self, capsys):
        # stdout, byte for byte, of `betti oracle` on each of oracle_ideals(),
        # without and with --expected set to the table of the complete
        # intersection of its pure powers (a match on the CIs, a diff elsewhere)
        text = ""
        for ideal in oracle_ideals():
            argv = ["betti", "oracle", "--ideal", json.dumps(ideal.to_json())]
            powers = sorted(sum(g) for g in ideal.gens if sum(map(bool, g)) == 1)
            expected = json.dumps(koszul_table(powers).to_json())
            text += stdout_of(argv, capsys) + stdout_of(argv + ["--expected", expected], capsys)
        assert hashlib.sha256(text.encode()).hexdigest() == \
            "1c29a34d0881dae479f3acc05abeb8cbec649ef03f419bb3c3a3d8d971b1208f"


class TestExportCas:
    def test_written_bytes_match_the_digest(self, tmp_path, monkeypatch):
        monkeypatch.setenv("ACI3_OUTPUT_DIR", str(tmp_path))
        got = payload(["export", "cas", "--kind", "pfaffian-q", "--out", "q.m2"])
        data = (tmp_path / "q.m2").read_bytes()
        assert got["sha256"] == hashlib.sha256(data).hexdigest()
        assert got["bytes"] == len(data)

    def test_cli_writes_file(self, tmp_path, monkeypatch):
        monkeypatch.setenv("ACI3_OUTPUT_DIR", str(tmp_path))
        got = payload(["export", "cas", "--kind", "pfaffian-q"])
        text = (tmp_path / "pfaffian-q.m2").read_text()
        assert len(text.encode()) == got["bytes"]
        assert "pfaffians(" in text and "betti res" in text

    def test_monomial_kind(self, tmp_path, monkeypatch):
        monkeypatch.setenv("ACI3_OUTPUT_DIR", str(tmp_path))
        ideal = json.dumps({"c": 3, "gens": [[2, 0, 0], [0, 2, 0], [0, 0, 3]]})
        got = payload(["export", "cas", "--kind", "monomial", "--ideal", ideal,
                       "--out", "ci.m2"])
        text = (tmp_path / "ci.m2").read_text()
        assert "ideal(x^2, y^2, z^3)" in text
        assert got["path"].endswith("ci.m2")

    def test_monomial_ideal_built_once(self, tmp_path, monkeypatch):
        monkeypatch.setenv("ACI3_OUTPUT_DIR", str(tmp_path))
        built = []
        post_init = MonomialIdeal.__post_init__

        def counted(ideal):
            built.append(ideal.c)
            post_init(ideal)

        monkeypatch.setattr(MonomialIdeal, "__post_init__", counted)
        payload(["export", "cas", "--kind", "monomial", "--ideal", _CI_222])
        assert built == [3]

    def test_byte_stability(self):
        for kind in ("pfaffian-q", "pfaffian-w"):
            assert export_cas(kind) == export_cas(kind)

    def test_scripts_balanced(self):
        for kind in ("pfaffian-q", "pfaffian-w"):
            assert script_is_balanced(export_cas(kind))
        assert not script_is_balanced("f = (1;\n")
        assert not script_is_balanced("f = (1];\n")     # closed by the wrong bracket
        assert not script_is_balanced("f = 1);\n")      # closed before it opened
        assert not script_is_balanced("f = (1);")        # no final newline
        assert script_is_balanced("f = (1); -- ({[\n")  # comments are not code

    def test_the_witness_recipe_builds_ideals_and_scripts(self, monkeypatch):
        # the ideals and both scripts read one recipe: y2 p_3 in place of
        # y2 p_1 changes all three, and p_1, which neither variant uses any
        # more, leaves the pfdel lines of both scripts
        before = pfaffians.witness_ideals_a3_h5()
        scripts = {kind: export_cas(kind) for kind in ("pfaffian-q", "pfaffian-w")}
        recipe = pfaffians.WITNESS_RECIPE
        monkeypatch.setattr(pfaffians, "WITNESS_RECIPE",
                            {**recipe, "q": (((3,), ("y2",)),) + recipe["q"][1:]})
        after = pfaffians.witness_ideals_a3_h5()
        y2 = after.matrix.ring.var("y2")
        q_before, w_before = before.ideals["q"], before.ideals["w"]
        assert after.ideals == {"q": (y2 * w_before[1],) + q_before[1:], "w": w_before}
        q, w = export_cas("pfaffian-q"), export_cas("pfaffian-w")
        assert "I = ideal(y2*p3, p2, y1*p5, y1*y2*p125);\n" in q
        assert "-- generators: y2*p_3, p_2, y1*p_5, y1*y2*p_{1,2,5} (degrees 4, 3, 5, 3)\n" in q
        for new, old in ((q, scripts["pfaffian-q"]), (w, scripts["pfaffian-w"])):
            assert new != old
            assert "p2 = pfdel {1}; p3 = pfdel {2}; p5 = pfdel {4};\n" in new
            assert "p1 = pfdel {0}; p2 = pfdel {1};" in old

    def test_the_witness_tables_are_the_expected_comments(self, monkeypatch):
        # pfaffian-q's comment and the witness check read one table per
        # variant: I_Q given the (3, 4) maximal table changes the one and
        # fails the other, and pfaffian-w keeps its script
        scripts = {kind: export_cas(kind) for kind in ("pfaffian-q", "pfaffian-w")}
        tables = pfaffians.witness_tables
        other = maximal_table(AciFamily(3, 4, EVEN)).table
        monkeypatch.setattr(pfaffians, "witness_tables", lambda: {**tables(), "q": other})
        q = export_cas("pfaffian-q")
        assert q != scripts["pfaffian-q"] and "--   1: {3, 3, 3, 4}\n" in q
        assert export_cas("pfaffian-w") == scripts["pfaffian-w"]
        result = verify.check_witness_degrees()
        assert not result.ok
        assert result.detail == "sorted degrees differ from level 1 (3, 3, 3, 4)"

    def test_expected_tables_in_comments(self):
        q = export_cas("pfaffian-q")
        w = export_cas("pfaffian-w")
        assert "{7, 7, 8, 9}" in q     # level 3 of the maximal table
        assert "{7, 7, 9}" in w        # level 3 after the a+h cancellation
        assert "{3, 3, 3, 5}" in q and "{3, 3, 3, 5}" in w

    def test_unknown_kind(self):
        with pytest.raises(DomainError):
            export_cas("groebner")
