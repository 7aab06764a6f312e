"""Command-line surface tying the modules into a reproducible harness.

Every subcommand prints a single deterministic JSON payload on stdout (the
full status envelope with ``--envelope``); errors go to stderr as JSON with
a machine-readable code, exit status 1.  ``schemacheck`` validates payloads
against the schema files shipped under ``aci3/schemas``.  The environment
variable ``ACI3_OUTPUT_DIR`` sets the directory for written files (CAS
scripts, CSV).

Each process runs one route, so the top level imports only what every
route needs; a handler imports the kernel modules it calls and calls them
through the module, where a tracer or a test stub can replace them.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass, field
from functools import lru_cache
from importlib import resources
from typing import TYPE_CHECKING

from . import schemacheck
from .errors import DomainError
from .hilbert import (
    BettiTable,
    HilbertFunction,
    ci_hilbert,
    difference,
    hilbert_from_betti,
    min_generator_bound,
    recognize_ci,
)

if TYPE_CHECKING:
    from . import monomials, pfaffians


@dataclass
class CommandResult:
    status: str
    payload: object = None
    provenance: tuple[str, ...] = field(default_factory=tuple)
    code: str | None = None
    message: str | None = None
    show_envelope: bool = False  # --envelope: print envelope() instead of the payload

    def envelope(self) -> dict:
        if self.status == "ok":
            return {"status": "ok", "payload": self.payload,
                    "provenance": list(self.provenance)}
        return {"status": "error", "code": self.code, "message": self.message}


@lru_cache(maxsize=None)
def _schema(name: str):
    """The compiled validator of a shipped schema, built once per process."""
    path = resources.files("aci3").joinpath(f"schemas/{name}.schema.json")
    return schemacheck.compile_schema(json.loads(path.read_text()))


def validate_payload(name: str, payload) -> None:
    """Raise ``jsonschema.ValidationError`` unless ``payload`` matches the schema."""
    _schema(name)(payload)


def _ints(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(",") if part.strip() != "")
    except ValueError as exc:
        raise DomainError("input-error", f"expected comma-separated integers, got {text!r}") from exc


def _json_flag(text: str, what: str) -> dict:
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise DomainError("input-error", f"malformed JSON for {what}: {exc}") from exc


def _hf(text: str) -> HilbertFunction:
    return HilbertFunction(_ints(text))


def _write_output(name: str, text: str) -> str:
    """Write ``text`` to ``name`` under ACI3_OUTPUT_DIR; an OSError is an input-error."""
    base = os.environ.get("ACI3_OUTPUT_DIR", ".")
    path = os.path.join(base, name)
    try:
        os.makedirs(base, exist_ok=True)
        with open(path, "w", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        raise DomainError("input-error", f"cannot write {path}: {exc}") from exc
    return path


def _hilbert_csv(h: HilbertFunction) -> str:
    import csv
    import io
    out = io.StringIO()
    writer = csv.writer(out)
    writer.writerow(["degree", "value"])
    writer.writerows(enumerate(h.values))
    return out.getvalue()


def _poly_json(p: pfaffians.SparsePolynomial) -> dict:
    return {
        "variables": list(p.ring.names),
        "terms": p.to_json(),
        "degree": p.degree(),
        "pretty": str(p),
    }


def _ideal_from_args(args) -> monomials.MonomialIdeal:
    from . import monomials
    if getattr(args, "ideal_file", None):
        try:
            with open(args.ideal_file) as fh:
                data = json.load(fh)
        except OSError as exc:
            raise DomainError("input-error", f"cannot read {args.ideal_file}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise DomainError("input-error", f"malformed JSON in {args.ideal_file}: {exc}") from exc
    elif getattr(args, "ideal", None):
        data = _json_flag(args.ideal, "--ideal")
    else:
        raise DomainError("input-error", "provide --ideal or --ideal-file")
    return monomials.MonomialIdeal.from_json(data)


# ---------- handlers: each returns (payload, provenance) ----------

def _cmd_hf_ci(args):
    h = ci_hilbert(_ints(args.degrees))
    if args.csv:
        _write_output(args.csv, _hilbert_csv(h))
    return h.to_json(), ("ci-hilbert-koszul-product",)


def _cmd_hf_diff(args):
    return list(difference(_hf(args.hf), args.order)), ("hilbert-difference",)


def _cmd_hf_from_betti(args):
    table = BettiTable.from_json(_json_flag(args.table, "--table"))
    h = hilbert_from_betti(table)
    if args.csv:
        _write_output(args.csv, _hilbert_csv(h))
    return h.to_json(), ("betti-determines-hilbert",)


def _cmd_hf_recognize(args):
    found = recognize_ci(_hf(args.hf))
    payload = None if found is None else list(found.degrees)
    return payload, ("ci-recognition",)


def _cmd_hf_bound(args):
    bound = min_generator_bound(_hf(args.hf), args.c, args.j)
    return bound, ("generator-lower-bound",)


def _cmd_aci_monomial(args):
    from . import monomials
    degs = _ints(args.degrees)
    ideal = monomials.aci_construction(degs, args.h)
    h = monomials.hilbert_function(ideal)
    payload = {
        "ideal": ideal.to_json(),
        "pretty": ideal.pretty(),
        "hilbert": h.to_json(),
    }
    tags = ["aci-monomial-construction"]
    if args.verify:
        expected = ci_hilbert(degs)
        payload["ci"] = expected.to_json()
        payload["matches"] = h == expected
        tags.append("ci-hilbert-match")
    return payload, tuple(tags)


def _cmd_betti_oracle(args):
    from . import koszul
    ideal = _ideal_from_args(args)
    table = koszul.betti_numbers(ideal)
    payload = {"table": table.to_json()}
    if args.expected:
        expected = BettiTable.from_json(_json_flag(args.expected, "--expected"))
        ok, diffs = koszul.compare_tables(table, expected)
        payload["matches"] = ok
        payload["diff"] = diffs
    return payload, ("koszul-homology-oracle",)


def _cmd_liaison_link(args):
    from . import liaison
    z = _ints(args.z)
    datum = liaison.LinkDatum.of(z)
    hg = liaison.link_hilbert(z, _hf(args.hq), strict=not args.lax)
    return ({"hg": hg.to_json(), "theta": datum.theta, "e": datum.e},
            ("liaison-hilbert-duality",))


def _cmd_liaison_cone(args):
    from . import liaison
    table = BettiTable.from_json(_json_flag(args.table, "--table"))
    cone = liaison.mapping_cone_twists(table, _ints(args.z))
    return cone.to_json(), ("mapping-cone-twists",)


def _cmd_classify_tables(args):
    from . import classify
    poset = classify.enumerate_tables(args.a, args.h)
    return poset.to_json(), ("maximal-tables", "allowed-cancellations")


def _cmd_classify_tmax(args):
    from . import classify
    return classify.t_max(args.a), ("t-max-at-h-2a",)


def _cmd_classify_dstar(args):
    from . import classify
    return classify.d_star(args.a, args.h, args.t), ("d-star-parity",)


def _cmd_gorenstein_gaeta(args):
    from . import classify
    delta = classify.GorensteinDelta(_ints(args.delta))
    result = classify.gaeta_check(delta)
    return ({"ok": result.ok, "reason": result.reason, "theta": delta.theta},
            ("gaeta-conditions",))


def _cmd_gorenstein_delta_low(args):
    from . import classify
    return list(classify.delta_low(args.a, args.h)), ("gorenstein-link-degrees",)


def _cmd_gorenstein_delta_high(args):
    from . import classify
    return list(classify.delta_high(args.a, args.h)), ("gorenstein-link-degrees",)


def _cmd_pfaffian_alt(args):
    from . import pfaffians
    m = pfaffians.alt_matrix(_ints(args.delta))
    entries = [
        {"i": i, "j": j, "degree": m.entry_degrees[(i, j)],
         "terms": m.entry(i, j).to_json()}
        for (i, j) in sorted(m.entry_degrees)
    ]
    payload = {
        "delta": list(m.delta),
        "theta": m.theta,
        "size": m.size,
        "variables": list(m.ring.names),
        "entries": entries,
        "pretty": m.pretty(),
    }
    return payload, ("alternating-matrix",)


def _cmd_pfaffian_sub(args):
    from . import pfaffians
    m = pfaffians.alt_matrix(_ints(args.delta))
    if not 1 <= args.i <= m.size:
        raise DomainError("input-error", f"--i must be in 1..{m.size}")
    p_i = pfaffians.pfaffian(m, [k for k in range(1, m.size + 1) if k != args.i])
    return _poly_json(p_i), ("sub-pfaffians",)


def _cmd_pfaffian_example(args):
    from . import pfaffians
    w = pfaffians.witness_ideals_a3_h5()
    payload = {
        "variables": list(w.matrix.ring.names),
        "iq": [p.to_json() for p in w.iq],
        "iw": [p.to_json() for p in w.iw],
        "iq_pretty": [str(p) for p in w.iq],
        "iw_pretty": [str(p) for p in w.iw],
        "degrees_q": list(w.degrees_q()),
        "degrees_w": list(w.degrees_w()),
        "sorted_degrees": sorted(w.degrees_q()),
    }
    return payload, ("pfaffian-witness-ideals",)


def _cmd_export_cas(args):
    import hashlib

    from . import cas
    payload_in: dict = {}
    if args.kind == "monomial":
        payload_in["ideal"] = _ideal_from_args(args).to_json()
        if args.expected:
            payload_in["expected"] = _json_flag(args.expected, "--expected")
    script = cas.export_cas(args.kind, payload_in)
    path = _write_output(args.out or f"{args.kind}.m2", script)
    digest = hashlib.sha256(script.encode()).hexdigest()
    payload = {"kind": args.kind, "path": path,
               "bytes": len(script.encode()), "sha256": digest}
    return payload, ("cas-export",)


def _cmd_verify(args):
    from . import verify
    report = verify.verify_suite(args.scope, max_degree=args.max_degree, max_a=args.max_a)
    for check in report.checks:
        word = "ok  " if check.ok else "FAIL"
        print(f"{word} {check.name}: {check.detail}", file=sys.stderr)
    return report.to_json(), ("verification-suite",)


class _Parser(argparse.ArgumentParser):
    """Reports usage errors as an input-error instead of exiting with status 2."""

    def error(self, message):
        raise DomainError("input-error", f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    """One route per output: the payload schema is ``<group>-<action>``
    unless the route sets ``schema``."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--envelope", action="store_true",
                        help="print the full status envelope instead of the bare payload")

    parser = _Parser(
        prog="aci3",
        description="Hilbert functions and Betti tables of codimension-3 "
                    "almost complete intersection artinian algebras")
    groups = parser.add_subparsers(dest="group", required=True)

    hf = groups.add_parser("hf", help="Hilbert-function arithmetic")
    hf_sub = hf.add_subparsers(dest="action", required=True)
    p = hf_sub.add_parser("ci", parents=[common])
    p.add_argument("--degrees", required=True, help="comma-separated CI degrees, e.g. 3,3,3")
    p.add_argument("--csv", help="also write degree,value rows to this CSV file")
    p.set_defaults(handler=_cmd_hf_ci)
    p = hf_sub.add_parser("diff", parents=[common])
    p.add_argument("--hf", required=True, help="comma-separated values, e.g. 1,3,3,1")
    p.add_argument("--order", type=int, default=1)
    p.set_defaults(handler=_cmd_hf_diff)
    p = hf_sub.add_parser("from-betti", parents=[common])
    p.add_argument("--table", required=True, help='Betti table JSON, e.g. {"c":3,"levels":[[0],[2,2,2],[4,4,4],[6]]}')
    p.add_argument("--csv")
    p.set_defaults(handler=_cmd_hf_from_betti)
    p = hf_sub.add_parser("recognize", parents=[common])
    p.add_argument("--hf", required=True)
    p.set_defaults(handler=_cmd_hf_recognize)
    p = hf_sub.add_parser("bound", parents=[common],
                          help="lower bound for minimal generators in one degree")
    p.add_argument("--hf", required=True)
    p.add_argument("--c", type=int, required=True)
    p.add_argument("--j", type=int, required=True)
    p.set_defaults(handler=_cmd_hf_bound)

    aci = groups.add_parser("aci", help="monomial almost complete intersections")
    aci_sub = aci.add_subparsers(dest="action", required=True)
    p = aci_sub.add_parser("monomial", parents=[common])
    p.add_argument("--degrees", required=True)
    p.add_argument("--h", type=int, required=True)
    p.add_argument("--verify", action="store_true",
                   help="also check the Hilbert function against the CI one")
    p.set_defaults(handler=_cmd_aci_monomial)

    betti = groups.add_parser("betti", help="Koszul-homology Betti oracle")
    betti_sub = betti.add_subparsers(dest="action", required=True)
    p = betti_sub.add_parser("oracle", parents=[common])
    p.add_argument("--ideal", help="monomial ideal JSON")
    p.add_argument("--ideal-file", help="path to monomial ideal JSON")
    p.add_argument("--expected", help="Betti table JSON to compare against")
    p.set_defaults(handler=_cmd_betti_oracle)

    lia = groups.add_parser("liaison", help="linkage arithmetic")
    lia_sub = lia.add_subparsers(dest="action", required=True)
    p = lia_sub.add_parser("link", parents=[common])
    p.add_argument("--z", required=True, help="CI type, e.g. 2,2,3")
    p.add_argument("--hq", required=True, help="Hilbert function of Q, e.g. 1,3,3,1")
    p.add_argument("--lax", action="store_true", help="allow the zero result (self-link)")
    p.set_defaults(handler=_cmd_liaison_link)
    p = lia_sub.add_parser("cone", parents=[common])
    p.add_argument("--table", required=True, help="Betti table JSON of Q")
    p.add_argument("--z", required=True)
    p.set_defaults(handler=_cmd_liaison_cone)

    cls = groups.add_parser("classify", help="Betti-table classification for H_CI(a,a,a)")
    cls_sub = cls.add_subparsers(dest="action", required=True)
    p = cls_sub.add_parser("tables", parents=[common])
    p.add_argument("--a", type=int, required=True)
    p.add_argument("--h", type=int, required=True)
    p.set_defaults(handler=_cmd_classify_tables)
    p = cls_sub.add_parser("tmax", parents=[common])
    p.add_argument("--a", type=int, required=True)
    p.set_defaults(handler=_cmd_classify_tmax)
    p = cls_sub.add_parser("dstar", parents=[common])
    p.add_argument("--a", type=int, required=True)
    p.add_argument("--h", type=int, required=True)
    p.add_argument("--t", type=int, required=True, help="number of last syzygies")
    p.set_defaults(handler=_cmd_classify_dstar)

    gor = groups.add_parser("gorenstein", help="Gorenstein degree sequences")
    gor_sub = gor.add_subparsers(dest="action", required=True)
    p = gor_sub.add_parser("gaeta", parents=[common])
    p.add_argument("--delta", required=True, help="sorted degrees, e.g. 2,3,3,4,4")
    p.set_defaults(handler=_cmd_gorenstein_gaeta)
    p = gor_sub.add_parser("delta-low", parents=[common])
    p.add_argument("--a", type=int, required=True)
    p.add_argument("--h", type=int, required=True)
    p.set_defaults(handler=_cmd_gorenstein_delta_low, schema="gorenstein-delta")
    p = gor_sub.add_parser("delta-high", parents=[common])
    p.add_argument("--a", type=int, required=True)
    p.add_argument("--h", type=int, required=True)
    p.set_defaults(handler=_cmd_gorenstein_delta_high, schema="gorenstein-delta")

    pf = groups.add_parser("pfaffian", help="alternating matrices and pfaffians")
    pf_sub = pf.add_subparsers(dest="action", required=True)
    p = pf_sub.add_parser("alt", parents=[common])
    p.add_argument("--delta", required=True)
    p.set_defaults(handler=_cmd_pfaffian_alt)
    p = pf_sub.add_parser("sub", parents=[common])
    p.add_argument("--delta", required=True)
    p.add_argument("--i", type=int, required=True)
    p.set_defaults(handler=_cmd_pfaffian_sub)
    p = pf_sub.add_parser("example", parents=[common])
    p.set_defaults(handler=_cmd_pfaffian_example)

    exp = groups.add_parser("export", help="external-CAS script export")
    exp_sub = exp.add_subparsers(dest="action", required=True)
    p = exp_sub.add_parser("cas", parents=[common])
    p.add_argument("--kind", required=True,
                   help="script kind; an unknown one is refused with the list")
    p.add_argument("--ideal", help="monomial ideal JSON (kind=monomial)")
    p.add_argument("--ideal-file")
    p.add_argument("--expected", help="expected Betti table JSON comment")
    p.add_argument("--out", help="output file name (under ACI3_OUTPUT_DIR)")
    p.set_defaults(handler=_cmd_export_cas)

    ver = groups.add_parser("verify", parents=[common], help="run the verification suite")
    ver.add_argument("--scope", default="all",
                     help="all (the default) or one scope; an unknown one is refused "
                          "with the list")
    ver.add_argument("--max-degree", type=int, default=5)
    ver.add_argument("--max-a", type=int, default=6)
    ver.set_defaults(handler=_cmd_verify, schema="verify")

    return parser


def schema_name(args) -> str:
    """Name of the schema that the payload of a parsed route must match."""
    return getattr(args, "schema", None) or f"{args.group}-{args.action}"


def run(argv) -> CommandResult:
    """Parse, execute and validate one command.

    A DomainError keeps its code.  Any other exception, from a bug or from a
    payload that breaks its schema, is an ``internal-error`` result instead
    of a traceback.  SystemExit (``--help``) and KeyboardInterrupt propagate.
    """
    try:
        args = build_parser().parse_args(argv)
        payload, provenance = args.handler(args)
        validate_payload(schema_name(args), payload)
        result = CommandResult("ok", payload=payload, provenance=provenance,
                               show_envelope=args.envelope)
        validate_payload("envelope", result.envelope())
    except DomainError as exc:
        return CommandResult("error", code=exc.code, message=str(exc))
    except Exception as exc:
        return CommandResult("error", code="internal-error",
                             message=f"{type(exc).__name__}: {exc}")
    return result


def _dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def main(argv=None) -> int:
    result = run(sys.argv[1:] if argv is None else argv)
    if result.status == "error":
        print(_dumps(result.envelope()), file=sys.stderr)
        return 1
    if result.show_envelope:
        print(_dumps(result.envelope()))
    else:
        print(_dumps(result.payload))
    if isinstance(result.payload, dict) and result.payload.get("passed") is False:
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
