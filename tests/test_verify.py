"""Failure paths of the verification suite: each check reports ok = False,
under its usual name, when one of its dependencies gives a wrong answer."""

import hashlib
import json
import re
from dataclasses import replace

import pytest

from aci3 import DomainError, cas, classify, koszul, liaison, monomials, pfaffians, verify
from aci3.cli import main
from aci3.hilbert import BettiTable, HilbertFunction

BROKEN = [
    (verify.check_aci_hilbert, "monomial/aci-hilbert-equals-ci",
     monomials, "hilbert_function", lambda ideal: HilbertFunction((1,))),
    (verify.check_colon_link, "monomial/colon-link-type",
     monomials, "ci_type", lambda ideal: None),
    (verify.check_rigid_resolution, "betti/rigid-resolution-oracle",
     koszul, "verify_resolution", lambda ideal, expected: (False, ["broken"])),
    (verify.check_classification_coherence, "classification/coherence",
     classify, "d_star", lambda a, h, t: 0),
    (verify.check_t_max, "classification/t-max",
     classify, "t_max", lambda a: 0),
    (verify.check_ah_cancellation, "classification/ah-cancellation",
     classify, "cancel_ah", lambda node: node),
    (verify.check_ci_link_identity, "liaison/ci-link-identity",
     liaison, "ci_link_identity", lambda a, h: False),
    (verify.check_gaeta, "gaeta/delta-builders",
     classify, "gaeta_check", lambda delta: classify.GaetaResult(False, "broken")),
    (verify.check_pfaffian_degrees, "pfaffian/sub-pfaffian-degrees",
     pfaffians, "sub_pfaffians", lambda m: [_constant(m, 1)] * m.size),
    (verify.check_pf_squared, "pfaffian/pf-squared-equals-det",
     pfaffians, "pf_squared_equals_det", lambda mat: False),
    (verify.check_witness_degrees, "pfaffian/witness-ideals",
     pfaffians, "sub_pfaffians", lambda m: [_constant(m, 0)] * m.size),
    (verify.check_cas_scripts, "cas/scripts",
     cas, "script_is_balanced", lambda text: False),
]
# further wrong answers that a check must also see, each under its own id
ALSO_BROKEN = {
    # an extra generator z^a3 in place of the ACI's makes the ideal the CI,
    # which has the same Hilbert function, so the check counts the generators
    "monomial/aci-hilbert-equals-ci-extra-is-a-pure-power": (
        verify.check_aci_hilbert, "monomial/aci-hilbert-equals-ci",
        monomials, "aci_construction",
        lambda degs, h: monomials.MonomialIdeal(
            3, ((degs[0], 0, 0), (0, degs[1], 0), (0, 0, h), (0, 0, degs[2])))),
    # about half of the sub-pfaffians it expands are zero, so it has to count terms
    "pfaffian/sub-pfaffian-degrees-zeros": (
        verify.check_pfaffian_degrees, "pfaffian/sub-pfaffian-degrees",
        pfaffians, "sub_pfaffians", lambda m: [_constant(m, 0)] * m.size),
    "pfaffian/sub-pfaffian-degrees-doubled": (
        verify.check_pfaffian_degrees, "pfaffian/sub-pfaffian-degrees",
        pfaffians, "sub_pfaffians",
        lambda m, original=pfaffians.sub_pfaffians: [_constant(m, 2) * p for p in original(m)]),
    # a relative sign: term counts, +-1 coefficients, Pf^2 = det and the
    # witness degrees cannot see it, the cross-check pfaffian_last_row does
    "pfaffian/sub-pfaffian-degrees-p2-negated": (
        verify.check_pfaffian_degrees, "pfaffian/sub-pfaffian-degrees",
        pfaffians, "sub_pfaffians",
        lambda m, original=pfaffians.sub_pfaffians:
            [_constant(m, -1) * p if i == 1 else p for i, p in enumerate(original(m))]),
    "pfaffian/sub-pfaffian-degrees-sign-flip": (
        verify.check_pfaffian_degrees, "pfaffian/sub-pfaffian-degrees",
        pfaffians, "sub_pfaffians",
        lambda m, original=pfaffians.sub_pfaffians: [_constant(m, -1) * p for p in original(m)]),
    # the expected tables are classify's maximal tables
    "betti/rigid-resolution-oracle-twist-dropped": (
        verify.check_rigid_resolution, "betti/rigid-resolution-oracle",
        classify, "maximal_table", lambda fam: _drop_a_twist(fam, 2)),
    "pfaffian/witness-ideals-generator-dropped": (
        verify.check_witness_degrees, "pfaffian/witness-ideals",
        classify, "maximal_table", lambda fam: _drop_a_twist(fam, 1)),
    # a table of no artinian algebra: hilbert_from_betti refuses it
    "classification/coherence-3a-dropped": (
        verify.check_classification_coherence, "classification/coherence",
        classify, "enumerate_tables", lambda a, h: _edit_nodes(a, h, _drop_3a)),
    # the same Hilbert function, but no a+h pair for the self-dual part to drop
    "classification/coherence-ah-shifted": (
        verify.check_classification_coherence, "classification/coherence",
        classify, "enumerate_tables", lambda a, h: _edit_nodes(a, h, _shift_ah)),
}


def _edit_nodes(a, h, edit, original=classify.enumerate_tables):
    # the (a, h) poset with each node's levels 2 and 3 edited
    poset = original(a, h)
    nodes = tuple(replace(node, table=BettiTable(3, node.table.levels[:2] + edit(a, h, node)))
                  for node in poset.nodes)
    return replace(poset, nodes=nodes)


def _drop_3a(a, h, node):
    level3 = list(node.table.levels[3])
    del level3[level3.index(3 * a)]
    return node.table.levels[2], tuple(level3)


def _shift_ah(a, h, node):
    # an even node's a+h pair moves to a+h+1 at levels 2 and 3
    shift = {a + h: a + h + 1} if node.t % 2 == 0 else {}
    return tuple(tuple(shift.get(j, j) for j in node.table.levels[k]) for k in (2, 3))


def _drop_a_twist(fam, level, original=classify.maximal_table):
    # the family's maximal table without the first twist of one level
    top = original(fam)
    levels = list(top.table.levels)
    levels[level] = levels[level][1:]
    return classify.AciTable(top.a, top.h, BettiTable(3, tuple(levels)))


def _constant(m, c):
    return pfaffians.SparsePolynomial(m.ring, {(0,) * len(m.ring.names): c})


@pytest.mark.parametrize("check, name, module, attr, wrong",
                         BROKEN + list(ALSO_BROKEN.values()),
                         ids=[case[1] for case in BROKEN] + list(ALSO_BROKEN))
def test_check_reports_failure(monkeypatch, check, name, module, attr, wrong):
    assert check().ok
    monkeypatch.setattr(module, attr, wrong)
    result = check()
    assert result.ok is False
    assert result.name == name


def test_every_check_has_a_failure_case():
    plan = verify.verify_suite("all", max_degree=2, max_a=2)
    assert sorted(c.name for c in plan.checks) == sorted(case[1] for case in BROKEN)


@pytest.mark.parametrize("scope", verify.SCOPES)
def test_bounds_start_at_the_first_case(scope, monkeypatch):
    # below 2 no check has a case, so a pass would say nothing: refused
    # before any check runs
    with monkeypatch.context() as stubs:
        for name in [n for n in vars(verify) if n.startswith("check_")]:
            stubs.setattr(verify, name, lambda *args: pytest.fail("a check ran"))
        for max_degree, max_a in ((1, 2), (2, 1), (2, -3)):
            with pytest.raises(DomainError) as exc:
                verify.verify_suite(scope, max_degree=max_degree, max_a=max_a)
            assert exc.value.code == "input-error"
    report = verify.verify_suite(scope, max_degree=2, max_a=2)
    assert report.passed
    for check in report.checks:
        count = re.match(r"(\d+) ", check.detail)
        span = re.search(r"a = (\d+)\.\.(\d+)", check.detail)
        assert count is None or int(count[1]) > 0, check
        assert span is None or int(span[1]) <= int(span[2]), check


@pytest.mark.parametrize("argv", [
    ["verify", "--scope", "classification", "--max-a", "-3"],
    ["verify", "--scope", "monomial", "--max-degree", "1"],
])
def test_cli_refuses_a_bound_with_no_case(argv, capsys):
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err)["code"] == "input-error"


def test_scopes_in_run_order():
    assert verify.SCOPES == ("monomial", "betti", "classification", "liaison", "gaeta",
                             "pfaffian", "cas")


def test_suite_runs_the_current_module_attribute(monkeypatch):
    # the plan looks each check up when it runs, so a replaced check is the
    # one that runs (the benchmark's tracer relies on this)
    stub = verify.CheckResult("gaeta/stub", True, "stubbed")
    monkeypatch.setattr(verify, "check_gaeta", lambda max_a=8: stub)
    assert verify.verify_suite("gaeta").checks == (stub,)


def test_plan_keeps_the_scope_bounds(monkeypatch):
    seen = {}
    for name in ("check_aci_hilbert", "check_rigid_resolution", "check_t_max",
                 "check_ah_cancellation", "check_gaeta"):
        def record(bound, name=name):
            seen[name] = bound
            return verify.CheckResult(name, True, "")
        monkeypatch.setattr(verify, name, record)
    verify.verify_suite("monomial", max_degree=3, max_a=9)
    verify.verify_suite("betti", max_degree=3, max_a=9)
    verify.verify_suite("classification", max_degree=3, max_a=4)
    verify.verify_suite("gaeta", max_degree=3, max_a=4)
    assert seen == {"check_aci_hilbert": 3, "check_rigid_resolution": 5, "check_t_max": 8,
                    "check_ah_cancellation": 4, "check_gaeta": 8}


def test_pf_squared_checks_the_shared_expansion(fresh_plans, monkeypatch):
    # pfaffian_int runs on the expansion behind pfaffian and sub_pfaffians:
    # adding one to the empty matching of every expansion breaks both (the
    # expected p_i come from the cross-check, so no plan is built unstubbed)
    original = pfaffians._pf
    m = pfaffians.alt_matrix((2, 3, 3, 4, 4))
    expected = [pfaffians.pfaffian_last_row(m, [k for k in range(1, 6) if k != i])
                for i in range(1, 6)]

    def off_by_one(slot, idx, memo):
        out = dict(original(slot, idx, memo))
        out[0] = out.get(0, 0) + 1
        return out

    monkeypatch.setattr(pfaffians, "_pf", off_by_one)
    assert verify.check_pf_squared().ok is False
    assert pfaffians.sub_pfaffians(m) != expected


def test_no_expansion_fails_every_pfaffian_check(fresh_plans, monkeypatch):
    # an expansion that finds no term leaves every pfaffian zero
    monkeypatch.setattr(pfaffians, "_pf", lambda slot, idx, memo: {})
    for check in (verify.check_pfaffian_degrees, verify.check_pf_squared,
                  verify.check_witness_degrees):
        assert check().ok is False, check


def _unit_coefficients(monkeypatch):
    # the substitution ignores the coefficient of every entry
    original = pfaffians._specialize

    def specialize(size, upper, index_sets):
        units = {ij: (key, 1) for ij, (key, _) in upper.items()}
        return original(size, units, index_sets)

    monkeypatch.setattr(pfaffians, "_specialize", specialize)


def _unsigned_terms(monkeypatch):
    # the substitution drops the sign of every term of the generic pfaffian
    original = pfaffians._plan

    def plan(size, pairs):
        terms = original(size, pairs)
        return lambda idx: tuple((slots, abs(c)) for slots, c in terms(idx))

    monkeypatch.setattr(pfaffians, "_plan", plan)


@pytest.mark.parametrize("mutate", [_unit_coefficients, _unsigned_terms])
def test_broken_substitution_fails_pf_squared(monkeypatch, mutate):
    # every entry of Alt(delta) is +1 times a monomial, and the degree and
    # witness checks count terms; Pf(M)^2 = det(M), on integer entries
    # other than +-1 and terms of both signs, sees either fault
    mutate(monkeypatch)
    assert verify.check_pf_squared().ok is False


def test_pfaffian_degree_check_expands_each_support_graph_once(fresh_plans, monkeypatch):
    # 1656 matrices, 36 support graphs: one plan per graph, and _pf expands
    # only the generic matrices (27,341 calls when it expanded every matrix)
    calls = 0
    original = pfaffians._pf

    def counted(slot, idx, memo):
        nonlocal calls
        calls += 1
        return original(slot, idx, memo)

    monkeypatch.setattr(pfaffians, "_pf", counted)
    assert verify.check_pfaffian_degrees().ok
    assert pfaffians._plan.cache_info().currsize == 36
    assert calls < 1000


def test_pfaffian_degree_check_covers_every_sequence():
    # the detail pins how many sequences the check expands
    result = verify.check_pfaffian_degrees()
    assert result.ok
    assert result.detail == ("1656 degree sequences, length <= 7, entries <= 8, "
                             "24378 terms, one per perfect matching")


def test_verify_output_pinned(capsys):
    # stdout and stderr of `verify --scope all` at three bound pairs, byte
    # for byte: every detail line and the human summary
    text = ""
    for max_degree, max_a in ((5, 6), (5, 9), (7, 12)):
        assert main(["verify", "--scope", "all", "--max-degree", str(max_degree),
                     "--max-a", str(max_a)]) == 0
        captured = capsys.readouterr()
        text += captured.out + captured.err
    assert hashlib.sha256(text.encode()).hexdigest() == \
        "32c89911d4538766fbc74504bc3b542cf1cb48b5fb7a62889e5ba2377abbb408"


def test_cli_bounds_left_out_are_verify_suites(capsys):
    # a bound the command line leaves out is verify_suite's default
    outputs = set()
    for bounds in ([], ["--max-degree", str(verify.DEFAULT_MAX_DEGREE)],
                   ["--max-a", str(verify.DEFAULT_MAX_A)],
                   ["--max-degree", str(verify.DEFAULT_MAX_DEGREE),
                    "--max-a", str(verify.DEFAULT_MAX_A)]):
        assert main(["verify", "--scope", "all", *bounds]) == 0
        captured = capsys.readouterr()
        outputs.add(captured.out + captured.err)
    assert len(outputs) == 1


def test_cli_verify_exits_1_on_failure(monkeypatch, capsys):
    monkeypatch.setattr(classify, "gaeta_check",
                        lambda delta: classify.GaetaResult(False, "broken"))
    assert main(["verify", "--scope", "gaeta"]) == 1
    out = capsys.readouterr().out
    assert '"passed":false' in out
    (check,) = json.loads(out)["checks"]
    assert check == {"name": "gaeta/delta-builders", "ok": False,
                     "detail": "delta_low(2, 3) fails"}
