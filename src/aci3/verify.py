"""Self-verification suite: every acceptance claim as a named, machine-
checkable test, runnable from the CLI (``aci3 verify``) or from pytest.

All checks are exact (tolerance zero); the checks are grouped into scopes so
desk-scale bounds (generator-degree caps, a caps) can be adjusted from the
command line.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import combinations_with_replacement

from . import cas, classify, koszul, liaison, monomials, pfaffians
from .classify import EVEN, ODD
from .errors import DomainError
from .hilbert import BettiTable, ci_hilbert, hilbert_from_betti

SCOPES = ("monomial", "betti", "classification", "liaison", "gaeta", "pfaffian", "cas")


@dataclass(frozen=True)
class CheckResult:
    name: str
    ok: bool
    detail: str

    def to_json(self) -> dict:
        return {"name": self.name, "ok": self.ok, "detail": self.detail}


@dataclass(frozen=True)
class Report:
    scope: str
    checks: tuple[CheckResult, ...]

    @property
    def passed(self) -> bool:
        return all(c.ok for c in self.checks)

    def to_json(self) -> dict:
        return {
            "scope": self.scope,
            "passed": self.passed,
            "checks": [c.to_json() for c in self.checks],
        }


def _sorted_triples(lo: int, hi: int):
    return combinations_with_replacement(range(lo, hi + 1), 3)


def check_aci_hilbert(max_degree: int = 5) -> CheckResult:
    """The monomial almost complete intersection has the complete
    intersection's Hilbert function, for every degree triple and admissible h."""
    cases = 0
    for degs in _sorted_triples(2, max_degree):
        expected = ci_hilbert(degs)
        for h in range(degs[2] + 1, degs[2] + degs[0]):
            ideal = monomials.aci_construction(degs, h)
            if monomials.hilbert_function(ideal) != expected:
                return CheckResult("monomial/aci-hilbert-equals-ci", False,
                                   f"mismatch at degrees {degs}, h = {h}")
            cases += 1
    return CheckResult("monomial/aci-hilbert-equals-ci", True,
                       f"{cases} (degrees, h) cases, degrees <= {max_degree}")


def check_colon_link(max_degree: int = 5) -> CheckResult:
    """The colon of the pure-power complete intersection by the monomial ACI
    is a monomial complete intersection of type (h - a3, a1, a2), and the
    Hilbert-function link reproduces its Hilbert function."""
    cases = 0
    for degs in _sorted_triples(2, max_degree):
        a1, a2, a3 = degs
        for h in range(a3 + 1, a3 + a1):
            quotient = monomials.aci_construction(degs, h)
            ci = monomials.MonomialIdeal(
                3, ((a1, 0, 0), (0, a2, 0), (0, 0, h)))
            linked = monomials.colon(ci, quotient)
            got_type = monomials.ci_type(linked)
            want_type = tuple(sorted((h - a3, a1, a2)))
            if got_type != want_type:
                return CheckResult("monomial/colon-link-type", False,
                                   f"type {got_type} != {want_type} at {degs}, h = {h}")
            via_link = liaison.link_hilbert(
                tuple(sorted((a1, a2, h))), monomials.hilbert_function(quotient))
            if via_link != monomials.hilbert_function(linked):
                return CheckResult("monomial/colon-link-type", False,
                                   f"Hilbert mismatch at {degs}, h = {h}")
            cases += 1
    return CheckResult("monomial/colon-link-type", True,
                       f"{cases} (degrees, h) cases, degrees <= {max_degree}")


def check_rigid_resolution(max_a: int = 5) -> CheckResult:
    """The Koszul-homology oracle on (x^a, y^(a+1), z^a, x^(a-1)y) returns
    exactly the rigid h = a + 1 table, for a = 2..max_a."""
    for a in range(2, max_a + 1):
        expected = BettiTable(3, (
            (0,),
            tuple(sorted((a, a, a, a + 1))),
            tuple(sorted((2 * a, 2 * a, 2 * a, 2 * a + 1, a + 1))),
            tuple(sorted((2 * a + 1, 3 * a))),
        ))
        ok, diffs = koszul.verify_resolution(monomials.rigid_witness(a), expected)
        if not ok:
            return CheckResult("betti/rigid-resolution-oracle", False,
                               f"a = {a}: {diffs}")
    return CheckResult("betti/rigid-resolution-oracle", True,
                       f"a = 2..{max_a}, exact twist multisets")


def _g_part(node: classify.AciTable) -> list[int]:
    level3 = list(node.table.levels[3])
    level3.remove(3 * node.a)
    if node.t % 2 == 0:
        level3.remove(node.a + node.h)
    return level3


def check_classification_coherence(max_a: int = 6) -> CheckResult:
    """Every enumerated table reproduces H_CI(a,a,a); the self-dual part of
    level 3 is fixed under j -> 3a+h-j; a+h sits at level 2 iff t is even
    (multiplicity one at levels 2 and 3); h >= 2a forces odd t; and d* is a
    for even t, h for odd t."""
    tables = 0
    for a in range(2, max_a + 1):
        expected = ci_hilbert((a, a, a))
        for h in range(a + 1, 3 * a - 1):
            poset = classify.enumerate_tables(a, h)
            for node in poset.nodes:
                tag = f"(a, h) = ({a}, {h}), levels = {node.table.levels}"
                if hilbert_from_betti(node.table) != expected:
                    return CheckResult("classification/coherence", False,
                                       f"Hilbert mismatch at {tag}")
                s = 3 * a + h
                g_part = _g_part(node)
                if sorted(s - j for j in g_part) != g_part:
                    return CheckResult("classification/coherence", False,
                                       f"self-duality fails at {tag}")
                ah = a + h
                m2 = node.table.levels[2].count(ah)
                m3 = node.table.levels[3].count(ah)
                if node.t % 2 == 0 and (m2 != 1 or m3 != 1):
                    return CheckResult("classification/coherence", False,
                                       f"a+h multiplicity ({m2}, {m3}) != (1, 1) at {tag}")
                if node.t % 2 == 1:
                    # at h = 2a the forced level-3 twist 3a coincides with a+h
                    if m2 != 0 or m3 != (1 if h == 2 * a else 0):
                        return CheckResult("classification/coherence", False,
                                           f"unexpected a+h syzygy at {tag}")
                if h >= 2 * a and node.t % 2 == 0:
                    return CheckResult("classification/coherence", False,
                                       f"even t with h >= 2a at {tag}")
                want_dstar = a if node.t % 2 == 0 else h
                if classify.d_star(a, h, node.t) != want_dstar:
                    return CheckResult("classification/coherence", False,
                                       f"d* != {want_dstar} at {tag}")
                if node.table.levels[2].count(2 * a) < 3 or node.table.levels[3].count(3 * a) != 1:
                    return CheckResult("classification/coherence", False,
                                       f"forced syzygies missing at {tag}")
                tables += 1
    return CheckResult("classification/coherence", True,
                       f"{tables} tables, a = 2..{max_a}, all admissible h")


def check_t_max(max_a: int = 8) -> CheckResult:
    """max t over the tables enumerated at h = 2a equals a+1 for even a and
    a for odd a; for even a this is also the maximum over every h."""
    for a in range(2, max_a + 1):
        at_2a = max(node.t for node in classify.enumerate_tables(a, 2 * a).nodes)
        if at_2a != classify.t_max(a):
            return CheckResult("classification/t-max", False,
                               f"a = {a}: max t at h = 2a is {at_2a}, expected {classify.t_max(a)}")
        if a % 2 == 0:
            overall = max(node.t
                          for h in range(a + 1, 3 * a - 1)
                          for node in classify.enumerate_tables(a, h).nodes)
            if overall != classify.t_max(a):
                return CheckResult("classification/t-max", False,
                                   f"a = {a}: global max t {overall} != {classify.t_max(a)}")
    return CheckResult("classification/t-max", True, f"a = 2..{max_a}, attained at h = 2a")


def check_ah_cancellation(max_a: int = 6) -> CheckResult:
    """cancel_ah succeeds on an even-family table iff t >= 4, and its output
    is the odd-family table obtained by the same couple cancellations."""
    cases = 0
    for a in range(2, max_a + 1):
        for h in range(a + 1, 2 * a):
            poset = classify.enumerate_tables(a, h)
            odd_levels = {node.table.levels for node in poset.nodes if node.parity == ODD}
            for node in poset.nodes:
                if node.parity != EVEN:
                    continue
                if node.t >= 4:
                    got = classify.cancel_ah(node)
                    if got.t != node.t - 1 or got.table.levels not in odd_levels:
                        return CheckResult(
                            "classification/ah-cancellation", False,
                            f"bad cancellation at (a, h) = ({a}, {h}), t = {node.t}")
                else:
                    try:
                        classify.cancel_ah(node)
                    except DomainError:
                        pass
                    else:
                        return CheckResult(
                            "classification/ah-cancellation", False,
                            f"t = {node.t} cancellation should fail at (a, h) = ({a}, {h})")
                cases += 1
    return CheckResult("classification/ah-cancellation", True,
                       f"{cases} even-family tables, a = 2..{max_a}")


def check_ci_link_identity(max_a: int = 8) -> CheckResult:
    """H_CI(a,a,h)(n) - H_CI(a,a,a)(2a+h-3-n) = H_CI(h-a,a,a)(n) throughout."""
    cases = 0
    for a in range(2, max_a + 1):
        for h in range(a + 1, 3 * a - 1):
            if not liaison.ci_link_identity(a, h):
                return CheckResult("liaison/ci-link-identity", False,
                                   f"fails at (a, h) = ({a}, {h})")
            cases += 1
    return CheckResult("liaison/ci-link-identity", True,
                       f"{cases} (a, h) pairs, a = 2..{max_a}")


def check_gaeta(max_a: int = 8) -> CheckResult:
    """Both delta builders pass the Gaeta conditions over their full ranges;
    the known good sequence passes and a constructed violator fails."""
    for a in range(2, max_a + 1):
        for h in range(a + 1, 2 * a):
            if not classify.gaeta_check(classify.delta_low(a, h)).ok:
                return CheckResult("gaeta/delta-builders", False,
                                   f"delta_low({a}, {h}) fails")
        for h in range(2 * a, 3 * a - 1):
            if not classify.gaeta_check(classify.delta_high(a, h)).ok:
                return CheckResult("gaeta/delta-builders", False,
                                   f"delta_high({a}, {h}) fails")
    if not classify.gaeta_check((2, 3, 3, 4, 4)).ok:
        return CheckResult("gaeta/delta-builders", False, "(2,3,3,4,4) should pass")
    if classify.gaeta_check((2, 2, 5, 5, 5, 5, 6)).ok:
        return CheckResult("gaeta/delta-builders", False, "(2,2,5,5,5,5,6) should fail")
    return CheckResult("gaeta/delta-builders", True, f"a = 2..{max_a}, both ranges")


def check_pfaffian_degrees(max_entry: int = 8, max_len: int = 7) -> CheckResult:
    """Each sub-pfaffian p_i of Alt(delta) is homogeneous of degree d_i, for
    every sorted delta with integral theta, length <= max_len, entries <=
    max_entry."""
    cases = 0
    for length in range(3, max_len + 1, 2):
        n = (length - 1) // 2
        for degs in combinations_with_replacement(range(1, max_entry + 1), length):
            if sum(degs) % n:
                continue
            m = pfaffians.alt_matrix(degs)
            for i, p in enumerate(pfaffians.sub_pfaffians(m)):
                if not p.is_zero and (not p.is_homogeneous() or p.degree() != degs[i]):
                    return CheckResult(
                        "pfaffian/sub-pfaffian-degrees", False,
                        f"deg p_{i + 1} != {degs[i]} for delta = {degs}")
            cases += 1
    return CheckResult("pfaffian/sub-pfaffian-degrees", True,
                       f"{cases} degree sequences, length <= {max_len}, entries <= {max_entry}")


def random_alternating(size: int, rng: random.Random, bound: int = 9):
    mat = [[0] * size for _ in range(size)]
    for i in range(size):
        for j in range(i + 1, size):
            v = rng.randint(-bound, bound)
            mat[i][j] = v
            mat[j][i] = -v
    return mat


def check_pf_squared(trials: int = 100) -> CheckResult:
    """Pf(M)^2 = det(M) on random integer alternating specializations of
    sizes 2, 4, 6 (det from the independent Bareiss routine)."""
    rng = random.Random(0)
    for size in (2, 4, 6):
        for _ in range(trials):
            mat = random_alternating(size, rng)
            if not pfaffians.pf_squared_equals_det(mat):
                return CheckResult("pfaffian/pf-squared-equals-det", False,
                                   f"failure at size {size}: {mat}")
    return CheckResult("pfaffian/pf-squared-equals-det", True,
                       f"{trials} trials per size in (2, 4, 6)")


def check_witness_degrees() -> CheckResult:
    """Both witness ideals for (a, h) = (3, 5) have generator degrees sorting
    to (3, 3, 3, 5), matching level 1 of their tables."""
    w = pfaffians.witness_ideals_a3_h5()
    if any(p.is_zero for p in w.iq + w.iw):
        return CheckResult("pfaffian/witness-ideals", False, "zero generator")
    if w.degrees_q() != (3, 3, 5, 3) or w.degrees_w() != (3, 3, 5, 3):
        return CheckResult("pfaffian/witness-ideals", False,
                           f"degrees {w.degrees_q()}, {w.degrees_w()}")
    if tuple(sorted(w.degrees_q())) != (3, 3, 3, 5):
        return CheckResult("pfaffian/witness-ideals", False, "sorted degrees differ")
    return CheckResult("pfaffian/witness-ideals", True,
                       "generator degrees (3, 3, 5, 3), sorting to (3, 3, 3, 5)")


def check_cas_scripts() -> CheckResult:
    """Exported scripts are nonempty, structurally parse-clean, and
    byte-stable across repeated generation."""
    monomial_payload = {
        "ideal": monomials.aci_construction((2, 2, 3), 4).to_json(),
    }
    for kind, payload in (
        ("pfaffian-q", {}),
        ("pfaffian-w", {}),
        ("monomial", monomial_payload),
    ):
        first = cas.export_cas(kind, payload)
        second = cas.export_cas(kind, payload)
        if first != second:
            return CheckResult("cas/scripts", False, f"{kind}: not byte-stable")
        if not first.strip() or not cas.script_is_balanced(first):
            return CheckResult("cas/scripts", False, f"{kind}: unbalanced script")
        if "betti res" not in first:
            return CheckResult("cas/scripts", False, f"{kind}: missing betti computation")
    return CheckResult("cas/scripts", True, "3 kinds, byte-stable and balanced")


def verify_suite(scope: str = "all", max_degree: int = 5, max_a: int = 6) -> Report:
    """Run the named scope (or all scopes) and collect per-check results."""
    if scope != "all" and scope not in SCOPES:
        raise DomainError("input-error",
                          f"unknown scope {scope!r}; choose from {('all',) + SCOPES}")
    plan = {
        "monomial": [
            lambda: check_aci_hilbert(max_degree),
            lambda: check_colon_link(max_degree),
        ],
        "betti": [
            lambda: check_rigid_resolution(min(max_a, 5)),
        ],
        "classification": [
            lambda: check_classification_coherence(max_a),
            lambda: check_t_max(max(max_a, 8)),
            lambda: check_ah_cancellation(max_a),
        ],
        "liaison": [
            lambda: check_ci_link_identity(max(max_a, 8)),
        ],
        "gaeta": [
            lambda: check_gaeta(max(max_a, 8)),
        ],
        "pfaffian": [
            check_pfaffian_degrees,
            check_pf_squared,
            check_witness_degrees,
        ],
        "cas": [
            check_cas_scripts,
        ],
    }
    scopes = SCOPES if scope == "all" else (scope,)
    checks = []
    for s in scopes:
        for fn in plan[s]:
            checks.append(fn())
    return Report(scope, tuple(checks))
