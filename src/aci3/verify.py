"""Self-verification suite: every acceptance claim as a named, machine-
checkable test, runnable from the CLI (``aci3 verify``) or from pytest.

All checks are exact (tolerance zero); the checks are grouped into scopes so
desk-scale bounds (generator-degree caps, a caps) can be adjusted from the
command line, up to ``MAX_DEGREE`` and ``MAX_A``.

A check is declared once, by ``@_check("<scope>/<name>", bound)`` on its
body, which returns the detail line of a pass or raises ``_Failed(detail)``.
``verify_suite`` passes the check ``bound(max_degree, max_a)``, or nothing
when ``bound`` is None, and runs the checks in source order: ``_PLAN`` and
``SCOPES`` are read off the declarations.  The h windows are the library's.

A ``verify`` process runs one scope, so each check imports the kernel
modules it calls in its own body and calls them through the module, where a
tracer or a test stub can replace them.
"""

from __future__ import annotations

import functools
import random
from dataclasses import dataclass
from itertools import combinations_with_replacement
from typing import TYPE_CHECKING

from .errors import DomainError, as_ints
from .hilbert import ci_hilbert, hilbert_from_betti

if TYPE_CHECKING:
    from . import classify

# Bounds above these are too-large, and bounds below 2 an input-error, both
# refused before any check runs: at both caps ``--scope all`` takes about a
# second.
MAX_DEGREE = 12
MAX_A = 14
DEFAULT_MAX_DEGREE, DEFAULT_MAX_A = 5, 6     # verify_suite's, and a check's called bare
PFAFFIAN_MAX_LEN, PFAFFIAN_MAX_ENTRY = 7, 8  # the deltas check_pfaffian_degrees expands
PF_SQUARED_TRIALS = 100                      # random matrices per size in check_pf_squared


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
        return {"scope": self.scope, "passed": self.passed,
                "checks": [c.to_json() for c in self.checks]}


class _Failed(Exception):
    """Raised by a check body; its one argument is the failure detail."""


# Scope -> (check name in this module, bound rule) for each check, in run
# order.  verify_suite looks each check up by name when it runs, so a
# replaced module attribute (a tracer, a test stub) is what runs.
_PLAN: dict[str, list[tuple[str, object]]] = {}


def _check(name: str, bound=None):
    """Declare a check named ``name``: the only place a CheckResult is built,
    and the check's one entry in ``_PLAN`` (see the module docstring)."""
    def declare(body):
        @functools.wraps(body)
        def check(*args, **kwargs) -> CheckResult:
            if bound is not None and not (args or kwargs):
                args = (bound(DEFAULT_MAX_DEGREE, DEFAULT_MAX_A),)
            try:
                return CheckResult(name, True, body(*args, **kwargs))
            except _Failed as failure:
                return CheckResult(name, False, failure.args[0])
        _PLAN.setdefault(name.partition("/")[0], []).append((body.__name__, bound))
        return check
    return declare


@_check("monomial/aci-hilbert-equals-ci", lambda max_degree, max_a: max_degree)
def check_aci_hilbert(max_degree: int) -> CheckResult:
    """The monomial almost complete intersection has four minimal generators
    and the complete intersection's Hilbert function, for every degree
    triple and admissible h."""
    from . import monomials
    cases = 0
    for degs in combinations_with_replacement(range(2, max_degree + 1), 3):
        expected = ci_hilbert(degs)
        for h in monomials.construction_window(degs):
            ideal = monomials.aci_construction(degs, h)
            if len(ideal.gens) != len(degs) + 1:     # the CI has the same Hilbert function
                raise _Failed(f"{len(ideal.gens)} minimal generators at degrees {degs}, h = {h}")
            if monomials.hilbert_function(ideal) != expected:
                raise _Failed(f"mismatch at degrees {degs}, h = {h}")
            cases += 1
    return f"{cases} (degrees, h) cases, degrees <= {max_degree}"


@_check("monomial/colon-link-type", lambda max_degree, max_a: max_degree)
def check_colon_link(max_degree: int) -> CheckResult:
    """The colon of the pure-power complete intersection by the monomial ACI
    is a monomial complete intersection of type (h - a3, a1, a2), and the
    Hilbert-function link reproduces its Hilbert function."""
    from . import liaison, monomials
    cases = 0
    for degs in combinations_with_replacement(range(2, max_degree + 1), 3):
        a1, a2, a3 = degs
        for h in monomials.construction_window(degs):
            quotient = monomials.aci_construction(degs, h)
            ci = monomials.MonomialIdeal(3, ((a1, 0, 0), (0, a2, 0), (0, 0, h)))
            linked = monomials.colon(ci, quotient)
            got_type = monomials.ci_type(linked)
            want_type = tuple(sorted((h - a3, a1, a2)))
            if got_type != want_type:
                raise _Failed(f"type {got_type} != {want_type} at {degs}, h = {h}")
            via_link = liaison.link_hilbert(
                tuple(sorted((a1, a2, h))), monomials.hilbert_function(quotient))
            if via_link != monomials.hilbert_function(linked):
                raise _Failed(f"Hilbert mismatch at {degs}, h = {h}")
            cases += 1
    return f"{cases} (degrees, h) cases, degrees <= {max_degree}"


@_check("betti/rigid-resolution-oracle", lambda max_degree, max_a: min(max_a, 5))
def check_rigid_resolution(max_a: int) -> CheckResult:
    """The Koszul-homology oracle on (x^a, y^(a+1), z^a, x^(a-1)y) returns
    exactly the rigid h = a + 1 table, the maximal table of the even (a, a+1)
    family, for a = 2..max_a."""
    from . import classify, koszul, monomials
    for a in range(2, max_a + 1):
        expected = classify.maximal_table(classify.AciFamily(a, a + 1, classify.EVEN)).table
        ok, diffs = koszul.verify_resolution(monomials.rigid_witness(a), expected)
        if not ok:
            raise _Failed(f"a = {a}: {diffs}")
    return f"a = 2..{max_a}, exact twist multisets"


def _coherence_failure(a: int, h: int, node: classify.AciTable, expected) -> str | None:
    """The first law of check_classification_coherence that the node breaks."""
    from . import classify
    levels, even = node.table.levels, node.t % 2 == 0
    try:
        if hilbert_from_betti(node.table) != expected:
            return "Hilbert mismatch"
    except DomainError:     # a table of no artinian algebra
        return "Hilbert mismatch"
    m2, m3 = levels[2].count(a + h), levels[3].count(a + h)
    if even and (m2 != 1 or m3 != 1):
        return f"a+h multiplicity ({m2}, {m3}) != (1, 1)"
    # at h = 2a the forced level-3 twist 3a coincides with a+h
    if not even and (m2 != 0 or m3 != (1 if h == 2 * a else 0)):
        return "unexpected a+h syzygy"
    if h >= 2 * a and even:
        return "even t with h >= 2a"
    want_dstar = a if even else h
    if classify.d_star(a, h, node.t) != want_dstar:
        return f"d* != {want_dstar}"
    if levels[2].count(2 * a) < 3 or levels[3].count(3 * a) != 1:
        return "forced syzygies missing"
    # level 3 without its forced twists, each there once by the tests above
    g_part = [j for j in levels[3] if j not in (3 * a, a + h)]
    if sorted(3 * a + h - j for j in g_part) != g_part:
        return "self-duality fails"
    return None


@_check("classification/coherence", lambda max_degree, max_a: max_a)
def check_classification_coherence(max_a: int) -> CheckResult:
    """Every enumerated table reproduces H_CI(a,a,a); the self-dual part of
    level 3 is fixed under j -> 3a+h-j; a+h sits at level 2 iff t is even
    (multiplicity one at levels 2 and 3); h >= 2a forces odd t; and d* is a
    for even t, h for odd t."""
    from . import classify
    tables = 0
    for a in range(2, max_a + 1):
        expected = ci_hilbert((a, a, a))
        for h in classify.h_window(a).full:
            for node in classify.enumerate_tables(a, h).nodes:
                failure = _coherence_failure(a, h, node, expected)
                if failure is not None:
                    raise _Failed(f"{failure} at (a, h) = ({a}, {h}), "
                                  f"levels = {node.table.levels}")
                tables += 1
    return f"{tables} tables, a = 2..{max_a}, all admissible h"


@_check("classification/t-max", lambda max_degree, max_a: max(max_a, 8))
def check_t_max(max_a: int) -> CheckResult:
    """max t over the tables enumerated at h = 2a equals a+1 for even a and
    a for odd a; for even a this is also the maximum over every h."""
    from . import classify
    for a in range(2, max_a + 1):
        at_2a = max(node.t for node in classify.enumerate_tables(a, 2 * a).nodes)
        if at_2a != classify.t_max(a):
            raise _Failed(f"a = {a}: max t at h = 2a is {at_2a}, expected {classify.t_max(a)}")
        if a % 2 == 0:
            overall = max(node.t
                          for h in classify.h_window(a).full
                          for node in classify.enumerate_tables(a, h).nodes)
            if overall != classify.t_max(a):
                raise _Failed(f"a = {a}: global max t {overall} != {classify.t_max(a)}")
    return f"a = 2..{max_a}, attained at h = 2a"


@_check("classification/ah-cancellation", lambda max_degree, max_a: max_a)
def check_ah_cancellation(max_a: int) -> CheckResult:
    """cancel_ah succeeds on an even-family table iff t >= 4, and its output
    is the odd-family table obtained by the same couple cancellations."""
    from . import classify
    cases = 0
    for a in range(2, max_a + 1):
        for h in classify.h_window(a).low:
            poset = classify.enumerate_tables(a, h)
            odd_levels = {node.table.levels for node in poset.nodes
                          if node.parity == classify.ODD}
            for node in [node for node in poset.nodes if node.parity == classify.EVEN]:
                if node.t >= 4:
                    got = classify.cancel_ah(node)
                    if got.t != node.t - 1 or got.table.levels not in odd_levels:
                        raise _Failed(f"bad cancellation at (a, h) = ({a}, {h}), t = {node.t}")
                else:
                    try:
                        classify.cancel_ah(node)
                    except DomainError:
                        pass
                    else:
                        raise _Failed(
                            f"t = {node.t} cancellation should fail at (a, h) = ({a}, {h})")
                cases += 1
    return f"{cases} even-family tables, a = 2..{max_a}"


@_check("liaison/ci-link-identity", lambda max_degree, max_a: max(max_a, 8))
def check_ci_link_identity(max_a: int) -> CheckResult:
    """H_CI(a,a,h)(n) - H_CI(a,a,a)(2a+h-3-n) = H_CI(h-a,a,a)(n) throughout."""
    from . import classify, liaison
    cases = 0
    for a in range(2, max_a + 1):
        for h in classify.h_window(a).full:
            if not liaison.ci_link_identity(a, h):
                raise _Failed(f"fails at (a, h) = ({a}, {h})")
            cases += 1
    return f"{cases} (a, h) pairs, a = 2..{max_a}"


@_check("gaeta/delta-builders", lambda max_degree, max_a: max(max_a, 8))
def check_gaeta(max_a: int) -> CheckResult:
    """Both delta builders pass the Gaeta conditions over their full ranges;
    the known good sequence passes and a constructed violator fails."""
    from . import classify
    for a in range(2, max_a + 1):
        window = classify.h_window(a)
        for h in window.low:
            if not classify.gaeta_check(classify.delta_low(a, h)).ok:
                raise _Failed(f"delta_low({a}, {h}) fails")
        for h in window.high:
            if not classify.gaeta_check(classify.delta_high(a, h)).ok:
                raise _Failed(f"delta_high({a}, {h}) fails")
    if not classify.gaeta_check((2, 3, 3, 4, 4)).ok:
        raise _Failed("(2,3,3,4,4) should pass")
    if classify.gaeta_check((2, 2, 5, 5, 5, 5, 6)).ok:
        raise _Failed("(2,2,5,5,5,5,6) should fail")
    return f"a = 2..{max_a}, both ranges"


@_check("pfaffian/sub-pfaffian-degrees")
def check_pfaffian_degrees() -> CheckResult:
    """Each sub-pfaffian p_i of Alt(delta) is homogeneous of degree d_i, for
    every sorted delta with integral theta, length <= ``PFAFFIAN_MAX_LEN``,
    entries <= ``PFAFFIAN_MAX_ENTRY``.  On the first matrix of each support graph the p_i equal the
    cross-check ``pfaffian_last_row``, a signed sum over perfect matchings.
    Each entry of Alt(delta) is a power of its own variable, so p_i has one
    term, with coefficient +-1, per perfect matching of the support graph
    without i: the term counts of that first matrix hold for every matrix
    of the graph."""
    from . import pfaffians
    cases = terms = 0
    units = {1, -1}
    term_counts = {}    # support graph -> the number of terms of each p_i
    for length in range(3, PFAFFIAN_MAX_LEN + 1, 2):
        n = (length - 1) // 2
        full = tuple(range(1, length + 1))
        for degs in combinations_with_replacement(range(1, PFAFFIAN_MAX_ENTRY + 1), length):
            if sum(degs) % n:
                continue
            m = pfaffians.alt_matrix(degs)
            subs = pfaffians.sub_pfaffians(m)
            graph = (m.size, tuple(m.upper))
            if graph not in term_counts:
                expected = [pfaffians.pfaffian_last_row(m, full[:i] + full[i + 1:])
                            for i in range(length)]
                if subs != expected:
                    raise _Failed(f"p_i differ from pfaffian_last_row for delta = {degs}")
                term_counts[graph] = [len(p.packed) for p in expected]
            counts = term_counts[graph]
            for i, p in enumerate(subs):
                if not p.is_homogeneous(degs[i]):
                    raise _Failed(f"deg p_{i + 1} != {degs[i]} for delta = {degs}")
                if len(p.packed) != counts[i] or not units.issuperset(p.packed.values()):
                    raise _Failed(f"p_{i + 1} is not {counts[i]} terms +-1 for delta = {degs}")
            terms += sum(counts)
            cases += 1
    return (f"{cases} degree sequences, length <= {PFAFFIAN_MAX_LEN}, "
            f"entries <= {PFAFFIAN_MAX_ENTRY}, "
            f"{terms} terms, one per perfect matching")


def random_alternating(size: int, rng: random.Random):
    """An integer alternating matrix with entries in -9..9 above the diagonal."""
    mat = [[0] * size for _ in range(size)]
    for i in range(size):
        for j in range(i + 1, size):
            v = rng.randint(-9, 9)
            mat[i][j] = v
            mat[j][i] = -v
    return mat


@_check("pfaffian/pf-squared-equals-det")
def check_pf_squared() -> CheckResult:
    """Pf(M)^2 = det(M) on random integer alternating specializations of
    sizes 2, 4, 6 (det from the independent Bareiss routine)."""
    from . import pfaffians
    rng = random.Random(0)
    for size in (2, 4, 6):
        for _ in range(PF_SQUARED_TRIALS):
            mat = random_alternating(size, rng)
            if not pfaffians.pf_squared_equals_det(mat):
                raise _Failed(f"failure at size {size}: {mat}")
    return f"{PF_SQUARED_TRIALS} trials per size in (2, 4, 6)"


@_check("pfaffian/witness-ideals")
def check_witness_degrees() -> CheckResult:
    """Both witness ideals for (a, h) = (3, 5) have generator degrees sorting
    to level 1 of their tables: I_Q that of the maximal even-family table,
    I_W that of the same table with the a+h pair cancelled."""
    from . import classify, pfaffians
    top = classify.maximal_table(classify.AciFamily(3, 5, classify.EVEN))
    w = pfaffians.witness_ideals_a3_h5()
    if any(p.is_zero for p in w.iq + w.iw):
        raise _Failed("zero generator")
    if w.degrees_q() != (3, 3, 5, 3) or w.degrees_w() != (3, 3, 5, 3):
        raise _Failed(f"degrees {w.degrees_q()}, {w.degrees_w()}")
    for degrees, tbl in ((w.degrees_q(), top), (w.degrees_w(), classify.cancel_ah(top))):
        if tuple(sorted(degrees)) != tbl.table.levels[1]:
            raise _Failed(f"sorted degrees differ from level 1 {tbl.table.levels[1]}")
    return f"generator degrees (3, 3, 5, 3), sorting to {top.table.levels[1]}"


@_check("cas/scripts")
def check_cas_scripts() -> CheckResult:
    """Exported scripts are nonempty, structurally parse-clean, and
    byte-stable across repeated generation."""
    from . import cas, monomials
    ideal = monomials.aci_construction((2, 2, 3), 4)
    for kind in cas.EXPORT_KINDS:
        first = cas.export_cas(kind, ideal)
        second = cas.export_cas(kind, ideal)
        if first != second:
            raise _Failed(f"{kind}: not byte-stable")
        if not first.strip() or not cas.script_is_balanced(first):
            raise _Failed(f"{kind}: unbalanced script")
        if "betti res" not in first:
            raise _Failed(f"{kind}: missing betti computation")
    return "3 kinds, byte-stable and balanced"


def verify_suite(scope: str = "all", max_degree: int = DEFAULT_MAX_DEGREE,
                 max_a: int = DEFAULT_MAX_A) -> Report:
    """Run the named scope (or all scopes) and collect per-check results."""
    if scope != "all" and scope not in SCOPES:
        raise DomainError("input-error",
                          f"unknown scope {scope!r}; choose from {('all',) + SCOPES}")
    # every check starts at degree 2 or a = 2: below that it would pass on no case
    as_ints((max_degree,), "max_degree", 2)
    as_ints((max_a,), "max_a", 2)
    if max_degree > MAX_DEGREE:
        raise DomainError("too-large", f"max_degree {max_degree} exceeds {MAX_DEGREE}")
    if max_a > MAX_A:
        raise DomainError("too-large", f"max_a {max_a} exceeds {MAX_A}")
    scopes = SCOPES if scope == "all" else (scope,)
    checks = []
    for name, bound in (run for s in scopes for run in _PLAN[s]):
        check = globals()[name]
        checks.append(check() if bound is None else check(bound(max_degree, max_a)))
    return Report(scope, tuple(checks))


SCOPES = tuple(_PLAN)
