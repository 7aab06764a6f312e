"""Exact arithmetic on Hilbert functions of graded artinian algebras.

A Hilbert function is stored densely from degree 0 with trailing zeros
trimmed; everything is arbitrary-precision integer arithmetic, no floating
point anywhere.  The empty value tuple represents the zero function (the
quotient by the unit ideal), which shows up as a degenerate liaison result.

Betti tables are recorded as one sorted multiset of twists per homological
level: a summand R(-j) contributes the integer j at its level.  Level 0 is
always the single twist 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate, chain, combinations
from math import comb
from typing import Sequence

from .errors import DomainError, as_ints, as_tuple

# Size caps checked before any work (code too-large); the largest accepted
# call of each function takes well under a second.
MAX_CI_DEGREE_SUM = 2000            # ci_hilbert: the sum of the degrees
# hilbert_from_betti: (top twist + c + 1) x (levels + twists) binomial terms;
# the running sums that evaluate them take fewer steps, c x (top twist + c + 1)
MAX_BETTI_SUM_TERMS = 100_000
MAX_DIFFERENCE_WORK = 1_000_000     # difference: order x output length
MAX_BOUND_DEGREE_SUM = 2000         # min_generator_bound: c + the top degree (j or of h)


def _monomial_count(degree: int, c: int) -> int:
    """Number of monomials of the given degree in c variables (0 if degree < 0)."""
    if degree < 0:
        return 0
    return comb(degree + c - 1, c - 1)


@dataclass(frozen=True)
class HilbertFunction:
    """Finitely supported sequence H(0), H(1), ... with H(0) = 1 unless zero."""

    values: tuple[int, ...]

    def __post_init__(self):
        vals = as_ints(self.values, "Hilbert function values")
        if vals and min(vals) < 0:
            raise DomainError("not-hilbert-function", f"negative value in {vals}")
        end = len(vals)
        while end and not vals[end - 1]:
            end -= 1
        vals = vals[:end]
        if vals and vals[0] != 1:
            raise DomainError("not-hilbert-function", f"H(0) = {vals[0]} != 1")
        object.__setattr__(self, "values", vals)

    def at(self, n: int) -> int:
        if 0 <= n < len(self.values):
            return self.values[n]
        return 0

    @property
    def is_zero(self) -> bool:
        return not self.values

    def total(self) -> int:
        """Length of the algebra (sum of all values)."""
        return sum(self.values)

    def to_json(self) -> list[int]:
        return list(self.values)

    def __str__(self) -> str:
        return "(" + ", ".join(str(v) for v in self.values) + ")"


DegreesLike = Sequence[int]


def as_degrees(degrees: DegreesLike) -> tuple[int, ...]:
    """Sorted generator degrees a_1 <= ... <= a_r, each >= 1, as a tuple of int."""
    degs = as_ints(degrees, "degrees", 1)
    if list(degs) != sorted(degs):
        raise DomainError("input-error", f"degrees must be sorted ascending, got {degs}")
    return degs


def as_delta(degrees: DegreesLike) -> tuple[int, ...]:
    """A Gorenstein degree sequence d_1 <= ... <= d_{2n+1}: odd length >= 3,
    checked first, then the degree-sequence rule of ``as_degrees``."""
    degs = as_tuple(degrees, "degrees")
    if len(degs) % 2 == 0 or len(degs) < 3:
        raise DomainError("input-error", f"length must be odd and >= 3, got {len(degs)}")
    return as_degrees(degs)


def theta_of(delta: tuple[int, ...]) -> int | None:
    """theta = (sum d_i) / n of a degree sequence of length 2n + 1, or None
    when n does not divide the sum."""
    n, total = len(delta) // 2, sum(delta)
    return None if total % n else total // n


@dataclass(frozen=True)
class BettiTable:
    """Twist multisets by homological level for an algebra in c variables.

    ``levels[i]`` is the sorted multiset of twists j of the summands R(-j) in
    homological position i; ``levels[0] == (0,)``.  Minimality of the
    resolution is *not* enforced (mapping cones are legitimately non-minimal);
    use :meth:`is_minimal` to test it.
    """

    c: int
    levels: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        as_ints((self.c,), "c", 1)
        levels = [as_tuple(level, "twists") for level in as_tuple(self.levels, "levels")]
        as_ints(chain.from_iterable(levels), "twists", 0)
        lvls = tuple(tuple(sorted(level)) for level in levels)
        if len(lvls) != self.c + 1:
            raise DomainError(
                "input-error",
                f"expected {self.c + 1} levels for c = {self.c}, got {len(lvls)}",
            )
        if lvls[0] != (0,):
            raise DomainError("input-error", f"level 0 must be (0,), got {lvls[0]}")
        object.__setattr__(self, "levels", lvls)

    @property
    def t(self) -> int:
        """Rank of the last free module (number of last syzygies)."""
        return len(self.levels[self.c])

    def is_minimal(self) -> bool:
        """Every twist at level i+1 strictly exceeds the minimum at level i."""
        for i in range(self.c):
            if not self.levels[i] or not self.levels[i + 1]:
                continue
            lo = min(self.levels[i])
            if any(j <= lo for j in self.levels[i + 1]):
                return False
        return True

    def max_twist(self) -> int:
        return max((j for level in self.levels for j in level), default=0)

    def to_json(self) -> dict:
        return {"c": self.c, "levels": [list(level) for level in self.levels]}

    @classmethod
    def from_json(cls, data: dict) -> "BettiTable":
        try:
            return cls(data["c"], data["levels"])
        except DomainError:
            raise
        except (KeyError, TypeError, ValueError) as exc:
            raise DomainError("input-error", f"malformed Betti table: {exc}") from exc


def ci_hilbert(degrees: DegreesLike) -> HilbertFunction:
    """Hilbert function of a complete intersection with the given degrees.

    Coefficients of prod_i (1 + t + ... + t^(a_i - 1)); the empty tuple gives
    the sequence (1).  Degree sums above ``MAX_CI_DEGREE_SUM`` are too-large.
    """
    degs = as_degrees(degrees)
    if sum(degs) > MAX_CI_DEGREE_SUM:
        raise DomainError("too-large", f"degree sum {sum(degs)} exceeds {MAX_CI_DEGREE_SUM}")
    coeffs = [1]
    for a in degs:
        out = [0] * (len(coeffs) + a - 1)
        for i, ci in enumerate(coeffs):
            for k in range(a):
                out[i + k] += ci
        coeffs = out
    return HilbertFunction(tuple(coeffs))


def koszul_table(degrees: DegreesLike) -> BettiTable:
    """Betti table of the Koszul resolution of a complete intersection.

    Level i holds the sums of the i-element subsets of the degrees; the
    ambient variable count equals the number of degrees.
    """
    degs = as_degrees(degrees)
    c = len(degs)
    if c < 1:
        raise DomainError("input-error", "need at least one degree")
    levels = tuple(
        tuple(sorted(sum(sub) for sub in combinations(degs, i))) for i in range(c + 1)
    )
    return BettiTable(c, levels)


def difference(h: HilbertFunction, k: int = 1) -> tuple[int, ...]:
    """k-fold first difference of h, over the full range where it can be nonzero.

    Delta H(n) = H(n) - H(n-1) with H zero outside its support; the result has
    length len(h.values) + k and may be negative.  Orders whose work k times
    that length exceeds ``MAX_DIFFERENCE_WORK`` are too-large.
    """
    as_ints((k,), "difference order", 0)
    if k * (len(h.values) + k) > MAX_DIFFERENCE_WORK:
        raise DomainError("too-large", f"order {k} on {len(h.values)} values: too many steps")
    vals = list(h.values)
    for _ in range(k):
        vals = [cur - prev for cur, prev in zip(vals + [0], [0] + vals)]
    return tuple(vals)


def socle_degree(h: HilbertFunction) -> int:
    """Largest degree with H(n) > 0."""
    if h.is_zero:
        raise DomainError("empty-algebra", "socle degree of the zero algebra is undefined")
    return len(h.values) - 1


def betti_alternating_sum(b: BettiTable, upto: int) -> tuple[int, ...]:
    """Values sum_i (-1)^i sum_j C(n-j+c-1, c-1) for n = 0..upto (no checks).

    Each twist j puts (-1)^i at degree j, and c running sums then spread it
    as 1/(1-t)^c = sum_n C(n+c-1, c-1) t^n does: c x (upto + 1) additions.
    """
    vals = [0] * (upto + 1)
    for i, level in enumerate(b.levels):
        sign = -1 if i % 2 else 1
        for j in level:
            if j <= upto:
                vals[j] += sign
    for _ in range(b.c):
        vals = list(accumulate(vals))
    return tuple(vals)


def hilbert_from_betti(b: BettiTable) -> HilbertFunction:
    """Hilbert function determined by a Betti table (alternating binomial sum).

    Each summand R(-j) at level i contributes (-1)^i times the count of
    monomials of degree n - j in c variables.  Raises if a value is negative
    or if the support is not finite, and too-large if the sum has more than
    ``MAX_BETTI_SUM_TERMS`` terms.
    """
    m = b.max_twist()
    terms = (m + b.c + 1) * (b.c + 1 + sum(len(level) for level in b.levels))
    if terms > MAX_BETTI_SUM_TERMS:
        raise DomainError("too-large", f"{terms} alternating-sum terms > {MAX_BETTI_SUM_TERMS}")
    vals = betti_alternating_sum(b, m + b.c)
    if any(v < 0 for v in vals):
        raise DomainError("not-hilbert-function", "table not a Hilbert function")
    if any(vals[n] != 0 for n in range(m + 1, m + b.c + 1)):
        # a degree-(c-1) polynomial vanishing at c consecutive points is zero,
        # so nonzero values past the top twist certify infinite support
        raise DomainError("non-artinian", "table has non-finitely-supported Hilbert function")
    return HilbertFunction(vals[: m + 1])


def recognize_ci(h: HilbertFunction) -> tuple[int, ...] | None:
    """Degrees of a complete intersection with Hilbert function h, if any.

    The number of factors is fixed at r = H(1), and the answer is unique:
    (1-t)^r H(t) = prod_i (1 - t^(a_i)), whose lowest term past the constant
    is -m t^a for the smallest degree a and its multiplicity m.  So the loop
    reads off a, divides by 1 - t^a and repeats r times.  All degrees found
    are >= 2, since the t^1 coefficient H(1) - r is 0.  The work is bounded
    by ``difference``'s cap.
    """
    if h.is_zero:
        return None
    r = h.at(1)
    if r > socle_degree(h):
        return None  # r factors of degree >= 2 need socle degree >= r
    poly = list(difference(h, r))
    found = []
    while len(found) < r:
        a = next((n for n in range(1, len(poly)) if poly[n]), None)
        if a is None or poly[a] > 0:
            return None
        for n in range(a, len(poly)):
            poly[n] += poly[n - a]
        if any(poly[-a:]):
            return None
        del poly[-a:]
        found.append(a)
    return tuple(found) if poly == [1] else None


def min_generator_bound(h: HilbertFunction, c: int, j: int) -> int:
    """Lower bound for the number of degree-j minimal generators of any ideal
    whose quotient has Hilbert function h in c variables.

    Uses dim I_j - c * dim I_{j-1} clipped at 0, where dim I_n is the
    codimension of H(n) inside the full polynomial ring degree n.  Calls
    where c plus the top degree (j, or the last degree of h) exceeds
    ``MAX_BOUND_DEGREE_SUM`` are too-large: each dim R_n is a binomial
    coefficient of that size, and h needs one per degree.
    """
    as_ints((c,), "c", 1)
    as_ints((j,), "degree", 0)
    size = c + max(j, len(h.values) - 1)
    if size > MAX_BOUND_DEGREE_SUM:
        raise DomainError("too-large", f"c + top degree = {size} exceeds {MAX_BOUND_DEGREE_SUM}")
    for n in range(len(h.values)):
        if h.at(n) > _monomial_count(n, c):
            raise DomainError(
                "not-hilbert-function",
                f"H({n}) = {h.at(n)} exceeds dim R_{n} = {_monomial_count(n, c)}: "
                f"not a Hilbert function for {c} variables",
            )

    def dim_ideal(n: int) -> int:   # both counts are 0 below degree 0
        return _monomial_count(n, c) - h.at(n)

    return max(0, dim_ideal(j) - c * dim_ideal(j - 1))
