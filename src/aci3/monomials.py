"""Exact monomial-ideal arithmetic in a small number of variables.

Monomials are plain exponent tuples of length c.  Ideals keep a
divisibility-minimal generating set, canonically sorted, so equality is
structural.  Variables print as x, y, z, w for c <= 4 and x1, x2, ... above.

The headline construction is ``aci_construction``: the monomial almost
complete intersection whose Hilbert function equals that of the complete
intersection with the same degrees, for any extra-generator degree h in the
admissible window.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate, product
from math import prod
from operator import le

from .errors import DomainError
from .hilbert import DegreesLike, HilbertFunction, as_degrees

Monomial = tuple[int, ...]

_SHORT_NAMES = ("x", "y", "z", "w")

# standard_monomials: the size of the exponent box below the pure powers,
# checked before it is walked (code too-large)
MAX_STANDARD_BOX = 10_000


def var_names(c: int) -> tuple[str, ...]:
    if c <= 4:
        return _SHORT_NAMES[:c]
    return tuple(f"x{i + 1}" for i in range(c))


def divides(d: Monomial, m: Monomial) -> bool:
    return all(map(le, d, m))


def m_gcd(a: Monomial, b: Monomial) -> Monomial:
    return tuple(min(x, y) for x, y in zip(a, b))


def m_lcm(a: Monomial, b: Monomial) -> Monomial:
    return tuple(max(x, y) for x, y in zip(a, b))


def m_div(a: Monomial, b: Monomial) -> Monomial:
    """Componentwise quotient a / b; b must divide a."""
    out = tuple(x - y for x, y in zip(a, b))
    if any(e < 0 for e in out):
        raise DomainError("input-error", f"{b} does not divide {a}")
    return out


def format_monomial(m: Monomial, names=None, sep: str = "") -> str:
    """The factors name^e (bare name for e = 1) of a monomial, joined by sep;
    "1" for the unit.  Names default to ``var_names(len(m))``."""
    if names is None:
        names = var_names(len(m))
    parts = [name if e == 1 else f"{name}^{e}" for name, e in zip(names, m) if e]
    return sep.join(parts) or "1"


def _canonical_gens(gens) -> tuple[Monomial, ...]:
    # ascending degree, then descending lex, mirroring the usual x > y > z display
    return tuple(sorted(set(gens), key=lambda m: (sum(m), tuple(-e for e in m))))


@dataclass(frozen=True)
class MonomialIdeal:
    """Monomial ideal given by its minimal (antichain) generating set."""

    c: int
    gens: tuple[Monomial, ...]

    def __post_init__(self):
        if self.c < 1:
            raise DomainError("input-error", f"need c >= 1, got c = {self.c}")
        gens = []
        for g in self.gens:
            g = tuple(int(e) for e in g)
            if len(g) != self.c:
                raise DomainError("input-error", f"exponent vector {g} has length != {self.c}")
            if any(e < 0 for e in g):
                raise DomainError("input-error", f"negative exponent in {g}")
            gens.append(g)
        gens = _canonical_gens(gens)
        for g in gens:
            for other in gens:
                if other is not g and divides(other, g):
                    raise DomainError(
                        "input-error",
                        f"{format_monomial(other)} divides {format_monomial(g)}: "
                        "generators are not an antichain (use minimalize)",
                    )
        object.__setattr__(self, "gens", gens)

    @property
    def is_zero(self) -> bool:
        return not self.gens

    @property
    def is_unit(self) -> bool:
        return len(self.gens) == 1 and all(e == 0 for e in self.gens[0])

    def contains(self, m: Monomial) -> bool:
        return any(divides(g, m) for g in self.gens)

    def pretty(self) -> str:
        if self.is_zero:
            return "(0)"
        return ", ".join(format_monomial(g) for g in self.gens)

    def to_json(self) -> dict:
        return {"c": self.c, "gens": [list(g) for g in self.gens]}

    @classmethod
    def from_json(cls, data: dict) -> "MonomialIdeal":
        try:
            c = int(data["c"])
            return minimalize([tuple(g) for g in data["gens"]], c)
        except DomainError:
            raise
        except (KeyError, TypeError, ValueError) as exc:
            raise DomainError("input-error", f"malformed ideal: {exc}") from exc


def minimalize(gens, c: int) -> MonomialIdeal:
    """Divisibility-minimal subset of the given generators (same ideal)."""
    cleaned = []
    for g in gens:
        g = tuple(int(e) for e in g)
        if len(g) != c or any(e < 0 for e in g):
            raise DomainError("input-error", f"bad exponent vector {g} for c = {c}")
        cleaned.append(g)
    cleaned = sorted(set(cleaned), key=sum)
    minimal: list[Monomial] = []
    for g in cleaned:
        if not any(divides(m, g) for m in minimal):
            minimal.append(g)
    return MonomialIdeal(c, tuple(minimal))


def is_artinian(ideal: MonomialIdeal) -> bool:
    """True iff each variable has a pure-power generator."""
    try:
        _pure_power_bounds(ideal)
    except DomainError:
        return False
    return True


def _pure_power_bounds(ideal: MonomialIdeal) -> tuple[int, ...]:
    bounds = []
    for i in range(ideal.c):
        powers = [g[i] for g in ideal.gens
                  if all(e == 0 for k, e in enumerate(g) if k != i)]
        if not powers:
            raise DomainError(
                "infinite-hilbert-function",
                f"no pure power of {var_names(ideal.c)[i]}: ideal is not artinian",
            )
        bounds.append(min(powers))
    return tuple(bounds)


def _staircase(ideal: MonomialIdeal):
    """The top degree of the exponent box below the pure powers (requires
    artinian), and an iterator over its columns: (head, height) for each
    head (all exponents but the last) in the box, the monomials head + (e,)
    with e < height being exactly the standard ones.

    The height is the least last exponent of the generators whose head
    divides this one, so no monomial is tested against the generators.
    Boxes of more than ``MAX_STANDARD_BOX`` monomials are too-large,
    refused before any column is read.
    """
    bounds = _pure_power_bounds(ideal)
    box = prod(bounds)
    if box > MAX_STANDARD_BOX:
        raise DomainError("too-large", f"exponent box of {box} monomials too large "
                                       f"(more than {MAX_STANDARD_BOX})")
    columns = [(g[:-1], g[-1]) for g in ideal.gens]
    heads = product(*(range(b) for b in bounds[:-1]))
    return sum(b - 1 for b in bounds), (
        (head, min([last for gen_head, last in columns if divides(gen_head, head)]))
        for head in heads)


def standard_monomials(ideal: MonomialIdeal) -> list[list[Monomial]]:
    """Monomials outside the ideal, bucketed by degree (requires artinian),
    each bucket in ascending lexicographic order, read off the staircase
    column by column (``_staircase``)."""
    top, columns = _staircase(ideal)
    buckets: list[list[Monomial]] = [[] for _ in range(top + 1)]
    for head, height in columns:
        base = sum(head)
        for e in range(height):
            buckets[base + e].append(head + (e,))
    while buckets and not buckets[-1]:
        buckets.pop()
    return buckets


def hilbert_function(ideal: MonomialIdeal) -> HilbertFunction:
    """Hilbert function of the quotient by an artinian monomial ideal: a
    column of height h over a head of degree b adds one to the degrees b ..
    b + h - 1, summed as a difference array."""
    top, columns = _staircase(ideal)
    steps = [0] * (top + 2)
    for head, height in columns:
        base = sum(head)
        steps[base] += 1
        steps[base + height] -= 1
    values = list(accumulate(steps))
    while values and not values[-1]:
        values.pop()
    return HilbertFunction(tuple(values))


def intersect(a: MonomialIdeal, b: MonomialIdeal) -> MonomialIdeal:
    if a.c != b.c:
        raise DomainError("input-error", "variable counts differ")
    return minimalize([m_lcm(ga, gb) for ga in a.gens for gb in b.gens], a.c)


def _colon_monomial(ideal: MonomialIdeal, m: Monomial) -> MonomialIdeal:
    return minimalize([m_div(g, m_gcd(g, m)) for g in ideal.gens], ideal.c)


def colon(a: MonomialIdeal, b: MonomialIdeal) -> MonomialIdeal:
    """The colon ideal a : b, computed one generator of b at a time."""
    if a.c != b.c:
        raise DomainError("input-error", "variable counts differ")
    if b.is_zero:
        raise DomainError("colon-by-zero", "colon by zero ideal")
    result = None
    for m in b.gens:
        part = _colon_monomial(a, m)
        result = part if result is None else intersect(result, part)
    return result


def aci_construction(degrees: DegreesLike, h: int) -> MonomialIdeal:
    """Monomial almost complete intersection with the Hilbert function of
    the complete intersection CI(degrees).

    Generators: x_i^{a_i} for i < r, x_r^h, and the extra monomial
    x_1^{a_1 + a_r - h} x_2^{a_2 - a_1} ... x_{r-1}^{a_{r-1} - a_{r-2}}
    x_r^{h - a_{r-1}}, for a_r + 1 <= h <= a_r + a_1 - 1.
    """
    degs = as_degrees(degrees)
    r = len(degs)
    if r < 2:
        raise DomainError("input-error", f"need at least 2 degrees, got {r}")
    if any(a < 2 for a in degs):
        raise DomainError("input-error", f"all degrees must be >= 2, got {degs}")
    lo, hi = degs[-1] + 1, degs[-1] + degs[0] - 1
    if not lo <= h <= hi:
        raise DomainError("h-out-of-range", f"h outside ({lo} .. {hi}): got {h}")
    gens = []
    for i in range(r - 1):
        gens.append(tuple(degs[i] if k == i else 0 for k in range(r)))
    gens.append(tuple(h if k == r - 1 else 0 for k in range(r)))
    extra = [degs[0] + degs[-1] - h]
    extra.extend(degs[i] - degs[i - 1] for i in range(1, r - 1))
    extra.append(h - degs[-2])
    gens.append(tuple(extra))
    return MonomialIdeal(r, tuple(gens))


def rigid_witness(a: int) -> MonomialIdeal:
    """The ideal (x^a, y^(a+1), z^a, x^(a-1) y) in three variables.

    A monomial almost complete intersection with generator degrees
    (a, a, a, a+1) whose resolution admits no cancellation (t = 2).
    """
    if a < 2:
        raise DomainError("input-error", f"need a >= 2, got {a}")
    return MonomialIdeal(
        3,
        ((a, 0, 0), (0, a + 1, 0), (0, 0, a), (a - 1, 1, 0)),
    )


def ci_type(ideal: MonomialIdeal):
    """Sorted pure-power degrees if the ideal is a monomial complete
    intersection (one pure power per variable), else None."""
    if len(ideal.gens) != ideal.c:
        return None
    seen = {}
    for g in ideal.gens:
        support = [i for i, e in enumerate(g) if e > 0]
        if len(support) != 1:
            return None
        (i,) = support
        if i in seen:
            return None
        seen[i] = g[i]
    return tuple(sorted(seen.values()))
