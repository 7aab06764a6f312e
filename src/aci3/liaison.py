"""Linkage arithmetic: Hilbert-function duality in a complete intersection
and mapping-cone twist bookkeeping in three variables.

If I_Z is a complete intersection contained in I_Q and I_G = I_Z : I_Q, the
Hilbert functions satisfy H_G(n) = H_Z(n) - H_Q(e - n) where e is the socle
degree of R/I_Z, i.e. e = theta - r with theta the sum of the degrees of Z.
The transform is an involution wherever it is defined.  ``link_hilbert`` is
its one implementation; ``ci_link_identity`` checks it on the complete
intersections CI(a,a,a) inside CI(a,a,h), whose link is CI(h-a,a,a).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from .errors import DomainError, as_ints
from .hilbert import (
    BettiTable,
    DegreesLike,
    HilbertFunction,
    as_degrees,
    ci_hilbert,
    hilbert_from_betti,
    koszul_table,
    socle_degree,
)


@dataclass(frozen=True)
class LinkDatum:
    """Numerical frame of a link inside the complete intersection of type z."""

    z: tuple[int, ...]
    theta: int  # duality shift: sum of the degrees of z
    e: int      # socle degree of R/I_Z: theta - len(z)

    @classmethod
    def of(cls, z: DegreesLike) -> "LinkDatum":
        degs = as_degrees(z)
        if not degs:
            raise DomainError("input-error", "empty complete intersection type")
        return cls(degs, sum(degs), sum(degs) - len(degs))


def link_hilbert(z: DegreesLike, h_q: HilbertFunction, strict: bool = True) -> HilbertFunction:
    """Hilbert function of the ideal linked to Q inside the CI of type z.

    H_G(n) = H_Z(n) - H_Q(e - n).  Raises if any value comes out negative or
    if H_Q has support beyond the socle of Z (Q cannot contain Z).  In strict
    mode (default) the all-zero result, i.e. Q = Z linked to the unit ideal,
    is also rejected; with strict=False it is returned as the zero function.
    """
    datum = LinkDatum.of(z)
    h_z = ci_hilbert(datum.z)
    e = datum.e
    if not h_q.is_zero and socle_degree(h_q) > e:
        raise DomainError(
            "not-linked",
            f"H_Q has support in degree {socle_degree(h_q)} > {e}: not linked in this CI",
        )
    vals = [h_z.at(n) - h_q.at(e - n) for n in range(e + 1)]
    if any(v < 0 for v in vals):
        raise DomainError("not-linked", "negative value: not linked in this CI")
    if strict and not any(vals):
        raise DomainError("not-linked", "linked ideal is the unit ideal (Q = Z)")
    return HilbertFunction(tuple(vals))


def ci_link_identity(a: int, h: int) -> bool:
    """Check that ``link_hilbert`` takes H_CI(a,a,a) inside CI(a,a,h) to
    H_CI(h-a,a,a); a not-linked answer counts as a failure."""
    from . import classify      # here, so the liaison routes do not load it
    as_ints((a,), "a", 2)
    classify.check_h_window(a, h)
    try:
        h_g = link_hilbert((a, a, h), ci_hilbert((a, a, a)))
    except DomainError as exc:
        if exc.code != "not-linked":
            raise
        return False
    return h_g == ci_hilbert(tuple(sorted((h - a, a, a))))


@dataclass(frozen=True)
class MappingCone:
    """The mapping cone over the CI Z of the dual of Q's resolution, which
    resolves the link (Peskine-Szpiro), and the link's Hilbert function.
    Level j is K_j(Z) plus ``dual[j]``, theta - s for each s at level 4 - j
    of Q's table; K_3 = (theta) cancels the dual part's level-4 unit."""

    koszul: BettiTable
    dual: tuple[tuple[int, ...], ...]
    hg: HilbertFunction

    @property
    def table(self) -> BettiTable:
        kept = self.koszul.levels[:3] + ((),)      # K_3 cancelled
        return BettiTable(3, tuple(k + d for k, d in zip(kept, self.dual)))

    @property
    def candidates(self) -> tuple[tuple[int, int], ...]:   # (level, twist), a multiset
        """The (j, t) where the cone may fail to be minimal, each as often as
        it can cancel, when Q's table is its minimal (graded Betti) table.
        Both parts' own differentials are then minimal, and the comparison
        map runs from the dual part at level j + 1 into K_j(Z), so a pair is
        a K_j twist t and an equal dual twist at level j + 1, at the lower
        multiplicity.  A (0, 0) pair flags a unit generator (Q = Z)."""
        k, d = self.koszul.levels, self.dual
        return tuple((j, t) for j in range(3)   # & keeps the sorted order of K_j
                     for t in (Counter(k[j]) & Counter(d[j + 1])).elements())

    def to_json(self) -> dict:
        return {
            "table": self.table.to_json(),
            "candidates": [list(c) for c in self.candidates],
            "hg": self.hg.to_json(),
        }


def mapping_cone_twists(b_q: BettiTable, z: DegreesLike) -> MappingCone:
    """The mapping cone over the CI of type z, c = 3, of the dual of Q's
    resolution, validated against the Hilbert-function link."""
    datum = LinkDatum.of(z)
    if len(datum.z) != 3:
        raise DomainError("input-error", "mapping-cone recipe is fixed to three variables")
    if b_q.c != 3:
        raise DomainError("input-error", f"need a table with c = 3, got c = {b_q.c}")
    dual = ((),) + tuple(tuple(sorted(datum.theta - s for s in b_q.levels[4 - j]))
                         for j in (1, 2, 3))
    if any(v < 0 for level in dual for v in level):
        raise DomainError("inconsistent-link-data", "negative twist in mapping cone")
    cone = MappingCone(koszul_table(datum.z), dual,
                       link_hilbert(datum.z, hilbert_from_betti(b_q), strict=False))
    if hilbert_from_betti(cone.table) != cone.hg:
        raise DomainError("inconsistent-link-data", "inconsistent link data")
    return cone
