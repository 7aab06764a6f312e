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

from dataclasses import dataclass

from .errors import DomainError, as_ints
from .hilbert import (
    BettiTable,
    DegreesLike,
    HilbertFunction,
    as_degrees,
    ci_hilbert,
    hilbert_from_betti,
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
    """Mapping-cone twist table for the linked ideal, the consecutive
    equal-twist positions where it may fail to be minimal, and the Hilbert
    function of the link."""

    table: BettiTable
    candidates: tuple[tuple[int, int], ...]  # (level, twist), multiset
    hg: HilbertFunction

    def to_json(self) -> dict:
        return {
            "table": self.table.to_json(),
            "candidates": [list(c) for c in self.candidates],
            "hg": self.hg.to_json(),
        }


def _cancellation_candidates(table: BettiTable) -> tuple[tuple[int, int], ...]:
    out = []
    for i in range(table.c):
        upper = list(table.levels[i + 1])
        for j in table.levels[i]:
            if j in upper:
                upper.remove(j)
                out.append((i, j))
    return tuple(out)


def mapping_cone_twists(b_q: BettiTable, z: DegreesLike) -> MappingCone:
    """Twists of the (possibly non-minimal) resolution of the linked ideal
    obtained from the mapping cone over the CI of type z, c = 3.

    With theta the sum of z: level 1 is {theta - s : s in level 3 of Q}
    together with the degrees of z; level 2 is {theta - s : s in level 2 of Q}
    together with {theta - z_k}; level 3 is {theta - s : s in level 1 of Q}.
    The dangling theta twist at level 3 and the level-4 unit are already
    cancelled against each other.  The result is validated against the
    Hilbert-function link.
    """
    datum = LinkDatum.of(z)
    if len(datum.z) != 3:
        raise DomainError("input-error", "mapping-cone recipe is fixed to three variables")
    if b_q.c != 3:
        raise DomainError("input-error", f"need a table with c = 3, got c = {b_q.c}")
    theta = datum.theta
    lvl1 = [theta - s for s in b_q.levels[3]] + list(datum.z)
    lvl2 = [theta - s for s in b_q.levels[2]] + [theta - zi for zi in datum.z]
    lvl3 = [theta - s for s in b_q.levels[1]]
    if any(v < 0 for v in lvl1 + lvl2 + lvl3):
        raise DomainError("inconsistent-link-data", "negative twist in mapping cone")
    table = BettiTable(3, ((0,), tuple(lvl1), tuple(lvl2), tuple(lvl3)))
    h_q = hilbert_from_betti(b_q)
    h_g = link_hilbert(datum.z, h_q, strict=False)
    h_cone = hilbert_from_betti(table)
    if h_cone != h_g:
        raise DomainError("inconsistent-link-data", "inconsistent link data")
    return MappingCone(table, _cancellation_candidates(table), h_g)
