"""Classification of graded Betti tables of almost complete intersection
artinian algebras whose Hilbert function is that of CI(a, a, a).

Such an ideal has four generators of degrees (a, a, a, h) with
a + 1 <= h <= 3a - 2, at least three first syzygies of degree 2a, and a last
syzygy of degree 3a.  Writing t for the number of last syzygies and
s = 3a + h for the duality shift of the linked Gorenstein ideal:

  * a first syzygy of degree a + h exists iff t is even, and then it is
    unique at both level 2 and level 3;
  * h >= 2a forces t odd;
  * the distinguished generator degree d* is a when t is even and h when t
    is odd.

For each parity there is a maximal table.  Two moves cancel summands from
levels 2 and 3: ``cancel_couple`` removes a couple R(-i) (+) R(-(s - i))
within a fixed twist window (odd-parity families require t >= 5 at the time
of cancellation, keeping t >= 3), and ``cancel_ah`` removes the single
R(-(a+h)) pair, moving an even-parity table with t >= 4 to the odd family.
These cancellations are independent, so ``enumerate_tables`` builds the
table poset in closed form: one node per subset of them except the one that
cancels everything, which the t-floor forbids.

``delta_low`` and ``delta_high`` build the generator-degree sequences of the
linked Gorenstein ideals realizing the maximal tables; both satisfy the
Gaeta conditions implemented in ``gaeta_check``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Optional, Sequence, Union

from .errors import DomainError
from .hilbert import BettiTable

EVEN = "even"
ODD = "odd"

MAX_POSET_NODES = 4095
MAX_LINK_DEGREES = 10 ** 4


def _check_at_least_2(value: int, name: str) -> None:
    if value < 2:
        raise DomainError("input-error", f"need {name} >= 2, got {value}")


def check_h_window(a: int, h: int, code: str = "h-out-of-range") -> None:
    """Raise unless a + 1 <= h <= 3a - 2, the window of the (a, h) families."""
    if not a + 1 <= h <= 3 * a - 2:
        raise DomainError(code, f"h outside ({a + 1} .. {3 * a - 2}): got {h}")


def _check_parity(a: int, h: int, even: bool) -> None:
    if even and h >= 2 * a:
        raise DomainError("invalid-family", f"h = {h} >= 2a forces an odd last-syzygy count")


def d_star(a: int, h: int, t: int) -> int:
    """Distinguished generator degree of a table with t last syzygies and
    generator degrees (a, a, a, h): a when t is even, h when t is odd.

    Raises input-error for a < 2, then h-out-of-range outside the window of
    ``check_h_window``, input-error for t < 2 and invalid-family for even t with h >= 2a.
    """
    _check_at_least_2(a, "a")
    check_h_window(a, h)
    _check_at_least_2(t, "t")    # every table has t >= 2
    _check_parity(a, h, t % 2 == 0)
    return a if t % 2 == 0 else h


@dataclass(frozen=True)
class AciFamily:
    """Family of ACI algebras with Hilbert function H_CI(a,a,a), generator
    degrees (a, a, a, h) and the given parity of the last-syzygy count."""

    a: int
    h: int
    parity: str

    def __post_init__(self):
        a, h = self.a, self.h
        if a < 2:
            raise DomainError("invalid-family", f"need a >= 2, got {a}")
        check_h_window(a, h, "invalid-family")
        if self.parity not in (EVEN, ODD):
            raise DomainError("invalid-family", f"parity must be even or odd, got {self.parity!r}")
        _check_parity(a, h, self.parity == EVEN)
        if self.parity == ODD and h < a + 2:
            raise DomainError(
                "invalid-family",
                f"h = a + 1 is rigid with t = 2: the odd family needs h >= {a + 2}",
            )

    @property
    def high(self) -> bool:
        """True for the h >= 2a branch of the odd family."""
        return self.parity == ODD and self.h >= 2 * self.a

    @property
    def shift(self) -> int:
        """Duality shift 3a + h of the self-dual part."""
        return 3 * self.a + self.h


@dataclass(frozen=True)
class GorensteinDelta:
    """Sorted odd-length generator-degree sequence of a codimension-3
    Gorenstein ideal candidate."""

    degrees: tuple[int, ...]

    def __post_init__(self):
        degs = tuple(int(d) for d in self.degrees)
        if len(degs) % 2 == 0 or len(degs) < 3:
            raise DomainError("input-error", f"length must be odd and >= 3, got {len(degs)}")
        if list(degs) != sorted(degs):
            raise DomainError("input-error", f"degrees must be sorted ascending, got {degs}")
        if any(d < 1 for d in degs):
            raise DomainError("input-error", f"degrees must be >= 1, got {degs}")
        object.__setattr__(self, "degrees", degs)

    @property
    def n(self) -> int:
        return (len(self.degrees) - 1) // 2

    @property
    def theta(self) -> Optional[int]:
        """(sum of degrees) / n when integral, else None."""
        s = sum(self.degrees)
        return s // self.n if s % self.n == 0 else None

    def __iter__(self):
        return iter(self.degrees)

    def __len__(self) -> int:
        return len(self.degrees)


DeltaLike = Union[GorensteinDelta, Sequence[int]]


def _as_delta(delta: DeltaLike) -> GorensteinDelta:
    if isinstance(delta, GorensteinDelta):
        return delta
    return GorensteinDelta(tuple(delta))


class GaetaResult(NamedTuple):
    ok: bool
    reason: Optional[str]


def gaeta_check(delta: DeltaLike) -> GaetaResult:
    """Realizability test for a codimension-3 Gorenstein degree sequence.

    Requires theta = (sum d_i) / n to be an integer and, writing the sequence
    1-based as d_1 <= ... <= d_{2n+1}, theta > d_i + d_{2n+3-i} for
    2 <= i <= n.  The reason names the first violated condition.
    """
    d = _as_delta(delta)
    degs = d.degrees
    n = d.n
    theta = d.theta
    if theta is None:
        return GaetaResult(False, f"theta = {sum(degs)}/{n} is not an integer")
    for i in range(2, n + 1):
        partner = 2 * n + 3 - i
        lhs = degs[i - 1] + degs[partner - 1]
        if theta <= lhs:
            return GaetaResult(
                False, f"theta <= d_{i} + d_{partner} ({theta} <= {lhs})"
            )
    return GaetaResult(True, None)


@dataclass(frozen=True)
class AciTable:
    """Betti table annotated with its (a, h, parity) family tags."""

    a: int
    h: int
    parity: str
    table: BettiTable

    @property
    def t(self) -> int:
        return self.table.t

    @property
    def family(self) -> AciFamily:
        return AciFamily(self.a, self.h, self.parity)

    def to_json(self) -> dict:
        return {
            "a": self.a,
            "h": self.h,
            "parity": self.parity,
            "t": self.t,
            "d_star": d_star(self.a, self.h, self.t),
            "levels": [list(level) for level in self.table.levels],
        }


def maximal_table(fam: AciFamily) -> AciTable:
    """The maximal Betti table of the family: with F the free part (every
    twist of the allowed couples, plus a + h in the even family),
    level 3 = F + {3a}, level 2 = {h, 2a, 2a, 2a} + F, level 1 = {a, a, a, h}."""
    a, h = fam.a, fam.h
    free = [j for pair in allowed_couples(fam) for j in pair]
    if fam.parity == EVEN:
        free.append(a + h)
    level1 = sorted((a, a, a, h))
    level2 = sorted([h, 2 * a, 2 * a, 2 * a] + free)
    level3 = sorted(free + [3 * a])
    table = BettiTable(3, ((0,), tuple(level1), tuple(level2), tuple(level3)))
    assert table.t % 2 == (0 if fam.parity == EVEN else 1)
    return AciTable(a, h, fam.parity, table)


def allowed_couples(fam: AciFamily) -> tuple[tuple[int, int], ...]:
    """The cancellable couples {i, 3a+h-i} of the family, each listed once.

    The window is [2a+1, a+h-1] except for the h >= 2a branch, where it is
    [h+1, 3a-1]; both are symmetric about (3a+h)/2.  When h - a is even the
    middle couple pairs the two copies of the duplicated middle summand.
    """
    a, h = fam.a, fam.h
    if fam.high:
        lo = h + 1
    else:
        lo = 2 * a + 1
    s = fam.shift
    return tuple((i, s - i) for i in range(lo, s // 2 + 1))


def _remove_twists(level: tuple[int, ...], twists) -> tuple[int, ...]:
    out = list(level)
    for j in twists:
        if j not in out:
            raise DomainError("couple-not-present", f"twist {j} not present in {list(level)}")
        out.remove(j)
    return tuple(out)


def _cancel(tbl: AciTable, twists: tuple[int, ...], parity: str) -> AciTable:
    """The table with the twists removed from levels 2 and 3, in the given parity."""
    levels = tbl.table.levels
    table = BettiTable(3, (levels[0], levels[1], _remove_twists(levels[2], twists),
                           _remove_twists(levels[3], twists)))
    return AciTable(tbl.a, tbl.h, parity, table)


def cancel_couple(tbl: AciTable, couple: tuple[int, int]) -> AciTable:
    """Remove the couple's two twists from levels 2 and 3.

    The Hilbert function is unchanged, t drops by 2 and the parity is
    preserved.  In odd-parity families this requires the current t >= 5, so
    that t never drops below 3.
    """
    fam = tbl.family
    pair = tuple(sorted(couple))
    if pair not in allowed_couples(fam):
        raise DomainError(
            "couple-not-allowed",
            f"{pair} is not an allowed cancellation couple for (a, h) = ({fam.a}, {fam.h})",
        )
    if fam.parity == ODD and tbl.t < 5:
        raise DomainError("t-floor", f"t = {tbl.t} < 5: t would drop below 3")
    return _cancel(tbl, pair, tbl.parity)


def cancel_ah(tbl: AciTable) -> AciTable:
    """Cancel the single R(-(a+h)) pair, moving to the odd family.

    Only even-parity tables carry the a+h twist, and the cancellation exists
    iff t >= 4 (the result is a non-complete-intersection with odd t, so
    t - 1 >= 3 is forced).
    """
    ah = tbl.a + tbl.h
    if tbl.parity == ODD:
        raise DomainError("no-ah-syzygy", "no a+h syzygy (odd last-syzygy count)")
    if tbl.t < 4:
        raise DomainError("not-cancellable", f"t = {tbl.t} < 4: R(-{ah}) is not cancellable")
    return _cancel(tbl, (ah,), ODD)


class PosetEdge(NamedTuple):
    src: int
    dst: int
    kind: str  # "couple" or "ah"
    twists: tuple[int, ...]

    def to_json(self) -> dict:
        return {"src": self.src, "dst": self.dst, "kind": self.kind,
                "twists": list(self.twists)}


@dataclass(frozen=True)
class TablePoset:
    """All tables for a given (a, h) plus the cancellation edges between them."""

    a: int
    h: int
    nodes: tuple[AciTable, ...]
    edges: tuple[PosetEdge, ...]

    def to_json(self) -> dict:
        return {
            "a": self.a,
            "h": self.h,
            "tables": [node.to_json() for node in self.nodes],
            "edges": [edge.to_json() for edge in self.edges],
        }


def enumerate_tables(a: int, h: int) -> TablePoset:
    """Every Betti table of the (a, h) families, with one edge per
    cancellation between them, built in closed form.

    The d cancellations (the ``allowed_couples``, plus a+h below h = 2a) are
    independent, so each table is one subset of them, held as a bitmask
    (couples in order, then a+h): its levels keep the maximal table's free
    twists that it does not cancel, and it is odd iff h >= 2a or it cancels
    a+h.  The t-floor forbids only the subset that cancels everything, so
    the poset has 2^d - 1 nodes.  Nodes are ordered lexicographically by
    their level multisets, and each node's edges follow it, one per further
    cancellation: couples in ``allowed_couples`` order, then the a+h edge.
    ``cancel_couple`` and ``cancel_ah`` are the same moves one table at a
    time.  Posets with more than ``MAX_POSET_NODES`` nodes raise too-large
    before any table is built.
    """
    _check_at_least_2(a, "a")
    check_h_window(a, h)
    # d independent cancellations give 2^d subsets; the t-floor drops the full
    # one.  Comparing d first keeps a huge h from building a huge 2^d.
    d = (h - a) // 2 + 1 if h < 2 * a else (3 * a - h) // 2
    if d > MAX_POSET_NODES.bit_length() or 2 ** d - 1 > MAX_POSET_NODES:
        raise DomainError("too-large", f"(a, h) = ({a}, {h}): the table poset has "
                                       f"2^{d} - 1 nodes, more than {MAX_POSET_NODES}")
    high = h >= 2 * a
    seed = AciFamily(a, h, ODD if high else EVEN)
    moves = [("couple", pair) for pair in allowed_couples(seed)]
    if not high:
        moves.append(("ah", (a + h,)))
    # the maximal table's levels 0 and 1, and its levels 2 and 3 without the
    # free twists that the moves cancel
    top = maximal_table(seed).table.levels
    free = [j for _, twists in moves for j in twists]
    head, forced2, forced3 = top[:2], _remove_twists(top[2], free), _remove_twists(top[3], free)
    full = (1 << d) - 1     # cancels everything: the t-floor leaves it out
    found = []
    for mask in range(full):
        kept = tuple([j for i, (_, twists) in enumerate(moves) if not mask >> i & 1
                      for j in twists])
        found.append((head + (tuple(sorted(forced2 + kept)), tuple(sorted(forced3 + kept))),
                      mask))
    found.sort()
    position = {mask: i for i, (_, mask) in enumerate(found)}
    ah_bit = 0 if high else 1 << (d - 1)
    nodes = tuple(AciTable(a, h, ODD if high or mask & ah_bit else EVEN, BettiTable(3, levels))
                  for levels, mask in found)
    edges = tuple(PosetEdge(position[mask], position[mask | 1 << i], kind, twists)
                  for _, mask in found
                  for i, (kind, twists) in enumerate(moves)
                  if not mask >> i & 1 and mask | 1 << i != full)
    return TablePoset(a, h, nodes, edges)


def t_max(a: int) -> int:
    """Largest last-syzygy count in the h = 2a family: a + 1 for even a,
    a for odd a."""
    _check_at_least_2(a, "a")
    return a + 1 if a % 2 == 0 else a


def _link_delta(a: int, h: int, lo: int, hi: int) -> GorensteinDelta:
    """(a, a, h-a) and the degrees strictly between max(a, h-a) and
    min(h, 2a), with (a+h)/2 doubled when h - a is even; lo <= h <= hi, and
    a length of at most ``MAX_LINK_DEGREES``, are checked before any list
    is built."""
    _check_at_least_2(a, "a")
    if not lo <= h <= hi:
        raise DomainError("h-out-of-range", f"h outside ({lo} .. {hi}): got {h}")
    between = range(max(a, h - a) + 1, min(h, 2 * a))
    doubled = [(a + h) // 2] if (h - a) % 2 == 0 else []
    length = 3 + len(between) + len(doubled)
    if length > MAX_LINK_DEGREES:
        raise DomainError("too-large",
                          f"{length} link degrees, more than {MAX_LINK_DEGREES}")
    return GorensteinDelta(tuple(sorted([a, a, h - a, *between, *doubled])))


def delta_low(a: int, h: int) -> GorensteinDelta:
    """Generator degrees of the Gorenstein link realizing the maximal tables
    for a + 1 <= h <= 2a - 1: (h-a, a, a, a+1, ..., h-1), with (a+h)/2
    doubled when h - a is even."""
    return _link_delta(a, h, a + 1, 2 * a - 1)


def delta_high(a: int, h: int) -> GorensteinDelta:
    """Generator degrees of the Gorenstein link realizing the maximal table
    for 2a <= h <= 3a - 2: (a, a, h-a, h-a+1, ..., 2a-1), with (a+h)/2
    doubled when h - a is even."""
    return _link_delta(a, h, 2 * a, 3 * a - 2)
