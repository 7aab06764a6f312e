"""Classification of graded Betti tables of almost complete intersection
artinian algebras whose Hilbert function is that of CI(a, a, a).

Such an ideal has four generators of degrees (a, a, a, h) with
a + 1 <= h <= 3a - 2, at least three first syzygies of degree 2a, and a last
syzygy of degree 3a.  Writing t for the number of last syzygies and
s = 3a + h for the duality shift of the linked Gorenstein ideal:

  * a first syzygy of degree a + h exists iff t is even, and then it is
    unique at both level 2 and level 3;
  * h >= 2a forces t odd;
  * h = a + 1 is rigid: t = 2;
  * the distinguished generator degree d* is a when t is even and h when t
    is odd.

``h_window(a)`` states that window and its low (h < 2a) and high (h >= 2a)
parts once, for every check of h, the parity rule and the odd floor.

For each parity there is a maximal table.  Two moves cancel summands from
levels 2 and 3: ``cancel_couple`` removes a couple R(-i) (+) R(-(s - i))
within a fixed twist window (odd-parity families require t >= 5 at the time
of cancellation, keeping t >= 3), and ``cancel_ah`` removes the single
R(-(a+h)) pair, moving an even-parity table with t >= 4 to the odd family.
Both check their rule and end in ``BettiTable.cancel(2, twists)``.  These
cancellations are independent, so ``enumerate_tables`` builds the table
poset in closed form: one node per subset of them except the one that
cancels everything, which the t-floor forbids.  An ``AciTable`` stores no
parity: it reads it off t, as ``d_star`` does.

``delta_low`` and ``delta_high`` build the generator-degree sequences of the
linked Gorenstein ideals realizing the maximal tables, as plain tuples; both
satisfy the Gaeta conditions implemented in ``gaeta_check``, which reads a
sequence with ``hilbert.as_delta`` and its theta with ``hilbert.theta_of``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Optional

from .errors import DomainError, as_ints, check_h
from .hilbert import BettiTable, DegreesLike, as_delta, theta_of

EVEN = "even"
ODD = "odd"

MAX_POSET_NODES = 4095
MAX_LINK_DEGREES = 10 ** 4


class HWindow(NamedTuple):
    """The h of the (a, h) families and the two parts of that window."""

    full: range    # a + 1 <= h <= 3a - 2
    low: range     # h < 2a: t even or odd; t = 2 at the rigid h = a + 1
    high: range    # h >= 2a: t odd


def h_window(a: int) -> HWindow:
    """The one statement of the (a, h) window."""
    return HWindow(range(a + 1, 3 * a - 1), range(a + 1, 2 * a), range(2 * a, 3 * a - 1))


def check_h_window(a: int, h: int, code: str = "h-out-of-range") -> HWindow:
    """The window of a; raise unless a and h are ints and h is in it."""
    as_ints((a, h), "a and h")
    window = h_window(a)
    check_h(h, window.full, code)
    return window


def _check_parity(window: HWindow, h: int, even: bool) -> None:
    if even and h in window.high:
        raise DomainError("invalid-family", f"h = {h} >= 2a forces an odd last-syzygy count")


def d_star(a: int, h: int, t: int) -> int:
    """Distinguished generator degree of a table with t last syzygies and
    generator degrees (a, a, a, h): a when t is even, h when t is odd.

    Raises input-error for a < 2, then h-out-of-range outside the window of
    ``check_h_window``, input-error for t < 2 and invalid-family for even t with h >= 2a.
    """
    as_ints((a,), "a", 2)
    window = check_h_window(a, h)
    as_ints((t,), "t", 2)    # every table has t >= 2
    _check_parity(window, h, t % 2 == 0)
    return _read_d_star(a, h, t)


def _read_d_star(a: int, h: int, t: int) -> int:
    """d* read off a valid table, without the checks: a for even t, h for odd t."""
    return a if t % 2 == 0 else h


@dataclass(frozen=True)
class AciFamily:
    """Family of ACI algebras with Hilbert function H_CI(a,a,a), generator
    degrees (a, a, a, h) and the given parity of the last-syzygy count."""

    a: int
    h: int
    parity: str

    def __post_init__(self):
        a, h = as_ints((self.a, self.h), "a and h")
        if a < 2:
            raise DomainError("invalid-family", f"need a >= 2, got {a}")
        window = check_h_window(a, h, "invalid-family")
        if self.parity not in (EVEN, ODD):
            raise DomainError("invalid-family", f"parity must be even or odd, got {self.parity!r}")
        _check_parity(window, h, self.parity == EVEN)
        if self.parity == ODD and h == window.low.start:
            raise DomainError("invalid-family",
                              f"h = a + 1 is rigid with t = 2: the odd family needs h >= {a + 2}")

    @property
    def high(self) -> bool:
        """True for the high part (h >= 2a) of the odd family."""
        return self.parity == ODD and self.h in h_window(self.a).high

    @property
    def shift(self) -> int:
        """Duality shift 3a + h of the self-dual part."""
        return 3 * self.a + self.h


class GaetaResult(NamedTuple):
    ok: bool
    reason: Optional[str]


def gaeta_check(delta: DegreesLike) -> GaetaResult:
    """Realizability test for a codimension-3 Gorenstein degree sequence.

    Requires theta = (sum d_i) / n to be an integer and, writing the sequence
    1-based as d_1 <= ... <= d_{2n+1}, theta > d_i + d_{2n+3-i} for
    2 <= i <= n.  The reason names the first violated condition.
    """
    degs = as_delta(delta)
    n = len(degs) // 2
    theta = theta_of(degs)
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
    """Betti table annotated with its (a, h) family tags."""

    a: int
    h: int
    table: BettiTable

    @property
    def t(self) -> int:
        return self.table.t

    @property
    def parity(self) -> str:
        """EVEN iff t is even, the reading of ``d_star``."""
        return EVEN if self.t % 2 == 0 else ODD

    @property
    def family(self) -> AciFamily:
        return AciFamily(self.a, self.h, self.parity)

    def to_json(self) -> dict:
        return {
            "a": self.a,
            "h": self.h,
            "parity": self.parity,
            "t": self.t,
            "d_star": _read_d_star(self.a, self.h, self.t),
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
    top = AciTable(a, h, BettiTable(3, ((0,), (a, a, a, h), (h, 2 * a, 2 * a, 2 * a, *free),
                                        (*free, 3 * a))))
    assert top.parity == fam.parity
    return top


def _couple_window(fam: AciFamily) -> range:
    """The lower twist i of each cancellable couple {i, 3a+h-i}: the twists
    run over [2a+1, a+h-1], or [h+1, 3a-1] in the high part of the odd
    family, both symmetric about (3a+h)/2.  When h - a is even the middle
    couple pairs the two copies of the duplicated middle summand."""
    return range(fam.h + 1 if fam.high else 2 * fam.a + 1, fam.shift // 2 + 1)


def allowed_couples(fam: AciFamily) -> tuple[tuple[int, int], ...]:
    """The cancellable couples of the family, each listed once."""
    return tuple((i, fam.shift - i) for i in _couple_window(fam))


def cancel_couple(tbl: AciTable, couple: tuple[int, int]) -> AciTable:
    """Remove the couple's two twists from levels 2 and 3.

    The Hilbert function is unchanged, t drops by 2 and the parity is
    preserved.  In odd-parity families this requires the current t >= 5, so
    that t never drops below 3.
    """
    fam = tbl.family
    pair = tuple(sorted(as_ints(couple, "couple twists")))
    if pair not in allowed_couples(fam):
        raise DomainError(
            "couple-not-allowed",
            f"{pair} is not an allowed cancellation couple for (a, h) = ({fam.a}, {fam.h})",
        )
    if fam.parity == ODD and tbl.t < 5:
        raise DomainError("t-floor", f"t = {tbl.t} < 5: t would drop below 3")
    return AciTable(tbl.a, tbl.h, tbl.table.cancel(2, pair))


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
    return AciTable(tbl.a, tbl.h, tbl.table.cancel(2, (ah,)))


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
    (couples in order, then a+h): the maximal table with those moves
    cancelled by ``BettiTable.cancel``, its parity read off t.  The t-floor
    forbids only the subset that cancels everything, so the poset has
    2^d - 1 nodes.  Nodes are ordered lexicographically by their level
    multisets, and each node's edges follow it, one per further cancellation:
    couples in ``allowed_couples`` order, then the a+h edge.  ``cancel_couple``
    and ``cancel_ah`` are the same moves one table at a time.  Posets with
    more than ``MAX_POSET_NODES`` nodes raise too-large before any table is built.
    """
    as_ints((a,), "a", 2)
    high = h in check_h_window(a, h).high
    seed = AciFamily(a, h, ODD if high else EVEN)
    # d independent cancellations, the couples and below h = 2a the a+h bit,
    # give 2^d subsets; the t-floor drops the full one.  Comparing d first
    # keeps a huge h from building a huge 2^d (len() of its range overflows).
    couples = _couple_window(seed)
    d = couples.stop - couples.start + (not high)
    if d > MAX_POSET_NODES.bit_length() or 2 ** d - 1 > MAX_POSET_NODES:
        raise DomainError("too-large", f"(a, h) = ({a}, {h}): the table poset has "
                                       f"2^{d} - 1 nodes, more than {MAX_POSET_NODES}")
    moves = [("couple", pair) for pair in allowed_couples(seed)]
    if not high:
        moves.append(("ah", (a + h,)))
    full = (1 << d) - 1     # cancels everything: the t-floor leaves it out
    # by mask: a mask's table cancels its top move in the table of the rest
    tables = [maximal_table(seed).table]
    for mask in range(1, full):
        i = mask.bit_length() - 1
        tables.append(tables[mask ^ 1 << i].cancel(2, moves[i][1]))
    order = sorted(range(full), key=lambda mask: tables[mask].levels)
    position = {mask: i for i, mask in enumerate(order)}
    edges = tuple(PosetEdge(position[mask], position[mask | 1 << i], kind, twists)
                  for mask in order
                  for i, (kind, twists) in enumerate(moves)
                  if not mask >> i & 1 and mask | 1 << i != full)
    return TablePoset(a, h, tuple(AciTable(a, h, tables[mask]) for mask in order), edges)


def t_max(a: int) -> int:
    """Largest last-syzygy count in the h = 2a family: a + 1 for even a,
    a for odd a."""
    as_ints((a,), "a", 2)
    return a + 1 if a % 2 == 0 else a


def _link_delta(a: int, h: int, high: bool) -> tuple[int, ...]:
    """(a, a, h-a) and the degrees strictly between max(a, h-a) and
    min(h, 2a), with (a+h)/2 doubled when h - a is even; h in the high or
    the low part of ``h_window(a)``, and a length of at most
    ``MAX_LINK_DEGREES``, are checked before any list is built."""
    as_ints((a,), "a", 2)
    as_ints((h,), "h")
    check_h(h, h_window(a).high if high else h_window(a).low)
    between = range(max(a, h - a) + 1, min(h, 2 * a))
    doubled = [(a + h) // 2] if (h - a) % 2 == 0 else []
    length = 3 + len(between) + len(doubled)
    if length > MAX_LINK_DEGREES:
        raise DomainError("too-large",
                          f"{length} link degrees, more than {MAX_LINK_DEGREES}")
    return as_delta(sorted([a, a, h - a, *between, *doubled]))


def delta_low(a: int, h: int) -> tuple[int, ...]:
    """Generator degrees of the Gorenstein link realizing the maximal tables
    for a + 1 <= h <= 2a - 1: (h-a, a, a, a+1, ..., h-1), with (a+h)/2
    doubled when h - a is even."""
    return _link_delta(a, h, high=False)


def delta_high(a: int, h: int) -> tuple[int, ...]:
    """Generator degrees of the Gorenstein link realizing the maximal table
    for 2a <= h <= 3a - 2: (a, a, h-a, h-a+1, ..., 2a-1), with (a+h)/2
    doubled when h - a is even."""
    return _link_delta(a, h, high=True)
