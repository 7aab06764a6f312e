"""Sparse exact-integer multivariate polynomials on packed monomials, and
alternating-matrix pfaffians.

Polynomials live over a fixed ordered variable list.  A ring of n variables
packs each exponent vector e into one integer key of n + 1 fields of
``FIELD_BITS`` = 16 bits: e_1 in the most significant field, e_n in the
next-to-lowest, and the total degree in the lowest, so the key's big-endian
bytes are n + 1 unsigned 16-bit integers (``PolyRing.layout``).  A monomial
product is one integer addition, the degree of a key is ``key &
FIELD_MASK``, and integer order on keys is the descending-lex exponent order
that ``sorted_terms`` prints (the degree field, a function of the
exponents, never breaks a tie).  The top bit of each field is a guard,
clear in every stored key, so a field holds at most ``MAX_EXPONENT`` =
32767 and the sum of two keys carries out of no field.  The degree bounds
every exponent, so a sum overflows a field exactly when it sets the guard
bit of the degree field, ``GUARD``: a product of degree above
``MAX_EXPONENT`` is refused with ``too-large``, never wrapped into a wrong
monomial.  ``terms`` unpacks the keys into the exponent tuples that
``to_json`` and ``str`` show.

The alternating matrix of a Gorenstein degree sequence delta = (d_1 <= ...
<= d_{2n+1}) with theta = (sum d_i)/n has

    a_ij = x_ij^(theta - d_i - d_j)   for i < j when the exponent is positive,
    a_ij = 0                          otherwise,

over one variable x_ij per index pair.  Deleting row and column i of the
matrix and taking the pfaffian of the rest yields a polynomial p_i that is
homogeneous of degree exactly d_i.  ``alt_matrix`` refuses entries above
``MAX_DELTA_ENTRY`` = 3640 with ``too-large``: with at most 9 indices, every
exponent and degree of Alt(delta) and of its pfaffians is at most
sum(delta) <= 9 * 3640 <= ``MAX_EXPONENT``.

A pfaffian is a polynomial in the matrix entries, so it commutes with ring
maps: Alt(delta) is the generic alternating matrix on its support graph
(one fresh variable per entry with theta - d_i - d_j > 0) under x_ij ->
x_ij^(theta - d_i - d_j).  ``_plan`` expands the generic pfaffians once per
support graph, memoised by matrix size and pairs, and ``pfaffian`` and
``sub_pfaffians`` substitute the entries into them (``_specialize``).  The
substitution is exact term for term: every exponent is positive and
distinct perfect matchings use distinct variables, so no two terms meet.
Any entries that are single terms (a coefficient times a monomial)
substitute the same way, adding the coefficients of terms that meet;
an entry of two or more terms is refused.

One memoised first-row expansion, ``_pf``, serves the generic matrices and
integer ones alike: the plans and ``pfaffian_int`` (whose integers are
constants) both call it, so the Pf(M)^2 = det(M) check of
``pf_squared_equals_det`` tests the expansion behind the sub-pfaffians and
the witness ideals.  It works on the raw {key: coeff} dicts, adds each
+-entry * sub-pfaffian straight into its running total, reads a two-index
pfaffian straight off the matrix and looks each larger index set up in the
memo before it recurses.  ``pfaffian_last_row`` is the cross-check: the
expansion along the last row unrolled into a signed sum over the perfect
matchings of the index set, on the same dicts, with no memo and no code
shared with ``_pf``.  Polynomials have no addition: ``*`` is their one
arithmetic operation, and the witness ideals need no other.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache, reduce
from operator import or_
from struct import Struct

from .classify import DeltaLike, _as_delta
from .errors import DomainError
from .intmat import int_det
from .monomials import format_monomial

FIELD_BITS = 16
FIELD_MASK = (1 << FIELD_BITS) - 1
MAX_EXPONENT = FIELD_MASK >> 1
GUARD = MAX_EXPONENT + 1
MAX_SIZE = 9
MAX_DELTA_ENTRY = MAX_EXPONENT // MAX_SIZE


def _overflow() -> DomainError:
    return DomainError("too-large", f"an exponent or degree exceeds {MAX_EXPONENT}")


@dataclass(frozen=True)
class PolyRing:
    """Ordered variable list; polynomials carry packed exponent keys over it."""

    names: tuple[str, ...]

    def __post_init__(self):
        # a key's bytes: the n exponents, then the degree
        object.__setattr__(self, "layout", Struct(f">{len(self.names) + 1}H"))

    def pack(self, expo) -> int:
        """The key of an exponent vector over this ring."""
        expo = tuple(int(e) for e in expo)
        if len(expo) != len(self.names):
            raise DomainError("input-error",
                              f"{len(expo)} exponents for {len(self.names)} variables")
        if any(e < 0 for e in expo):
            raise DomainError("input-error", f"negative exponent in {expo}")
        if sum(expo) > MAX_EXPONENT:
            raise _overflow()
        return int.from_bytes(self.layout.pack(*expo, sum(expo)), "big")

    def unpack(self, key: int) -> tuple[int, ...]:
        """The exponent vector of a key over this ring."""
        return self.layout.unpack(key.to_bytes(self.layout.size, "big"))[:-1]

    def var(self, name: str) -> "SparsePolynomial":
        return self.monomial(name, 1)

    def monomial(self, name: str, power: int) -> "SparsePolynomial":
        if name not in self.names:
            raise DomainError("input-error", f"unknown variable {name!r}")
        i = self.names.index(name)
        expo = tuple(power if k == i else 0 for k in range(len(self.names)))
        return SparsePolynomial(self, {expo: 1})


class SparsePolynomial:
    """Immutable-by-convention exact polynomial: {packed key: coeff != 0}.

    The constructor takes {exponent tuple: coeff}, as ``terms`` gives back.
    """

    __slots__ = ("ring", "packed")

    def __init__(self, ring: PolyRing, terms: dict):
        self.ring = ring
        self.packed = {ring.pack(e): int(c) for e, c in terms.items() if c}

    @property
    def terms(self) -> dict:
        """{exponent tuple: coeff}."""
        unpack = self.ring.unpack
        return {unpack(k): c for k, c in self.packed.items()}

    @property
    def is_zero(self) -> bool:
        return not self.packed

    def __bool__(self) -> bool:
        return bool(self.packed)

    def degree(self):
        """Total degree, or None for the zero polynomial."""
        return max((k & FIELD_MASK for k in self.packed), default=None)

    def is_homogeneous(self, d=None) -> bool:
        """Every term has one degree (d, when given); true of zero."""
        if not self.packed:
            return True
        degs = {k & FIELD_MASK for k in self.packed}
        return len(degs) == 1 and (d is None or degs <= {d})

    def __mul__(self, other):
        if not isinstance(other, SparsePolynomial):
            return NotImplemented
        if other.ring is not self.ring and other.ring.names != self.ring.names:
            raise DomainError("input-error", "polynomials over different rings")
        out: dict = {}
        get = out.get
        for e1, c1 in self.packed.items():
            for e2, c2 in other.packed.items():
                e = e1 + e2
                out[e] = get(e, 0) + c1 * c2
        return _clean(self.ring, _checked({e: c for e, c in out.items() if c}))

    def __eq__(self, other):
        if not isinstance(other, SparsePolynomial):
            return NotImplemented
        return self.ring.names == other.ring.names and self.packed == other.packed

    def __hash__(self):
        return hash((self.ring.names, tuple(sorted(self.packed.items()))))

    def sorted_terms(self):
        """Terms in descending lexicographic exponent order."""
        unpack = self.ring.unpack
        return [(unpack(k), c) for k, c in sorted(self.packed.items(), reverse=True)]

    def to_json(self) -> list[dict]:
        return [{"coeff": c, "exponents": list(e)} for e, c in self.sorted_terms()]

    def __str__(self) -> str:
        if self.is_zero:
            return "0"
        parts = []
        for e, c in self.sorted_terms():
            mag = abs(c)
            if not any(e):
                word = str(mag)
            else:
                body = format_monomial(e, self.ring.names, "*")
                word = body if mag == 1 else f"{mag}*{body}"
            if not parts:
                parts.append(word if c > 0 else f"-{word}")
            else:
                parts.append(f"+ {word}" if c > 0 else f"- {word}")
        return " ".join(parts)

    def __repr__(self) -> str:
        return f"SparsePolynomial({self})"


def _clean(ring: PolyRing, packed: dict) -> SparsePolynomial:
    """A polynomial on packed terms that are already clean (guard bit clear,
    nonzero int coefficients), kept as given: the constructor without the
    packing."""
    p = object.__new__(SparsePolynomial)
    p.ring = ring
    p.packed = packed
    return p


def _checked(packed: dict) -> dict:
    """packed, once no key has the guard bit of its degree set."""
    if packed and reduce(or_, packed) & GUARD:
        raise _overflow()
    return packed


@dataclass(frozen=True)
class AlternatingMatrix:
    """Symbolic alternating matrix with zero diagonal, stored upper-triangular.

    Indices are 1-based, matching the usual display; ``entry_degrees`` holds
    the expected degree theta - d_i - d_j of each upper entry (which may be
    <= 0, in which case the entry is zero).  Each entry of ``upper`` is a
    single term, as ``alt_matrix`` builds it; the pfaffians refuse any
    other.
    """

    delta: tuple[int, ...]
    theta: int
    size: int
    ring: PolyRing
    upper: dict = field(repr=False)  # (i, j) with i < j -> packed nonzero entry
    entry_degrees: dict = field(repr=False)

    def entry(self, i: int, j: int) -> SparsePolynomial:
        if not (1 <= i <= self.size and 1 <= j <= self.size):
            raise DomainError("input-error", f"index ({i}, {j}) out of range")
        if i <= j:
            return _clean(self.ring, self.upper.get((i, j), {}))
        return _clean(self.ring, {e: -c for e, c in self.upper.get((j, i), {}).items()})

    def pretty(self) -> str:
        cells = [[str(self.entry(i, j)) for j in range(1, self.size + 1)]
                 for i in range(1, self.size + 1)]
        width = max(len(s) for row in cells for s in row)
        return "\n".join(
            "[ " + "  ".join(s.rjust(width) for s in row) + " ]" for row in cells
        )


@lru_cache(maxsize=64)
def _alt_ring(size: int, extra_vars: tuple[str, ...]):
    """The index pairs (i, j) of a size x size matrix, each with i - 1, j - 1
    and the shift of the field of x_ij, and the ring over x_ij and the extra
    variables."""
    pairs = [(i, j) for i in range(1, size + 1) for j in range(i + 1, size + 1)]
    ring = PolyRing(tuple(f"x{i}{j}" for i, j in pairs) + extra_vars)
    n = len(ring.names)
    return tuple(((i, j), i - 1, j - 1, FIELD_BITS * (n - k))
                 for k, (i, j) in enumerate(pairs)), ring


def alt_matrix(delta: DeltaLike, extra_vars: tuple[str, ...] = ()) -> AlternatingMatrix:
    """Alternating matrix of a degree sequence, over variables x_ij (with any
    extra variables appended to the ring).

    Requires theta integral.  The matrix is well defined whether or not the
    sequence passes the Gaeta conditions; ``gaeta_check`` gives that verdict.
    """
    d = _as_delta(delta)
    degs = d.degrees
    m = len(degs)
    if m > MAX_SIZE:
        raise DomainError("too-large", f"supported up to {MAX_SIZE} indices, got {m}")
    if degs[-1] > MAX_DELTA_ENTRY:
        raise DomainError("too-large",
                          f"entries supported up to {MAX_DELTA_ENTRY}, got {degs[-1]}")
    theta = d.theta
    if theta is None:
        raise DomainError("theta-not-integral", f"theta = {sum(degs)}/{d.n} is not an integer")
    pairs, ring = _alt_ring(m, tuple(extra_vars))
    upper = {}
    entry_degrees = {}
    for ij, i, j, shift in pairs:
        e = theta - degs[i] - degs[j]
        entry_degrees[ij] = e
        if e > 0:
            upper[ij] = {e << shift | e: 1}
    return AlternatingMatrix(degs, theta, m, ring, upper, entry_degrees)


def _check_subset(m: AlternatingMatrix, subset) -> tuple[int, ...]:
    idx = tuple(sorted(int(i) for i in subset))
    if len(set(idx)) != len(idx):
        raise DomainError("input-error", f"repeated index in {idx}")
    if idx and not (1 <= idx[0] and idx[-1] <= m.size):
        raise DomainError("input-error", f"indices out of range in {idx}")
    if len(idx) % 2:
        raise DomainError("input-error", f"pfaffian needs an even index set, got {len(idx)}")
    return idx


def pfaffian(m: AlternatingMatrix, subset=None) -> SparsePolynomial:
    """Pfaffian of the principal submatrix on an even index subset
    (default: everything): the generic pfaffian of m's support graph,
    specialized to m's entries."""
    idx = _check_subset(m, subset if subset is not None else range(1, m.size + 1))
    return _specialize(m, (idx,))[0]


@lru_cache(maxsize=64)     # the sub-pfaffian degree check sees 36 support graphs
def _plan(size: int, pairs: tuple):
    """The pfaffians of the generic alternating matrix on the graph over
    1..size with edges ``pairs``: a function from an index tuple to its
    terms, each the slots in ``pairs`` of the entries it multiplies, with
    its coefficient +-1.

    The entry in slot k is a variable of its own: a 1 in field k + 1 of the
    key, above the degree field, which stays 0 and so never sets a guard
    bit.  Each key of ``_pf``'s expansion then holds the pairs of one
    perfect matching.  One memo serves every index set of the graph.
    """
    unit = {ij: {1 << FIELD_BITS * k: 1} for k, ij in enumerate(pairs, 1)}
    fields = tuple(enumerate(1 << FIELD_BITS * k for k in range(1, len(pairs) + 1)))
    memo: dict = {}

    @lru_cache(maxsize=None)
    def terms(idx: tuple) -> tuple:
        return tuple((tuple(k for k, bit in fields if key & bit), c)
                     for key, c in _pf(unit, idx, memo).items())

    return terms


def _specialize(m: AlternatingMatrix, index_sets) -> list[SparsePolynomial]:
    """The pfaffians of m on each index tuple, by the substitution x_ij ->
    a_ij into the generic pfaffians of m's support graph (``_plan``).

    The substitution is a ring map, so it commutes with the pfaffian; each
    entry must be one term.  A term of a pfaffian on 2k indices adds k entry
    keys, and once their degrees can sum past ``MAX_EXPONENT`` each term's
    degree sum is tested, since a sum of three or more keys can carry past
    a field and clear its guard bit again.
    """
    terms_of = _plan(m.size, tuple(m.upper))
    keys, coeffs = [], []
    for ij, entry in m.upper.items():
        if len(entry) != 1:
            raise DomainError("input-error", f"entry {ij} is not a single term")
        (key, c), = entry.items()
        keys.append(key)
        coeffs.append(c)
    top = max((key & FIELD_MASK for key in keys), default=0)
    out = []
    for idx in index_sets:
        checked = top * (len(idx) // 2) > MAX_EXPONENT
        total: dict = {}
        get = total.get
        for slots, c in terms_of(idx):
            key = 0
            for s in slots:
                key += keys[s]
                c *= coeffs[s]
            if checked and sum(keys[s] & FIELD_MASK for s in slots) > MAX_EXPONENT:
                raise _overflow()
            total[key] = get(key, 0) + c
        if 0 in total.values():
            total = {e: c for e, c in total.items() if c}
        out.append(_clean(m.ring, total))
    return out


def _pf(upper: dict, idx: tuple, memo: dict) -> dict:
    """First-row expansion of the pfaffian on the index tuple idx, as a
    {packed key: coeff} dict.

    ``upper`` maps (i, j) with i < j to the nonzero entries as packed dicts,
    and ``memo`` caches the pfaffians of index sets of four or more by index
    tuple.
    """
    if len(idx) == 2:
        return upper.get(idx, {})
    if not idx:
        return {0: 1}
    first = idx[0]
    rest = idx[1:]
    total: dict = {}
    get = total.get
    sign = -1
    for pos, other in enumerate(rest):
        sign = -sign
        entry = upper.get((first, other))
        if entry is None:
            continue
        key = rest[:pos] + rest[pos + 1:]
        if len(key) == 2:
            sub = upper.get(key)
            if sub is None:
                continue
        else:
            sub = memo.get(key)
            if sub is None:
                sub = memo[key] = _pf(upper, key, memo)
            if not sub:
                continue
        for e1, c1 in entry.items():
            c1 *= sign
            for e2, c2 in sub.items():
                e = e1 + e2
                total[e] = get(e, 0) + c1 * c2
    if 0 in total.values():
        total = {e: c for e, c in total.items() if c}
    return _checked(total)


def pfaffian_last_row(m: AlternatingMatrix, subset=None) -> SparsePolynomial:
    """Same pfaffian as a signed sum over perfect matchings: the expansion
    along the last row, unrolled (implementation cross-check)."""
    idx = _check_subset(m, subset if subset is not None else range(1, m.size + 1))
    total: dict = {}

    def match(left: tuple, key: int, coeff: int):
        # pair the last index left with the one at position pos, sign
        # (-1)^pos; key stays clean, so each sum carries out of no field
        if not left:
            total[key] = total.get(key, 0) + coeff
            return
        rest = left[:-1]
        for pos, other in enumerate(rest):
            for e, c in m.upper.get((other, left[-1]), {}).items():
                if (key + e) & GUARD:
                    raise _overflow()
                match(rest[:pos] + rest[pos + 1:], key + e, -coeff * c if pos % 2 else coeff * c)

    match(idx, 0, 1)
    return _clean(m.ring, {e: c for e, c in total.items() if c})


def sub_pfaffians(m: AlternatingMatrix) -> list[SparsePolynomial]:
    """The polynomials p_1..p_m, p_i from deleting row and column i; the
    matrix must have odd size.  Each p_i is homogeneous of degree d_i."""
    if m.size % 2 == 0:
        raise DomainError("input-error", f"need odd size, got {m.size}")
    full = tuple(range(1, m.size + 1))
    return _specialize(m, [full[:i] + full[i + 1:] for i in range(m.size)])


def pfaffian_int(mat) -> int:
    """Pfaffian of an integer alternating matrix (0-based list of rows), by
    the same first-row expansion as ``pfaffian``, on constants."""
    n = len(mat)
    if any(len(row) != n for row in mat):
        raise DomainError("input-error", "matrix is not square")
    for i in range(n):
        if mat[i][i] != 0:
            raise DomainError("input-error", "nonzero diagonal")
        for j in range(n):
            if mat[i][j] != -mat[j][i]:
                raise DomainError("input-error", "matrix is not alternating")
    if n % 2:
        raise DomainError("input-error", f"pfaffian needs even size, got {n}")
    upper = {(i, j): {0: mat[i][j]} for i in range(n) for j in range(i + 1, n) if mat[i][j]}
    return _pf(upper, tuple(range(n)), {}).get(0, 0)


def pf_squared_equals_det(mat) -> bool:
    """Classical identity Pf(M)^2 = det(M), checked on an integer alternating
    specialization; det comes from the independent Bareiss routine."""
    return pfaffian_int(mat) ** 2 == int_det(mat)


@dataclass(frozen=True)
class WitnessIdeals:
    """The two pfaffian ideals over k[{x_ij}, y1, y2] with generator degrees
    sorting to (3, 3, 3, 5), built from Alt(2, 3, 3, 4, 4).

    The first realizes the maximal table of the (a, h) = (3, 5) even-parity
    family; the second realizes the table with the a+h pair cancelled.
    """

    matrix: AlternatingMatrix
    iq: tuple[SparsePolynomial, ...]
    iw: tuple[SparsePolynomial, ...]

    def degrees_q(self) -> tuple[int, ...]:
        return tuple(p.degree() for p in self.iq)

    def degrees_w(self) -> tuple[int, ...]:
        return tuple(p.degree() for p in self.iw)


def witness_ideals_a3_h5() -> WitnessIdeals:
    """Generators of the two witness ideals for (a, h) = (3, 5).

    With p_i the sub-pfaffians of Alt(2, 3, 3, 4, 4) and p_{ijk} the pfaffian
    after deleting rows/columns i, j, k:

        I_Q = (y2 p_1, p_2, y1 p_5, y1 y2 p_{1,2,5})
        I_W = (p_2, p_3, y1 p_5, y1 p_{2,3,5})
    """
    m = alt_matrix((2, 3, 3, 4, 4), extra_vars=("y1", "y2"))
    p = sub_pfaffians(m)  # p[i-1] = p_i
    y1 = m.ring.var("y1")
    y2 = m.ring.var("y2")
    p125 = pfaffian(m, (3, 4))
    p235 = pfaffian(m, (1, 4))
    iq = (y2 * p[0], p[1], y1 * p[4], y1 * y2 * p125)
    iw = (p[1], p[2], y1 * p[4], y1 * p235)
    return WitnessIdeals(m, iq, iw)
