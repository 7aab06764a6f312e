"""Sparse exact-integer multivariate polynomials on packed monomials, and
alternating-matrix pfaffians.

Polynomials live over a fixed ordered variable list.  A ring of n variables
packs each exponent vector e into one integer key of n + 1 fields of
``FIELD_BITS`` = 16 bits: e_1 in the most significant field, e_n in the
next-to-lowest, and the total degree in the lowest, at shift 0;
``PolyRing.shifts`` holds the shift of each exponent's field.  A monomial
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
<= d_{2n+1}) (``hilbert.as_delta``) with theta = (sum d_i)/n
(``hilbert.theta_of``) has

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
x_ij^(theta - d_i - d_j).  One expansion and one substitution serve every
pfaffian.  ``_plan`` expands the generic pfaffians once per support graph,
memoised by matrix size and pairs, with ``_pf``: a memoised first-row
expansion keyed by bit masks, one per perfect matching, so it adds no
coefficients.  ``_specialize`` substitutes the entries into them: those of
Alt(delta) for ``pfaffian`` and ``sub_pfaffians``, exact term for term
(every exponent is positive and distinct matchings use distinct
variables), and the integers of ``pfaffian_int``, as constants, into the
pfaffian of the complete graph.  A matrix stores each entry as one term, a
(packed key, coefficient) pair, so any entries substitute the same way,
adding the coefficients of terms that meet.  So the Pf(M)^2 = det(M) check
of ``pf_squared_equals_det`` runs the code behind the sub-pfaffians and the
witness ideals, on coefficients other than +-1 and terms of both signs.

``pfaffian_last_row`` is the cross-check: the expansion along the last row
unrolled into a signed sum over the perfect matchings of the index set, on
the packed terms, with no memo and no code shared with ``_pf`` or
``_specialize``.  Polynomials have no addition: ``*`` is their one
arithmetic operation, and the witness ideals need no other.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache, reduce
from operator import mul, or_

from .errors import DomainError, as_ints, as_tuple
from .hilbert import DegreesLike, as_delta, theta_of
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
        object.__setattr__(self, "names", as_tuple(self.names, "variable names"))
        # the shift of each exponent's field; the degree's field is the lowest
        shifts = range(FIELD_BITS * len(self.names), 0, -FIELD_BITS)
        object.__setattr__(self, "shifts", tuple(shifts))

    def pack(self, expo) -> int:
        """The key of an exponent vector over this ring."""
        expo = as_ints(expo, "exponents", 0)
        if len(expo) != len(self.names):
            raise DomainError("input-error",
                              f"{len(expo)} exponents for {len(self.names)} variables")
        if sum(expo) > MAX_EXPONENT:
            raise _overflow()
        return sum(e << shift for e, shift in zip(expo, self.shifts)) | sum(expo)

    def unpack(self, key: int) -> tuple[int, ...]:
        """The exponent vector of a key over this ring."""
        return tuple(key >> shift & FIELD_MASK for shift in self.shifts)

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
        expos = as_tuple(terms, "terms")
        coeffs = as_ints([terms[e] for e in expos], "coefficients")
        self.packed = {ring.pack(e): c for e, c in zip(expos, coeffs) if c}

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

    Indices are 1-based, matching the usual display.  Entry (i, j) has degree
    theta - d_i - d_j, and is zero when that is <= 0.
    """

    delta: tuple[int, ...]
    theta: int
    size: int
    ring: PolyRing
    upper: dict = field(repr=False)  # (i, j) with i < j -> (packed key, coeff) of its term

    def entry(self, i: int, j: int) -> SparsePolynomial:
        if max(as_ints((i, j), "indices", 1)) > self.size:
            raise DomainError("input-error", f"index ({i}, {j}) out of range")
        term = self.upper.get((min(i, j), max(i, j)))
        if term is None:
            return _clean(self.ring, {})
        key, c = term
        return _clean(self.ring, {key: c if i < j else -c})

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
    return tuple(((i, j), i - 1, j - 1, shift) for (i, j), shift in zip(pairs, ring.shifts)), ring


def alt_matrix(delta: DegreesLike, extra_vars: tuple[str, ...] = ()) -> AlternatingMatrix:
    """Alternating matrix of a degree sequence, over variables x_ij (with any
    extra variables appended to the ring).

    Requires theta integral.  The matrix is well defined whether or not the
    sequence passes the Gaeta conditions; ``gaeta_check`` gives that verdict.
    """
    degs = as_delta(delta)
    m = len(degs)
    if m > MAX_SIZE:
        raise DomainError("too-large", f"supported up to {MAX_SIZE} indices, got {m}")
    if degs[-1] > MAX_DELTA_ENTRY:
        raise DomainError("too-large",
                          f"entries supported up to {MAX_DELTA_ENTRY}, got {degs[-1]}")
    theta = theta_of(degs)
    if theta is None:
        raise DomainError("theta-not-integral", f"theta = {sum(degs)}/{m // 2} is not an integer")
    pairs, ring = _alt_ring(m, tuple(extra_vars))
    upper = {}
    for ij, i, j, shift in pairs:
        e = theta - degs[i] - degs[j]
        if e > 0:
            upper[ij] = (e << shift | e, 1)
    return AlternatingMatrix(degs, theta, m, ring, upper)


def _check_subset(m: AlternatingMatrix, subset) -> tuple[int, ...]:
    idx = tuple(sorted(as_ints(subset, "indices")))
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
    return _clean(m.ring, _specialize(m.size, m.upper, (idx,))[0])


@lru_cache(maxsize=64)     # the sub-pfaffian degree check sees 36 support graphs
def _plan(size: int, pairs: tuple):
    """The pfaffians of the generic alternating matrix on the graph over
    1..size with edges ``pairs``: a function from an index tuple to its
    terms, each the slots in ``pairs`` of the entries it multiplies, with
    its coefficient +-1.

    The entry in slot k is the bit 1 << k, so each key of ``_pf``'s
    expansion is the set of pairs of one perfect matching.  One memo serves
    every index set of the graph.
    """
    slot = {ij: 1 << k for k, ij in enumerate(pairs)}
    memo: dict = {}

    @lru_cache(maxsize=None)
    def terms(idx: tuple) -> tuple:
        return tuple((tuple(k for k in range(len(pairs)) if mask >> k & 1), c)
                     for mask, c in _pf(slot, idx, memo).items())

    return terms


def _pf(slot: dict, idx: tuple, memo: dict) -> dict:
    """First-row expansion of the generic pfaffian on the index tuple idx,
    as {mask of one perfect matching: +-1}.

    ``slot`` maps each edge (i, j), i < j, of the support graph to its bit,
    and ``memo`` caches the pfaffians of index sets of four or more by index
    tuple.
    """
    if len(idx) == 2:
        return {slot[idx]: 1} if idx in slot else {}
    if not idx:
        return {0: 1}
    first = idx[0]
    rest = idx[1:]
    total: dict = {}
    sign = -1
    for pos, other in enumerate(rest):
        sign = -sign
        bit = slot.get((first, other))
        if bit is None:
            continue
        key = rest[:pos] + rest[pos + 1:]
        if len(key) == 2:
            if key in slot:
                total[bit | slot[key]] = sign
            continue
        sub = memo.get(key)
        if sub is None:
            sub = memo[key] = _pf(slot, key, memo)
        for mask, c in sub.items():
            total[bit | mask] = sign * c
    return total


def _specialize(size: int, upper: dict, index_sets) -> list[dict]:
    """The pfaffians on each index tuple of the alternating matrix with the
    upper entries ``upper`` ((i, j) with i < j -> (packed key, coeff)), as
    packed dicts: the substitution x_ij -> a_ij into the generic pfaffians
    of its support graph (``_plan``).

    The substitution is a ring map, so it commutes with the pfaffian.  A
    term of a pfaffian on 2k indices adds k entry keys, and once their
    degrees can sum past ``MAX_EXPONENT`` each term's degree sum is tested,
    since a sum of three or more keys can carry past a field and clear its
    guard bit again.
    """
    terms_of = _plan(size, tuple(upper))
    keys = [key for key, _ in upper.values()]
    coeffs = [c for _, c in upper.values()]
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
        out.append(total)
    return out


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
            term = m.upper.get((other, left[-1]))
            if term is None:
                continue
            e, c = term
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
    return [_clean(m.ring, p)
            for p in _specialize(m.size, m.upper, [full[:i] + full[i + 1:] for i in range(m.size)])]


def pfaffian_int(mat) -> int:
    """Pfaffian of an integer alternating matrix (0-based list of rows): the
    generic pfaffian of the complete graph, with each entry substituted as a
    constant, as ``pfaffian`` substitutes the entries of Alt(delta)."""
    mat = as_tuple(mat, "matrix rows")
    n = len(mat)
    if any(len(as_ints(row, "matrix entries")) != n for row in mat):
        raise DomainError("input-error", "matrix is not square")
    for i in range(n):
        if mat[i][i] != 0:
            raise DomainError("input-error", "nonzero diagonal")
        for j in range(n):
            if mat[i][j] != -mat[j][i]:
                raise DomainError("input-error", "matrix is not alternating")
    if n % 2:
        raise DomainError("input-error", f"pfaffian needs even size, got {n}")
    upper = {(i + 1, j + 1): (0, mat[i][j]) for i in range(n) for j in range(i + 1, n)}
    return _specialize(n, upper, [tuple(range(1, n + 1))])[0].get(0, 0)


def pf_squared_equals_det(mat) -> bool:
    """Classical identity Pf(M)^2 = det(M), checked on an integer alternating
    specialization; det comes from the independent Bareiss routine."""
    from . import intmat    # here, so the pfaffian routes do not load it
    return pfaffian_int(mat) ** 2 == intmat.int_det(mat)


@dataclass(frozen=True)
class WitnessIdeals:
    """The pfaffian witness ideals over k[{x_ij}, y1, y2], keyed by variant
    like ``WITNESS_RECIPE``, each with generator degrees sorting to
    (3, 3, 3, 5), built from Alt(2, 3, 3, 4, 4); ``witness_tables`` gives
    the table each variant realizes."""

    matrix: AlternatingMatrix
    ideals: dict    # variant -> generators

    def degrees(self, variant: str) -> tuple[int, ...]:
        return tuple(p.degree() for p in self.ideals[variant])


# The witness family (a, h), and its two ideals over k[{x_ij}, y1, y2]: each
# generator is the pfaffian of Alt(delta_low(a, h)) with the given rows and
# columns deleted (1-based) times the given y-variables, so with p_i the
# sub-pfaffians I_Q = (y2 p_1, p_2, y1 p_5, y1 y2 p_{1,2,5}) realizes the
# maximal even-family table and I_W = (p_2, p_3, y1 p_5, y1 p_{2,3,5}) that
# table with its a+h pair cancelled.  The CAS scripts read it too.
WITNESS_AH = (3, 5)
WITNESS_RECIPE = {
    "q": (((1,), ("y2",)), ((2,), ()), ((5,), ("y1",)), ((1, 2, 5), ("y1", "y2"))),
    "w": (((2,), ()), ((3,), ()), ((5,), ("y1",)), ((2, 3, 5), ("y1",))),
}


def witness_ideals_a3_h5() -> WitnessIdeals:
    """The witness ideals for (a, h) = (3, 5), built by ``WITNESS_RECIPE``."""
    m = alt_matrix((2, 3, 3, 4, 4), extra_vars=("y1", "y2"))
    p = sub_pfaffians(m)  # p[i-1] = p_i

    def generator(rows, ys):
        kept = [k for k in range(1, m.size + 1) if k not in rows]
        g = p[rows[0] - 1] if len(rows) == 1 else pfaffian(m, kept)
        return reduce(mul, map(m.ring.var, ys), g)

    return WitnessIdeals(m, {v: tuple(generator(*gen) for gen in recipe)
                             for v, recipe in WITNESS_RECIPE.items()})


def witness_tables() -> dict:
    """The Betti table each witness ideal realizes, by variant: the maximal
    even ``WITNESS_AH`` table, and that table with its a+h pair cancelled."""
    from . import classify  # here, so the pfaffian routes do not load it
    top = classify.maximal_table(classify.AciFamily(*WITNESS_AH, classify.EVEN))
    return {"q": top.table, "w": classify.cancel_ah(top).table}
