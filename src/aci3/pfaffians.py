"""Sparse exact-integer multivariate polynomials and alternating-matrix
pfaffians.

Polynomials live over a fixed ordered variable list; terms map dense
exponent tuples to nonzero integer coefficients.  The alternating matrix of
a Gorenstein degree sequence delta = (d_1 <= ... <= d_{2n+1}) with
theta = (sum d_i)/n has

    a_ij = x_ij^(theta - d_i - d_j)   for i < j when the exponent is positive,
    a_ij = 0                          otherwise,

over one variable x_ij per index pair.  Deleting row and column i of the
matrix and taking the pfaffian of the rest yields a polynomial p_i that is
homogeneous of degree exactly d_i.

One memoised first-row expansion serves polynomial and integer matrices
alike: ``pfaffian``, ``sub_pfaffians`` and ``pfaffian_int`` all call it, so
the Pf(M)^2 = det(M) check of ``pf_squared_equals_det`` tests the expansion
behind the sub-pfaffians and the witness ideals.  It reads a two-index
pfaffian straight off the matrix and looks each smaller index set up in the
memo before it recurses.  ``pfaffian_last_row`` expands along the last row
and is kept as the cross-check.

The public ``SparsePolynomial`` constructor cleans its terms; arithmetic
results, whose terms are clean by construction, skip that pass through
``_clean``, and a difference is formed in one pass, without a negated copy.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import add

from .classify import DeltaLike, _as_delta
from .errors import DomainError
from .intmat import int_det
from .monomials import format_monomial


@dataclass(frozen=True)
class PolyRing:
    """Ordered variable list; polynomials carry dense exponent tuples over it."""

    names: tuple[str, ...]

    def zero(self) -> "SparsePolynomial":
        return _clean(self, {})

    def one(self) -> "SparsePolynomial":
        return self.const(1)

    def const(self, c: int) -> "SparsePolynomial":
        c = int(c)
        if c == 0:
            return self.zero()
        return _clean(self, {(0,) * len(self.names): c})

    def var(self, name: str) -> "SparsePolynomial":
        return self.monomial(name, 1)

    def monomial(self, name: str, power: int, coeff: int = 1) -> "SparsePolynomial":
        if name not in self.names:
            raise DomainError("input-error", f"unknown variable {name!r}")
        i = self.names.index(name)
        expo = tuple(power if k == i else 0 for k in range(len(self.names)))
        return SparsePolynomial(self, {expo: coeff} if coeff else {})


class SparsePolynomial:
    """Immutable-by-convention exact polynomial: {exponent tuple: coeff != 0}."""

    __slots__ = ("ring", "terms")

    def __init__(self, ring: PolyRing, terms: dict):
        self.ring = ring
        self.terms = {tuple(e): int(c) for e, c in terms.items() if c}

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def degree(self):
        """Total degree, or None for the zero polynomial."""
        if not self.terms:
            return None
        return max(sum(e) for e in self.terms)

    def is_homogeneous(self, d=None) -> bool:
        degs = {sum(e) for e in self.terms}
        if not degs:
            return True
        if len(degs) > 1:
            return False
        return d is None or degs == {d}

    def _coerce(self, other):
        if isinstance(other, SparsePolynomial):
            if other.ring is not self.ring and other.ring.names != self.ring.names:
                raise DomainError("input-error", "polynomials over different rings")
            return other
        if isinstance(other, int):
            return self.ring.const(other)
        return NotImplemented

    def _combine(self, other, sign: int):
        """self + sign * other, dropping the terms that cancel."""
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        out = dict(self.terms)
        for e, c in other.terms.items():
            c = out.get(e, 0) + sign * c
            if c:
                out[e] = c
            else:
                del out[e]
        return _clean(self.ring, out)

    def __add__(self, other):
        return self._combine(other, 1)

    __radd__ = __add__

    def __sub__(self, other):
        return self._combine(other, -1)

    def __neg__(self):
        return _clean(self.ring, {e: -c for e, c in self.terms.items()})

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        out: dict = {}
        get = out.get
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(map(add, e1, e2))
                out[e] = get(e, 0) + c1 * c2
        return _clean(self.ring, {e: c for e, c in out.items() if c})

    __rmul__ = __mul__

    def __eq__(self, other):
        if isinstance(other, int):
            other = self.ring.const(other)
        if not isinstance(other, SparsePolynomial):
            return NotImplemented
        return self.ring.names == other.ring.names and self.terms == other.terms

    def __hash__(self):
        return hash((self.ring.names, tuple(sorted(self.terms.items()))))

    def sorted_terms(self):
        """Terms in descending lexicographic exponent order."""
        return sorted(self.terms.items(), key=lambda item: item[0], reverse=True)

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


def _clean(ring: PolyRing, terms: dict) -> SparsePolynomial:
    """A polynomial on terms that are already clean (tuple exponents, nonzero
    int coefficients), kept as given: the constructor without the copy."""
    p = object.__new__(SparsePolynomial)
    p.ring = ring
    p.terms = terms
    return p


@dataclass(frozen=True)
class AlternatingMatrix:
    """Symbolic alternating matrix with zero diagonal, stored upper-triangular.

    Indices are 1-based, matching the usual display; ``entry_degrees`` holds
    the expected degree theta - d_i - d_j of each upper entry (which may be
    <= 0, in which case the entry is zero).
    """

    delta: tuple[int, ...]
    theta: int
    size: int
    ring: PolyRing
    upper: dict = field(repr=False)  # (i, j) with i < j -> SparsePolynomial
    entry_degrees: dict = field(repr=False)

    def entry(self, i: int, j: int) -> SparsePolynomial:
        if not (1 <= i <= self.size and 1 <= j <= self.size):
            raise DomainError("input-error", f"index ({i}, {j}) out of range")
        if i == j:
            return self.ring.zero()
        if i < j:
            return self.upper.get((i, j), self.ring.zero())
        return -self.upper.get((j, i), self.ring.zero())

    def pretty(self) -> str:
        cells = [[str(self.entry(i, j)) for j in range(1, self.size + 1)]
                 for i in range(1, self.size + 1)]
        width = max(len(s) for row in cells for s in row)
        return "\n".join(
            "[ " + "  ".join(s.rjust(width) for s in row) + " ]" for row in cells
        )


def alt_matrix(delta: DeltaLike, extra_vars: tuple[str, ...] = ()) -> AlternatingMatrix:
    """Alternating matrix of a degree sequence, over variables x_ij (with any
    extra variables appended to the ring).

    Requires theta integral.  The matrix is well defined whether or not the
    sequence passes the Gaeta conditions; ``gaeta_check`` gives that verdict.
    """
    d = _as_delta(delta)
    degs = d.degrees
    m = len(degs)
    if m > 9:
        raise DomainError("too-large", f"supported up to 9 indices, got {m}")
    theta = d.theta
    if theta is None:
        raise DomainError("theta-not-integral", f"theta = {sum(degs)}/{d.n} is not an integer")
    pairs = [(i, j) for i in range(1, m + 1) for j in range(i + 1, m + 1)]
    ring = PolyRing(tuple(f"x{i}{j}" for i, j in pairs) + tuple(extra_vars))
    upper = {}
    entry_degrees = {}
    for k, (i, j) in enumerate(pairs):
        e = theta - degs[i - 1] - degs[j - 1]
        entry_degrees[(i, j)] = e
        if e > 0:
            expo = [0] * len(ring.names)
            expo[k] = e
            upper[(i, j)] = _clean(ring, {tuple(expo): 1})
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
    (default: everything), by recursive expansion along the first row."""
    idx = _check_subset(m, subset if subset is not None else range(1, m.size + 1))
    return _pf(m.upper, idx, m.ring.one(), m.ring.zero(), {})


def _pf(upper: dict, idx: tuple, one, zero, memo: dict):
    """First-row expansion of the pfaffian on the index tuple idx.

    ``upper`` maps (i, j) with i < j to the nonzero entries; ``one`` and
    ``zero`` are those of the coefficient ring (SparsePolynomial or int), and
    ``memo`` caches the sub-pfaffians on smaller index sets by index tuple.
    """
    if len(idx) == 2:
        return upper.get(idx, zero)
    if not idx:
        return one
    first = idx[0]
    rest = idx[1:]
    total = zero
    for pos, other in enumerate(rest):
        entry = upper.get((first, other))
        if entry is None:
            continue
        key = rest[:pos] + rest[pos + 1:]
        sub = memo.get(key)
        if sub is None:
            sub = memo[key] = _pf(upper, key, one, zero, memo)
        if not sub:
            continue
        term = entry * sub
        total = total + term if pos % 2 == 0 else total - term
    return total


def pfaffian_last_row(m: AlternatingMatrix, subset=None) -> SparsePolynomial:
    """Same pfaffian by expansion along the last row (implementation cross-check)."""
    idx = _check_subset(m, subset if subset is not None else range(1, m.size + 1))

    def rec(ind: tuple[int, ...]) -> SparsePolynomial:
        if not ind:
            return m.ring.one()
        last = ind[-1]
        total = m.ring.zero()
        for pos, other in enumerate(ind[:-1]):
            entry = m.upper.get((other, last))
            if entry is None:
                continue
            term = entry * rec(tuple(k for k in ind[:-1] if k != other))
            total = total + term if pos % 2 == 0 else total - term
        return total

    return rec(idx)


def sub_pfaffians(m: AlternatingMatrix) -> list[SparsePolynomial]:
    """The polynomials p_1..p_m, p_i from deleting row and column i; the
    matrix must have odd size.  Each p_i is homogeneous of degree d_i."""
    if m.size % 2 == 0:
        raise DomainError("input-error", f"need odd size, got {m.size}")
    one, zero, memo = m.ring.one(), m.ring.zero(), {}
    full = tuple(range(1, m.size + 1))
    return [
        _pf(m.upper, tuple(k for k in full if k != i), one, zero, memo)
        for i in full
    ]


def pfaffian_int(mat) -> int:
    """Pfaffian of an integer alternating matrix (0-based list of rows), by
    the same first-row expansion as ``pfaffian``."""
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
    upper = {(i, j): mat[i][j] for i in range(n) for j in range(i + 1, n) if mat[i][j]}
    return _pf(upper, tuple(range(n)), 1, 0, {})


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
