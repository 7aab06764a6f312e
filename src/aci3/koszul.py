"""Graded Betti numbers of artinian monomial quotients via Koszul homology.

For R = k[x_1..x_c] and an artinian monomial ideal I, the Betti number
beta_{i,j} of R/I is the dimension of the homology in position i of the
internal-degree-j strand of (R/I) tensored with the Koszul complex on the
variables.  The strand in position i has basis e_S (x) m with S an i-element
subset of the variables and m a standard monomial of degree j - i; the
differential sends e_S (x) m to

    sum over s in S of (-1)^(position of s in sorted S) e_{S - s} (x) x_s m,

dropping terms where x_s m lands inside I.  Any consistent sign convention
yields the same homology dimensions; this one is fixed for reproducibility.

The differential preserves the Z^c multidegree b = m + 1_S, so each strand
is the direct sum of its multidegree blocks.  The block of b depends on b
alone: in position i it has the i-subsets S of supp(b) with b - 1_S
standard; for c = 3 its matrices are at most 3 x 3.  When b is standard,
so is every b - 1_S, and the block is the Koszul complex of the full simplex
on supp(b): exact unless b = 0, which carries beta_{0,0} = 1
(Miller-Sturmfels, Combinatorial Commutative Algebra, Thm 1.34).  When
b - 1_supp(b), the least b - 1_S, is not standard, the block is empty.
``multidegree_blocks`` walks the box below the pure powers, widened by one,
and builds the block of every other b; ``betti_numbers`` reads beta_{i,b} =
|bases_i| - rank M_i - rank M_{i+1} off each.  ``strand_matrices`` builds a
whole strand and is kept as the cross-check the tests compare against.

Matrices have entries in {-1, 0, 1}; ranks are computed by fraction-free
integer elimination, so the answers are exact characteristic-zero values.

This module is the in-process oracle against which every displayed
resolution with a monomial witness is checked.
"""

from __future__ import annotations

from itertools import combinations, product

from .errors import DomainError, as_ints
from .hilbert import BettiTable
from .intmat import int_rank
from .monomials import MonomialIdeal, standard_monomials

MAX_VARIABLES = 4


def _check_instance(ideal: MonomialIdeal) -> list[list[tuple[int, ...]]]:
    """The standard monomials by degree; the exponent-box cap of
    ``standard_monomials`` bounds every strand."""
    if ideal.c > MAX_VARIABLES:
        raise DomainError("too-large", f"supported up to {MAX_VARIABLES} variables, got {ideal.c}")
    if ideal.is_unit:
        raise DomainError("input-error", "quotient by the unit ideal is the zero algebra")
    return standard_monomials(ideal)  # raises on non-artinian input


def strand_matrices(ideal: MonomialIdeal, j: int) -> list[list[list[int]]]:
    """Differential matrices of the degree-j Koszul strand.

    Returns [M_1, ..., M_c] where M_i is the matrix of the map from position
    i to position i-1 (rows indexed by the target basis).  Exposed as the
    whole-strand cross-check of ``betti_numbers``, and so tests can assert
    that consecutive differentials compose to zero.
    """
    as_ints((j,), "degree j")
    std = _check_instance(ideal)
    c = ideal.c

    def basis(i: int):
        d = j - i
        monos = std[d] if 0 <= d < len(std) else []
        return [(S, m) for S in combinations(range(c), i) for m in monos]

    bases = [basis(i) for i in range(c + 1)]
    index = [{key: pos for pos, key in enumerate(b)} for b in bases]
    in_ideal = ideal.contains

    mats = []
    for i in range(1, c + 1):
        rows = len(bases[i - 1])
        cols = len(bases[i])
        mat = [[0] * cols for _ in range(rows)]
        for col, (S, m) in enumerate(bases[i]):
            for pos, s in enumerate(S):
                m2 = tuple(e + 1 if k == s else e for k, e in enumerate(m))
                if in_ideal(m2):
                    continue
                Srem = S[:pos] + S[pos + 1:]
                row = index[i - 1][(Srem, m2)]
                mat[row][col] += -1 if pos % 2 else 1
        mats.append(mat)
    return mats


def multidegree_blocks(ideal: MonomialIdeal):
    """The Koszul blocks of the non-standard multidegrees, the only ones
    besides b = 0 that can carry homology.

    Returns a list of (b, bases, mats), in increasing order of b.  bases[i]
    lists the i-subsets S with b - 1_S standard (bases[0] is empty, since b
    is not standard), and mats[i-1] is the block of the map from position i
    to position i-1 (rows indexed by bases[i-1]), with the signs of
    ``strand_matrices``.
    """
    std = _check_instance(ideal)
    c = ideal.c
    standard = {m for bucket in std for m in bucket}
    # the box below the pure powers (each is top + 1), widened by one
    box = product(*(range(top + 2) for top in map(max, zip(*standard))))
    blocks = []
    for b in box:
        # skip the exact full-simplex blocks and the empty ones
        if b in standard or tuple([e - (e > 0) for e in b]) not in standard:
            continue
        support = [k for k, e in enumerate(b) if e]
        bases = [[S for S in combinations(support, i)
                  if tuple([e - (k in S) for k, e in enumerate(b)]) in standard]
                 for i in range(c + 1)]
        mats = []
        for i in range(1, c + 1):
            # S - s is in the target basis exactly when x_s (b - 1_S) is standard
            index = {S: row for row, S in enumerate(bases[i - 1])}
            mat = [[0] * len(bases[i]) for _ in bases[i - 1]]
            for col, S in enumerate(bases[i]):
                for pos in range(i):
                    row = index.get(S[:pos] + S[pos + 1:])
                    if row is not None:
                        mat[row][col] = -1 if pos % 2 else 1
            mats.append(mat)
        blocks.append((b, bases, mats))
    return blocks


def betti_numbers(ideal: MonomialIdeal) -> BettiTable:
    """Exact graded Betti table of R/I for an artinian monomial ideal I."""
    levels: list[list[int]] = [[0]] + [[] for _ in range(ideal.c)]
    for b, bases, mats in multidegree_blocks(ideal):
        # ranks[i] = rank of the block map from position i to i-1; zero at both ends
        ranks = [0] + [int_rank(mat) if mat and mat[0] else 0 for mat in mats] + [0]
        for i, basis in enumerate(bases):
            levels[i].extend([sum(b)] * (len(basis) - ranks[i] - ranks[i + 1]))
    return BettiTable(ideal.c, tuple(tuple(sorted(level)) for level in levels))


def compare_tables(computed: BettiTable, expected: BettiTable):
    """Compare a computed Betti table with an expected one.

    Returns (ok, diffs) where diffs lists one entry per mismatching level.
    """
    if expected.c != computed.c:
        return False, [{"level": None,
                        "expected": f"c = {expected.c}",
                        "computed": f"c = {computed.c}"}]
    diffs = [{"level": i, "expected": list(want), "computed": list(got)}
             for i, (got, want) in enumerate(zip(computed.levels, expected.levels))
             if got != want]
    return not diffs, diffs


def verify_resolution(ideal: MonomialIdeal, expected: BettiTable):
    """Compare the oracle's Betti table with an expected one.

    Returns (ok, diffs) where diffs lists one entry per mismatching level.
    """
    return compare_tables(betti_numbers(ideal), expected)
