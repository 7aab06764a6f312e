"""Koszul-homology Betti oracle and the exact integer linear algebra under it.

Ranks and determinants are cross-checked against a naive rational Gaussian
elimination written here with Fraction arithmetic.
"""

import random
from collections import Counter
from fractions import Fraction
from itertools import combinations, combinations_with_replacement
from math import comb

import pytest
from hypothesis import given
from hypothesis import strategies as st

from aci3 import (
    BettiTable,
    DomainError,
    MonomialIdeal,
    aci_construction,
    betti_numbers,
    enumerate_tables,
    hilbert_from_betti,
    hilbert_function,
    koszul_table,
    rigid_witness,
    strand_matrices,
    verify_resolution,
)
from aci3.intmat import int_det, int_rank
from aci3.koszul import multidegree_blocks
from aci3.monomials import minimalize, standard_monomials


def fraction_rank(rows):
    m = [[Fraction(x) for x in row] for row in rows]
    if not m or not m[0]:
        return 0
    nr, nc = len(m), len(m[0])
    rank = 0
    for col in range(nc):
        pivot = next((i for i in range(rank, nr) if m[i][col]), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        inv = 1 / m[rank][col]
        m[rank] = [x * inv for x in m[rank]]
        for i in range(nr):
            if i != rank and m[i][col]:
                fac = m[i][col]
                m[i] = [x - fac * y for x, y in zip(m[i], m[rank])]
        rank += 1
        if rank == nr:
            break
    return rank


def fraction_det(mat):
    m = [[Fraction(x) for x in row] for row in mat]
    n = len(m)
    det = Fraction(1)
    for col in range(n):
        pivot = next((i for i in range(col, n) if m[i][col]), None)
        if pivot is None:
            return 0
        if pivot != col:
            m[col], m[pivot] = m[pivot], m[col]
            det = -det
        det *= m[col][col]
        inv = 1 / m[col][col]
        for i in range(col + 1, n):
            fac = m[i][col] * inv
            if fac:
                m[i] = [x - fac * y for x, y in zip(m[i], m[col])]
    return det


def random_matrix(rng, rows, cols, bound=6):
    return [[rng.randint(-bound, bound) for _ in range(cols)] for _ in range(rows)]


def assert_composes_to_zero(mats):
    """mats[i-1] maps position i to i-1; each consecutive product is zero."""
    for lower, upper in zip(mats, mats[1:]):
        if not lower or not upper or not lower[0]:
            continue
        rows, mid, cols = len(lower), len(upper), len(upper[0])
        assert len(lower[0]) == mid
        for i in range(rows):
            for jj in range(cols):
                assert sum(lower[i][k] * upper[k][jj] for k in range(mid)) == 0


def whole_strand_table(ideal):
    """Betti table from the rank of each whole degree strand: the reference
    the multidegree-blocked oracle is checked against."""
    std = standard_monomials(ideal)
    c = ideal.c
    levels = [[] for _ in range(c + 1)]
    for j in range(len(std) + c):
        ranks = [int_rank(m) for m in strand_matrices(ideal, j)]
        for i in range(c + 1):
            dim = comb(c, i) * (len(std[j - i]) if 0 <= j - i < len(std) else 0)
            beta = dim - (ranks[i - 1] if i >= 1 else 0) - (ranks[i] if i < c else 0)
            levels[i].extend([j] * beta)
    return BettiTable(c, tuple(tuple(sorted(level)) for level in levels))


@st.composite
def artinian_ideals(draw):
    """Pure powers plus up to three mixed generators, in 1 to 4 variables."""
    c = draw(st.sampled_from((1, 2, 3, 4)))
    # whole-strand ranks of a c = 4 instance with exponents 5 take seconds
    top = 5 if c < 4 else 3
    powers = draw(st.lists(st.integers(1, top), min_size=c, max_size=c))
    gens = [tuple(p if k == i else 0 for k in range(c)) for i, p in enumerate(powers)]
    extra = st.tuples(*(st.integers(0, p - 1) for p in powers))
    for g in draw(st.lists(extra, max_size=3)):
        if sum(e > 0 for e in g) >= 2:
            gens.append(g)
    return minimalize(gens, c)


# Shapes that exercise each branch of the shared elimination core.
ECHELON_CASES = [
    pytest.param([[0, 0, 1, 2], [0, 0, 3, 4], [0, 0, 5, 7]], id="zero-leading-columns"),
    pytest.param([[0, 0, 0], [0, 2, 1], [0, 4, 3]], id="zero-leading-column-square"),
    pytest.param([[1, 0, 2], [3, 0, 4], [5, 0, 6]], id="zero-middle-column-square"),
    pytest.param([[1, 2], [3, 4], [5, 6], [7, 8], [0, 1]], id="tall"),
    pytest.param([[0], [0], [3]], id="tall-single-column"),
    pytest.param([[1, 2, 3, 4, 5], [2, 4, 6, 8, 11]], id="wide"),
    pytest.param([[0, 0, 0, 7], [0, 0, 0, 0]], id="wide-pivot-in-last-column"),
    pytest.param([[1, 2, 3], [2, 4, 6], [1, 0, 1]], id="singular-square"),
    pytest.param([[2, 4], [3, 6]], id="singular-square-2x2"),
    pytest.param([[0, 0], [0, 0]], id="zero-square"),
    pytest.param([[0, 1], [1, 0]], id="row-swap"),
    pytest.param([[0, 2, 1], [3, 1, 0], [1, 0, 2]], id="row-swap-3x3"),
    pytest.param([[0, 0, 1], [0, 1, 0], [1, 0, 0]], id="anti-diagonal"),
]


class TestIntMat:
    @pytest.mark.parametrize("m", ECHELON_CASES)
    def test_echelon_cases(self, m):
        assert int_rank(m) == fraction_rank(m)
        if len(m) == len(m[0]):
            assert int_det(m) == fraction_det(m)

    def test_row_swap_flips_sign(self):
        assert int_det([[0, 1], [1, 0]]) == -1
        assert int_det([[0, 0, 1], [0, 1, 0], [1, 0, 0]]) == -1

    def test_det_rejects_non_square(self):
        with pytest.raises(ValueError):
            int_det([[1, 2, 3], [4, 5, 6]])

    def test_rank_against_fraction_oracle(self):
        rng = random.Random(1)
        for _ in range(60):
            rows, cols = rng.randint(1, 7), rng.randint(1, 7)
            m = random_matrix(rng, rows, cols)
            assert int_rank(m) == fraction_rank(m)

    def test_rank_low_rank_matrices(self):
        rng = random.Random(2)
        for _ in range(30):
            # build a product of thin matrices to force low rank
            r = rng.randint(1, 3)
            a = random_matrix(rng, 6, r)
            b = random_matrix(rng, r, 5)
            m = [[sum(a[i][k] * b[k][j] for k in range(r)) for j in range(5)]
                 for i in range(6)]
            assert int_rank(m) == fraction_rank(m) <= r

    def test_rank_permutation_invariance(self):
        rng = random.Random(3)
        m = random_matrix(rng, 6, 6)
        base = int_rank(m)
        for _ in range(10):
            rows = list(range(6))
            cols = list(range(6))
            rng.shuffle(rows)
            rng.shuffle(cols)
            perm = [[m[i][j] for j in cols] for i in rows]
            assert int_rank(perm) == base

    def test_det_against_fraction_oracle(self):
        rng = random.Random(4)
        for n in (1, 2, 3, 4, 5):
            for _ in range(20):
                m = random_matrix(rng, n, n)
                assert int_det(m) == fraction_det(m)

    def test_det_known_values(self):
        assert int_det([[0, 5], [-5, 0]]) == 25
        assert int_det([[2, 0], [0, 3]]) == 6
        assert int_det([[1, 2], [2, 4]]) == 0

    def test_empty(self):
        assert int_rank([]) == 0
        assert int_det([]) == 1


class TestBettiNumbers:
    def test_ci_koszul_case(self):
        ideal = MonomialIdeal(3, ((2, 0, 0), (0, 2, 0), (0, 0, 2)))
        assert betti_numbers(ideal).levels == ((0,), (2, 2, 2), (4, 4, 4), (6,))

    def test_rigid_a2(self):
        assert betti_numbers(rigid_witness(2)).levels == (
            (0,), (2, 2, 2, 3), (3, 4, 4, 4, 5), (5, 6))

    def test_aci_222_h3(self):
        ideal = aci_construction((2, 2, 2), 3)
        table = betti_numbers(ideal)
        assert table.levels[1] == (2, 2, 2, 3)
        assert hilbert_from_betti(table).values == (1, 3, 3, 1)

    def test_ci_tables_exhaustively(self):
        for degs in combinations_with_replacement(range(1, 6), 3):
            gens = tuple(
                tuple(d if k == i else 0 for k in range(3))
                for i, d in enumerate(degs)
            )
            assert betti_numbers(MonomialIdeal(3, gens)) == koszul_table(degs)

    def test_two_and_four_variables(self):
        ideal2 = MonomialIdeal(2, ((2, 0), (0, 3)))
        assert betti_numbers(ideal2) == koszul_table((2, 3))
        ideal4 = MonomialIdeal(4, tuple(
            tuple(2 if k == i else 0 for k in range(4)) for i in range(4)))
        assert betti_numbers(ideal4) == koszul_table((2, 2, 2, 2))
        # the largest box the exponent-box cap admits in 4 variables
        ci10 = MonomialIdeal(4, tuple(
            tuple(10 if k == i else 0 for k in range(4)) for i in range(4)))
        assert betti_numbers(ci10) == koszul_table((10, 10, 10, 10))

    def test_generator_degrees_at_level_one(self):
        for ideal in (aci_construction((2, 3, 4), 5), rigid_witness(3)):
            table = betti_numbers(ideal)
            assert table.levels[1] == tuple(sorted(sum(g) for g in ideal.gens))
            assert table.levels[0] == (0,)

    def test_euler_characteristic_reproduces_hilbert(self):
        for ideal in (
            aci_construction((2, 2, 3), 4),
            aci_construction((3, 3, 3), 5),
            rigid_witness(4),
            MonomialIdeal(3, ((2, 0, 0), (0, 2, 0), (0, 0, 2), (1, 1, 1))),
        ):
            assert hilbert_from_betti(betti_numbers(ideal)) == hilbert_function(ideal)

    def test_top_socle_twist_present(self):
        ideal = aci_construction((2, 2, 3), 4)
        h = hilbert_function(ideal)
        top = betti_numbers(ideal).levels[3]
        assert max(top) == len(h.values) - 1 + 3

    def test_monomial_aci_tables_are_classified(self):
        # every monomial witness lands on one of the enumerated tables
        for a in (2, 3):
            for h in range(a + 1, 2 * a):
                table = betti_numbers(aci_construction((a, a, a), h))
                poset = enumerate_tables(a, h)
                assert any(node.table == table for node in poset.nodes)

    def test_differentials_compose_to_zero(self):
        ideal = aci_construction((2, 3, 4), 5)
        std = standard_monomials(ideal)
        for j in range(0, len(std) + 3):
            assert_composes_to_zero(strand_matrices(ideal, j))

    def test_non_artinian_rejected(self):
        with pytest.raises(DomainError):
            betti_numbers(MonomialIdeal(3, ((2, 0, 0), (0, 2, 0))))

    def test_too_many_variables_rejected(self):
        ideal = MonomialIdeal(5, tuple(
            tuple(2 if k == i else 0 for k in range(5)) for i in range(5)))
        with pytest.raises(DomainError, match="variables"):
            betti_numbers(ideal)

    def test_size_guard(self):
        # the exponent box of 20^4 = 160000 monomials exceeds the 10^4 cap
        ideal = MonomialIdeal(4, tuple(
            tuple(20 if k == i else 0 for k in range(4)) for i in range(4)))
        with pytest.raises(DomainError, match="exponent box of 160000 monomials too large"):
            betti_numbers(ideal)


class TestStrandBlocks:
    IDEALS = (
        aci_construction((2, 3, 4), 5),
        rigid_witness(4),
        # (x, y, z)^4: a thin staircase far below most of its widened box
        MonomialIdeal(3, [(i, j, 4 - i - j) for i in range(5) for j in range(5 - i)]),
        # four variables, not a complete intersection
        MonomialIdeal(4, ((3, 0, 0, 0), (0, 2, 0, 0), (0, 0, 2, 0), (0, 0, 0, 3),
                          (1, 1, 0, 1), (2, 0, 1, 0), (0, 1, 1, 2))),
        MonomialIdeal(1, ((4,),)),
    )

    def test_block_bases_partition_the_strand(self):
        # the returned blocks, all of non-standard b, and the left-out blocks
        # of the standard b, each holding every subset of supp(b), together
        # partition every strand
        for ideal in self.IDEALS:
            c = ideal.c
            h = hilbert_function(ideal).values
            std = {m for bucket in standard_monomials(ideal) for m in bucket}
            size = Counter()    # (degree j, position i) -> basis elements
            for b, bases, _ in multidegree_blocks(ideal):
                assert b not in std
                for i, basis in enumerate(bases):
                    for S in basis:
                        assert len(S) == i
                        assert tuple(e - (k in S) for k, e in enumerate(b)) in std
                    size[sum(b), i] += len(basis)
            for b in std:
                support = [k for k, e in enumerate(b) if e]
                for i in range(c + 1):
                    basis = [S for S in combinations(range(c), i)
                             if tuple(e - (k in S) for k, e in enumerate(b)) in std]
                    assert basis == list(combinations(support, i))
                    size[sum(b), i] += len(basis)
            for j in range(len(h) + c):
                for i in range(c + 1):
                    dim = h[j - i] if 0 <= j - i < len(h) else 0
                    assert size[j, i] == comb(c, i) * dim

    def test_block_differentials_compose_to_zero(self):
        for ideal in self.IDEALS:
            for _, _, mats in multidegree_blocks(ideal):
                assert_composes_to_zero(mats)

    @given(artinian_ideals())
    def test_blocked_oracle_matches_whole_strands(self, ideal):
        table = betti_numbers(ideal)
        assert table == whole_strand_table(ideal)
        assert hilbert_from_betti(table) == hilbert_function(ideal)


class TestVerifyResolution:
    def test_match(self):
        a = 3
        expected = BettiTable(3, (
            (0,),
            tuple(sorted((a, a, a, a + 1))),
            tuple(sorted((2 * a, 2 * a, 2 * a, 2 * a + 1, a + 1))),
            (2 * a + 1, 3 * a),
        ))
        ok, diffs = verify_resolution(rigid_witness(a), expected)
        assert ok and diffs == []

    def test_mismatch_reports_level_one(self):
        ci = MonomialIdeal(3, ((2, 0, 0), (0, 2, 0), (0, 0, 2)))
        expected = BettiTable(3, ((0,), (2, 2, 2, 3), (3, 4, 4, 4, 5), (5, 6)))
        ok, diffs = verify_resolution(ci, expected)
        assert not ok
        assert 1 in [d["level"] for d in diffs]

    def test_level1_of_aci_333_h4(self):
        ideal = aci_construction((3, 3, 3), 4)
        expected = BettiTable(3, ((0,), (3, 3, 3, 4), (4, 6, 6, 6, 7), (7, 9)))
        ok, diffs = verify_resolution(ideal, expected)
        assert ok, diffs
