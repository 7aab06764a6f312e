"""Hilbert-function arithmetic against independent brute-force oracles."""

import re
import time
from fractions import Fraction
from itertools import combinations_with_replacement
from math import comb

import pytest
from hypothesis import given
from hypothesis import strategies as st

from aci3 import (
    BettiTable,
    DomainError,
    HilbertFunction,
    as_delta,
    ci_hilbert,
    difference,
    hilbert_from_betti,
    koszul_table,
    min_generator_bound,
    recognize_ci,
    socle_degree,
)
from aci3.classify import enumerate_tables, h_window
from aci3.hilbert import as_degrees, betti_alternating_sum
from aci3.liaison import mapping_cone_twists


def poly_mul(a, b):
    """Schoolbook polynomial product, independent of the convolution in ci_hilbert."""
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            out[i + j] += ai * bj
    return out


def oracle_ci(degs):
    p = [1]
    for d in degs:
        p = poly_mul(p, [1] * d)
    return tuple(p)


def count_monomials(degree, c):
    """Enumerative oracle for the binomial convention in hilbert_from_betti."""
    if degree < 0:
        return 0
    return sum(1 for _ in combinations_with_replacement(range(c), degree))


def all_sorted_tuples(r, lo, hi):
    return combinations_with_replacement(range(lo, hi + 1), r)


class TestHilbertFunction:
    def test_canonical_trim(self):
        assert HilbertFunction((1, 3, 3, 1, 0, 0)).values == (1, 3, 3, 1)
        assert HilbertFunction(()).is_zero
        assert HilbertFunction((0, 0)).is_zero

    def test_trims_a_long_zero_tail_in_one_pass(self):
        # trimming one zero at a time by copying was quadratic in the tail
        start = time.perf_counter()
        assert HilbertFunction((1, 3) + (0,) * 10**6).values == (1, 3)
        assert time.perf_counter() - start < 2.0

    def test_rejects_negative_and_bad_start(self):
        with pytest.raises(DomainError):
            HilbertFunction((1, -1))
        with pytest.raises(DomainError):
            HilbertFunction((2, 1))
        with pytest.raises(DomainError, match="negative value") as exc:
            HilbertFunction((1, 3, -1))
        assert exc.value.code == "not-hilbert-function"

    @pytest.mark.parametrize("values, bad", [
        ((1, 2.7, True), "2.7"),     # once read as (1, 2, 1) by truncation
        ((1, 2.0), "2.0"), ((1, "2"), "'2'"), ((True, 2), "True"),
        ((1, Fraction(2)), "Fraction(2, 1)"),
    ], ids=repr)
    def test_values_must_be_ints(self, values, bad):
        with pytest.raises(DomainError, match=re.escape(f"got {bad}")) as exc:
            HilbertFunction(values)
        assert exc.value.code == "input-error"

    def test_at_outside_support(self):
        h = HilbertFunction((1, 2, 1))
        assert h.at(-1) == 0 and h.at(5) == 0 and h.at(1) == 2


class TestCiHilbert:
    def test_binomial_case(self):
        assert ci_hilbert((2, 2, 2)).values == (1, 3, 3, 1)

    def test_frozen_derived_values(self):
        # frozen from the independent product oracle
        assert oracle_ci((3, 3, 3)) == (1, 3, 6, 7, 6, 3, 1)
        assert ci_hilbert((3, 3, 3)).values == (1, 3, 6, 7, 6, 3, 1)
        assert oracle_ci((2, 2, 3)) == (1, 3, 4, 3, 1)
        assert ci_hilbert((2, 2, 3)).values == (1, 3, 4, 3, 1)

    def test_empty_tuple(self):
        assert ci_hilbert(()).values == (1,)

    def test_matches_oracle_exhaustively(self):
        for r in range(0, 4):
            for degs in all_sorted_tuples(r, 1, 6):
                assert ci_hilbert(degs).values == oracle_ci(degs)

    def test_gorenstein_symmetry(self):
        for degs in all_sorted_tuples(3, 2, 6):
            h = ci_hilbert(degs)
            e = socle_degree(h)
            assert all(h.at(n) == h.at(e - n) for n in range(e + 1))

    def test_value_at_one_is_product(self):
        for degs in all_sorted_tuples(3, 1, 6):
            prod = 1
            for d in degs:
                prod *= d
            assert ci_hilbert(degs).total() == prod

    def test_length(self):
        for degs in all_sorted_tuples(3, 2, 5):
            assert len(ci_hilbert(degs).values) == 1 + sum(d - 1 for d in degs)


class TestDifference:
    def test_order_zero_is_identity(self):
        assert difference(HilbertFunction((1, 3, 3, 1)), 0) == (1, 3, 3, 1)

    def test_first_difference(self):
        assert difference(HilbertFunction((1, 2, 1)), 1) == (1, 1, -1, -1)

    def test_third_difference_of_ci_aaa(self):
        # third difference of H_CI(3,3,3) at degree 2a = 6 equals 3
        d3 = difference(ci_hilbert((3, 3, 3)), 3)
        assert d3[6] == 3

    def test_order_c_sums_to_zero(self):
        for degs in all_sorted_tuples(3, 2, 5):
            assert sum(difference(ci_hilbert(degs), 3)) == 0

    def test_negative_order_rejected(self):
        with pytest.raises(DomainError):
            difference(HilbertFunction((1,)), -1)


class TestSocleDegree:
    def test_values(self):
        assert socle_degree(HilbertFunction((1, 3, 3, 1))) == 3
        assert socle_degree(ci_hilbert((2, 2, 3))) == 4  # sum - r = 7 - 3
        assert socle_degree(HilbertFunction((1,))) == 0

    def test_zero_function_rejected(self):
        with pytest.raises(DomainError, match="zero algebra"):
            socle_degree(HilbertFunction(()))


class TestHilbertFromBetti:
    def test_binomial_convention_against_enumeration(self):
        for c in range(1, 5):
            for d in range(-2, 9):
                from aci3.hilbert import _monomial_count
                assert _monomial_count(d, c) == count_monomials(d, c)

    def test_koszul_of_222(self):
        table = BettiTable(3, ((0,), (2, 2, 2), (4, 4, 4), (6,)))
        assert hilbert_from_betti(table).values == (1, 3, 3, 1)

    def test_rigid_table_a2(self):
        table = BettiTable(3, ((0,), (2, 2, 2, 3), (3, 4, 4, 4, 5), (5, 6)))
        assert hilbert_from_betti(table).values == (1, 3, 3, 1)

    def test_koszul_tables_reproduce_ci(self):
        for r in range(1, 4):
            for degs in all_sorted_tuples(r, 1, 5):
                assert hilbert_from_betti(koszul_table(degs)) == ci_hilbert(degs)

    def test_non_artinian_rejected(self):
        # resolution of a single linear form in three variables
        table = BettiTable(3, ((0,), (1,), (), ()))
        with pytest.raises(DomainError, match="non-finitely-supported"):
            hilbert_from_betti(table)
        # the raw alternating sum is still available and grows linearly
        assert betti_alternating_sum(table, 4) == (1, 2, 3, 4, 5)

    def test_negative_value_rejected(self):
        table = BettiTable(1, ((0,), (1, 1)))
        with pytest.raises(DomainError, match="not a Hilbert function"):
            hilbert_from_betti(table)


@st.composite
def betti_tables(draw):
    c = draw(st.integers(1, 4))
    levels = [(0,)] + [tuple(draw(st.lists(st.integers(0, 12), max_size=6)))
                       for _ in range(c)]
    return BettiTable(c, tuple(levels))


class TestBettiAlternatingSum:
    @given(betti_tables(), st.integers(0, 25))
    def test_against_binomial_formula(self, table, upto):
        c = table.c
        want = tuple(
            sum((-1) ** i * comb(n - j + c - 1, c - 1)
                for i, level in enumerate(table.levels) for j in level if j <= n)
            for n in range(upto + 1))
        assert betti_alternating_sum(table, upto) == want


class TestRecognizeCi:
    def test_frozen_cases(self):
        assert recognize_ci(HilbertFunction((1, 3, 3, 1))) == (2, 2, 2)
        assert recognize_ci(HilbertFunction((1, 3, 1))) is None
        assert recognize_ci(HilbertFunction((1, 2, 1))) == (2, 2)

    def test_131_by_exhaustion(self):
        # no triple with entries 2..4 produces (1, 3, 1): 3 factors of degree
        # >= 1 each make the socle degree at least 3
        for degs in all_sorted_tuples(3, 2, 4):
            assert ci_hilbert(degs).values != (1, 3, 1)

    def test_round_trip(self):
        for r in range(0, 4):
            for degs in all_sorted_tuples(r, 2, 6):
                assert recognize_ci(ci_hilbert(degs)) == degs

    def test_lexicographically_least(self):
        # (1-t)^r H(t) determines the degrees, so the answer is the only one
        h = ci_hilbert((2, 4))
        found = recognize_ci(h)
        assert found is not None
        assert ci_hilbert(found) == h

    def test_non_ci_sequences(self):
        assert recognize_ci(HilbertFunction((1, 2, 2, 1, 1))) is None
        # (1,2,2,2,2,1) on the other hand is ci(2,5)
        assert recognize_ci(HilbertFunction((1, 2, 2, 2, 2, 1))) == (2, 5)


degree_tuples = st.lists(st.integers(2, 12), max_size=5).map(lambda d: tuple(sorted(d)))


def sound(h):
    """recognize_ci answers only degrees whose CI has Hilbert function h."""
    found = recognize_ci(h)
    return found is None or ci_hilbert(found) == h


class TestHilbertSeriesRule:
    """H_CI(t) = prod_i (1 - t^(a_i)) / (1 - t)^r, on generated degree tuples."""

    @given(degree_tuples.filter(len))
    def test_koszul_table_gives_ci_hilbert(self, degs):
        assert hilbert_from_betti(koszul_table(degs)) == ci_hilbert(degs)

    @given(degree_tuples)
    def test_recognize_inverts_ci_hilbert(self, degs):
        assert recognize_ci(ci_hilbert(degs)) == degs

    @given(st.lists(st.integers(0, 8), max_size=12))
    def test_recognize_is_sound_on_arbitrary_h(self, tail):
        assert sound(HilbertFunction((1, *tail)))

    @given(degree_tuples, st.data())
    def test_recognize_is_sound_on_changed_ci(self, degs, data):
        values = list(ci_hilbert(degs).values) + [0]
        n = data.draw(st.integers(1, len(values) - 1))
        values[n] = data.draw(st.integers(0, values[n] + 3).filter(lambda v: v != values[n]))
        assert sound(HilbertFunction(tuple(values)))


class TestMinGeneratorBound:
    def test_gorenstein_131_needs_five(self):
        assert min_generator_bound(HilbertFunction((1, 3, 1)), 3, 2) == 5

    def test_ci_222(self):
        assert min_generator_bound(ci_hilbert((2, 2, 2)), 3, 2) == 3

    def test_no_quadric_generators(self):
        h = HilbertFunction((1, 3, 6, 7))
        assert min_generator_bound(h, 3, 2) == 0

    def test_not_a_hilbert_function(self):
        with pytest.raises(DomainError, match="not a Hilbert function"):
            min_generator_bound(HilbertFunction((1, 9)), 2, 1)


def outcome(build, values):
    """What ``build(values)`` returns, or the code and message it raises."""
    try:
        return build(values)
    except DomainError as exc:
        return exc.code, str(exc)


class TestAsDegrees:
    def test_validation(self):
        with pytest.raises(DomainError, match="sorted ascending"):
            as_degrees((3, 2))
        with pytest.raises(DomainError, match=">= 1"):
            as_degrees((0, 2))
        assert as_degrees((2, 2, 3)) == (2, 2, 3)
        # each once read with int(), which truncates and parses
        for degrees in (("3", "4"), (Fraction(7, 2), 4), (2.9, 3), (True, 2), (2.0, 3)):
            with pytest.raises(DomainError, match=re.escape(f"got {degrees[0]!r}")):
                as_degrees(degrees)

    @given(st.lists(st.integers(-1, 9), max_size=9))
    def test_one_rule_one_place(self, values):
        # as_degrees states the degree-sequence rule; as_delta accepts exactly
        # the degree sequences of odd length >= 3, checks the length first
        # and refuses the rest as as_degrees does
        values = tuple(values)
        degrees = values == tuple(sorted(values)) and all(v >= 1 for v in values)
        got = outcome(as_degrees, values)
        assert (got == values) if degrees else (got[0] == "input-error")
        delta = outcome(as_delta, values)
        if len(values) % 2 == 0 or len(values) < 3:
            assert delta == ("input-error", f"length must be odd and >= 3, got {len(values)}")
        elif degrees:
            assert delta == values and type(delta) is tuple
        else:
            assert delta == got


class TestBettiTable:
    def test_validation(self):
        with pytest.raises(DomainError):
            BettiTable(3, ((0,), (2,), (4,)))  # wrong level count
        with pytest.raises(DomainError):
            BettiTable(2, ((1,), (2,), (3,)))  # level 0 must be (0,)
        for level in ((5, -1), (-1, 5), (2, 7, -3, 4)):   # wherever the negative twist is
            with pytest.raises(DomainError, match=r"need twists >= 0, got -") as exc:
                BettiTable(3, ((0,), (2, 2, 2), level, (6,)))
            assert exc.value.code == "input-error"
        for c, level in ((3.0, (4,)), (True, (4,)), (0, (4,)), (3, (4.5,)), (3, (True,)),
                         (3, ("4",)), (3, (Fraction(4),))):
            with pytest.raises(DomainError) as exc:
                BettiTable(c, ((0,), (2, 2, 2), level, (6,)))
            assert exc.value.code == "input-error"

    def test_sorting_and_t(self):
        table = BettiTable(3, ((0,), (3, 2, 2), (4, 4, 5), (6, 7)))
        assert table.levels[1] == (2, 2, 3)
        assert table.t == 2

    def test_minimality_check(self):
        assert koszul_table((2, 2, 2)).is_minimal()
        cone_like = BettiTable(3, ((0,), (0, 2, 2), (4,), (6,)))
        assert not cone_like.is_minimal()

    def test_json_round_trip(self):
        table = koszul_table((2, 2, 3))
        assert BettiTable.from_json(table.to_json()) == table


@st.composite
def classified_tables(draw):
    """A node of enumerate_tables with a <= 6, or its mapping cone over (a, a, h)."""
    a = draw(st.integers(2, 6))
    h = draw(st.sampled_from(h_window(a).full))
    node = draw(st.sampled_from(enumerate_tables(a, h).nodes))
    return draw(st.sampled_from([node.table, mapping_cone_twists(node.table, (a, a, h)).table]))


class TestCancel:
    @given(classified_tables())
    def test_every_candidate_cancels_and_keeps_the_hilbert_function(self, table):
        hf = hilbert_from_betti(table)
        for i, j in table.candidates():
            got = table.cancel(i, (j,))
            assert [len(level) for level in got.levels] == [
                len(level) - (k in (i, i + 1)) for k, level in enumerate(table.levels)]
            assert hilbert_from_betti(got) == hf

    @given(classified_tables(), st.data())
    def test_a_twist_no_two_levels_share_is_refused(self, table, data):
        i = data.draw(st.integers(0, table.c - 1))
        j = data.draw(st.integers(0, table.max_twist() + 1)
                      .filter(lambda j: (i, j) not in table.candidates()))
        with pytest.raises(DomainError, match=f"twist {j} not present in ") as exc:
            table.cancel(i, (j,))
        assert exc.value.code == "couple-not-present"

    def test_candidates_count_the_shared_twists(self):
        table = BettiTable(3, ((0,), (2, 3, 3, 4), (3, 3, 3, 4, 4, 5), (5, 5)))
        assert table.candidates() == ((1, 3), (1, 3), (1, 4), (2, 5))
        assert table.cancel(1, (3, 4)).levels == ((0,), (2, 3), (3, 3, 4, 5), (5, 5))

    def test_level_i_is_checked_first(self):
        table = BettiTable(3, ((0,), (2,), (4,), (6,)))
        with pytest.raises(DomainError, match=re.escape("twist 6 not present in [4]")):
            table.cancel(2, (6,))
        with pytest.raises(DomainError, match=re.escape("twist 4 not present in [6]")):
            table.cancel(2, (4,))

    @pytest.mark.parametrize("i", [-1, 3, 1.0, True])
    def test_a_level_without_a_level_above_is_refused(self, i):
        with pytest.raises(DomainError) as exc:
            koszul_table((2, 2, 2)).cancel(i, (4,))
        assert exc.value.code == "input-error"


class TestSizeCaps:
    """Each cap admits its boundary call and rejects the next one as too-large."""

    def code(self, fn, *args):
        with pytest.raises(DomainError) as exc:
            fn(*args)
        return exc.value.code

    def test_ci_degree_sum(self):
        assert len(ci_hilbert((666, 667, 667)).values) == 1998
        assert self.code(ci_hilbert, (667, 667, 667)) == "too-large"

    def test_recognize_through_difference_work(self):
        # r = H(1) on r + 1 values takes r x (2r + 1) difference steps
        assert recognize_ci(ci_hilbert((2,) * 706)) == (2,) * 706   # 706 x 1413
        assert self.code(recognize_ci, ci_hilbert((2,) * 707)) == "too-large"

    def test_difference_work(self):
        assert len(difference(HilbertFunction((1, 2)), 999)) == 1001   # 999 x 1001 steps
        assert self.code(difference, HilbertFunction((1, 2)), 1000) == "too-large"

    def test_betti_sum_terms(self):
        # (top twist + 4) x (4 levels + 2 twists) terms
        at_cap = BettiTable(3, ((0,), (16662,), (), ()))
        assert self.code(hilbert_from_betti, at_cap) == "non-artinian"
        past_cap = BettiTable(3, ((0,), (16663,), (), ()))
        assert self.code(hilbert_from_betti, past_cap) == "too-large"

    def test_bound_degree_sum(self):
        # c + j, and c + the last degree of h, may reach 2000
        assert min_generator_bound(HilbertFunction((1, 3, 1)), 3, 1997) == 0
        assert self.code(min_generator_bound, HilbertFunction((1, 3, 1)), 3, 1998) == "too-large"
        ones = HilbertFunction((1,) * 1999)     # last degree 1998
        assert min_generator_bound(ones, 2, 0) == 0
        assert self.code(min_generator_bound, ones, 3, 0) == "too-large"
