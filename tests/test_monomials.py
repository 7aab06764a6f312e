"""Monomial-ideal arithmetic; Hilbert functions are cross-checked against an
inclusion-exclusion oracle that never enumerates standard monomials."""

from itertools import combinations, combinations_with_replacement, product
from math import comb

import pytest
from hypothesis import given
from hypothesis import strategies as st

from aci3 import (
    DomainError,
    MonomialIdeal,
    aci_construction,
    ci_hilbert,
    ci_type,
    colon,
    hilbert_function,
    intersect,
    is_artinian,
    minimalize,
    monomials,
    rigid_witness,
    standard_monomials,
)
from aci3.monomials import (
    MAX_JSON_GENERATORS,
    MAX_STANDARD_BOX,
    divides,
    format_monomial,
    m_lcm,
)


def oracle_hilbert(ideal, top):
    """dim (R/I)_n by inclusion-exclusion over generator subsets:
    #(multiples of m in degree n) = C(n - deg m + c - 1, c - 1)."""
    c = ideal.c

    def count_at(n):
        if n < 0:
            return 0
        return comb(n + c - 1, c - 1)

    vals = []
    for n in range(top + 1):
        in_ideal = 0
        for k in range(1, len(ideal.gens) + 1):
            for subset in combinations(ideal.gens, k):
                lcm = subset[0]
                for g in subset[1:]:
                    lcm = m_lcm(lcm, g)
                term = count_at(n - sum(lcm))
                in_ideal += term if k % 2 else -term
        vals.append(count_at(n) - in_ideal)
    return tuple(vals)


def assert_matches_oracle(ideal):
    h = hilbert_function(ideal)
    top = len(h.values) + 2
    got = tuple(h.at(n) for n in range(top + 1))
    assert got == oracle_hilbert(ideal, top)


def box_walk(ideal, bounds):
    """Standard monomials by testing every point of the box below ``bounds``
    against every generator, bucketed by degree and sorted."""
    std = [m for m in product(*(range(b) for b in bounds))
           if not any(all(g_k <= m_k for g_k, m_k in zip(g, m)) for g in ideal.gens)]
    buckets = [[] for _ in range(max((sum(m) for m in std), default=-1) + 1)]
    for m in sorted(std):
        buckets[sum(m)].append(m)
    return buckets


@st.composite
def artinian_ideals(draw):
    """Pure powers of each of c = 2..4 variables plus up to four arbitrary
    monomials below them (so rarely an ACI); returns the ideal and powers."""
    c = draw(st.integers(2, 4))
    powers = draw(st.lists(st.integers(1, 6), min_size=c, max_size=c))
    gens = [tuple(p if k == i else 0 for k in range(c)) for i, p in enumerate(powers)]
    gens += draw(st.lists(st.tuples(*(st.integers(0, p - 1) for p in powers)), max_size=4))
    return minimalize(gens, c), powers


class TestStandardMonomials:
    @given(artinian_ideals())
    def test_against_box_walk(self, case):
        ideal, powers = case
        assert standard_monomials(ideal) == box_walk(ideal, powers)

    def test_unit_ideal_has_none(self):
        assert standard_monomials(MonomialIdeal(3, ((0, 0, 0),))) == []
        assert standard_monomials(MonomialIdeal(1, ((0,),))) == []

    def test_one_variable(self):
        assert standard_monomials(MonomialIdeal(1, ((3,),))) == [[(0,)], [(1,)], [(2,)]]


class TestMinimalize:
    def test_divisibility(self):
        assert minimalize([(2, 0), (3, 0), (0, 1)], 2).gens == ((0, 1), (2, 0))

    def test_antichain_is_kept(self):
        gens = [(1, 0, 1), (2, 0, 0), (0, 2, 0), (0, 0, 3)]
        assert set(minimalize(gens, 3).gens) == set(gens)

    def test_empty_is_zero_ideal(self):
        ideal = minimalize([], 3)
        assert ideal.is_zero

    def test_unit(self):
        ideal = minimalize([(0, 0), (1, 2)], 2)
        assert ideal.is_unit

    def test_constructor_minimalizes(self):
        # the constructor is the one path to the minimal generators
        assert MonomialIdeal(2, ((2, 0), (1, 0))).gens == ((1, 0),)
        gens = [[3, 0], [1, 1], [3, 0], [0, 1]]
        assert MonomialIdeal(2, gens).gens == ((0, 1), (3, 0))
        assert minimalize(gens, 2) == MonomialIdeal(2, gens)

    @pytest.mark.parametrize("c, gens", [
        (2, [(2.5, 0)]), (2, [("2", 0)]), (2, [(True, 0)]), (2, [(2, -1)]), (2, [(2, 0, 0)]),
        (2.0, [(2, 0)]), ("2", [(2, 0)]), (True, [(2,)]), (0, []),
    ], ids=repr)
    def test_exponents_and_c_must_be_integers(self, c, gens):
        with pytest.raises(DomainError) as exc:
            MonomialIdeal(c, gens)
        assert exc.value.code == "input-error"

    @given(st.integers(1, 4).flatmap(lambda c: st.tuples(
        st.just(c), st.lists(st.tuples(*[st.integers(0, 4)] * c), max_size=12))))
    def test_canonical_minimal_generators(self, case):
        c, gens = case
        ideal = MonomialIdeal(c, gens)
        # an antichain, in ascending degree and then descending lex order
        assert not any(divides(m, g) for m, g in combinations(ideal.gens, 2))
        assert not any(divides(g, m) for m, g in combinations(ideal.gens, 2))
        keys = [(sum(g), tuple(-e for e in g)) for g in ideal.gens]
        assert keys == sorted(keys)
        # the same ideal: its generators are given ones, and divide every given one
        assert set(ideal.gens) <= set(gens)
        assert all(ideal.contains(g) for g in gens)
        # idempotent
        assert MonomialIdeal(c, ideal.gens) == ideal

    def test_one_pass_over_the_kept_generators(self, monkeypatch):
        # an antichain of n generators costs n(n - 1)/2 divisibility tests
        gens = [(i, j, 44 - i - j) for i in range(45) for j in range(45 - i)][:1000]
        calls = 0

        def counted(d, m):
            nonlocal calls
            calls += 1
            return divides(d, m)
        monkeypatch.setattr(monomials, "divides", counted)
        assert len(MonomialIdeal(3, gens).gens) == 1000
        assert calls <= 1000 * 999 // 2


class TestHilbertFunction:
    def test_ci_koszul_case(self):
        ideal = MonomialIdeal(3, ((2, 0, 0), (0, 2, 0), (0, 0, 2)))
        assert hilbert_function(ideal).values == (1, 3, 3, 1)

    def test_aci_222_h3(self):
        ideal = MonomialIdeal(3, ((2, 0, 0), (0, 2, 0), (0, 0, 3), (1, 0, 1)))
        assert hilbert_function(ideal).values == (1, 3, 3, 1)

    def test_aci_234_h5(self):
        ideal = MonomialIdeal(3, ((2, 0, 0), (0, 3, 0), (0, 0, 5), (1, 1, 2)))
        assert hilbert_function(ideal).values == (1, 3, 5, 6, 5, 3, 1)
        assert hilbert_function(ideal) == ci_hilbert((2, 3, 4))

    def test_box_cap(self):
        # the exponent box below the pure powers may hold 10^4 monomials
        assert MAX_STANDARD_BOX == 10_000
        assert hilbert_function(MonomialIdeal(2, ((100, 0), (0, 100)))).total() == 10_000
        for walk in (standard_monomials, hilbert_function):
            with pytest.raises(DomainError, match="too large") as exc:
                walk(MonomialIdeal(2, ((73, 0), (0, 137))))   # 10^4 + 1
            assert exc.value.code == "too-large"

    def test_aci_box_cap_before_the_ideal(self, monkeypatch):
        # aci_construction's box is a_1 ... a_{r-1} h: 99 * 101 = 9999 is
        # admitted, 73 * 137 = 10^4 + 1 is refused before any generator
        # is compared with another
        assert hilbert_function(aci_construction((99, 100), 101)) == ci_hilbert((99, 100))

        def no_ideal(*args):
            raise AssertionError("ideal built")
        monkeypatch.setattr(monomials, "MonomialIdeal", no_ideal)
        for degrees, h in (((73, 100), 137), ((2,) * 400, 3)):
            with pytest.raises(DomainError, match="too large") as exc:
                aci_construction(degrees, h)
            assert exc.value.code == "too-large"

    @given(artinian_ideals())
    def test_counts_the_standard_monomials(self, case):
        # hilbert_function counts the columns that standard_monomials lists
        ideal, _ = case
        assert hilbert_function(ideal).values == tuple(map(len, standard_monomials(ideal)))

    def test_non_artinian_rejected(self):
        with pytest.raises(DomainError, match="artinian"):
            hilbert_function(MonomialIdeal(3, ((2, 0, 0), (0, 2, 0))))
        with pytest.raises(DomainError):
            hilbert_function(MonomialIdeal(2, ()))

    def test_against_inclusion_exclusion_oracle(self):
        cases = [
            MonomialIdeal(3, ((2, 0, 0), (0, 2, 0), (0, 0, 3), (1, 0, 1))),
            MonomialIdeal(3, ((3, 0, 0), (0, 3, 0), (0, 0, 4), (2, 0, 1))),
            MonomialIdeal(2, ((3, 0), (0, 4), (1, 2))),
            rigid_witness(3),
            MonomialIdeal(4, ((2, 0, 0, 0), (0, 2, 0, 0), (0, 0, 2, 0), (0, 0, 0, 2))),
        ]
        for ideal in cases:
            assert_matches_oracle(ideal)

    def test_membership_agrees_with_complement_count(self):
        ideal = aci_construction((2, 3, 4), 5)
        std = standard_monomials(ideal)
        for n, bucket in enumerate(std):
            # standard monomials at degree n are exactly the non-members
            all_n = combinations_with_replacement(range(3), n)
            non_members = set()
            for picks in all_n:
                expo = [0, 0, 0]
                for i in picks:
                    expo[i] += 1
                if not ideal.contains(tuple(expo)):
                    non_members.add(tuple(expo))
            assert non_members == set(bucket)


class TestColon:
    def test_link_of_aci_222(self):
        iz = MonomialIdeal(3, ((2, 0, 0), (0, 2, 0), (0, 0, 3)))
        iq = MonomialIdeal(3, ((2, 0, 0), (0, 2, 0), (0, 0, 3), (1, 0, 1)))
        assert colon(iz, iq).gens == ((1, 0, 0), (0, 2, 0), (0, 0, 2))

    def test_colon_by_itself_is_unit(self):
        ideal = MonomialIdeal(3, ((2, 0, 0), (0, 2, 0), (0, 0, 3), (1, 0, 1)))
        assert colon(ideal, ideal).is_unit

    def test_two_variables(self):
        a = MonomialIdeal(2, ((2, 0), (0, 2)))
        x = MonomialIdeal(2, ((1, 0),))
        assert colon(a, x).gens == ((1, 0), (0, 2))

    def test_colon_by_zero_rejected(self):
        a = MonomialIdeal(2, ((2, 0),))
        with pytest.raises(DomainError, match="zero ideal"):
            colon(a, MonomialIdeal(2, ()))

    def test_colon_contains_numerator(self):
        a = aci_construction((2, 2, 3), 4)
        b = MonomialIdeal(3, ((1, 1, 0), (0, 0, 2)))
        q = colon(a, b)
        assert all(q.contains(g) for g in a.gens)

    def test_colon_by_unit_is_identity(self):
        a = aci_construction((2, 2, 3), 4)
        unit = MonomialIdeal(3, ((0, 0, 0),))
        assert colon(a, unit) == a

    def test_intersect_basics(self):
        a = MonomialIdeal(2, ((1, 0),))
        b = MonomialIdeal(2, ((0, 1),))
        assert intersect(a, b).gens == ((1, 1),)


class TestAciConstruction:
    def test_222_h3(self):
        ideal = aci_construction((2, 2, 2), 3)
        assert set(ideal.gens) == {(2, 0, 0), (0, 2, 0), (0, 0, 3), (1, 0, 1)}

    def test_234_h5(self):
        ideal = aci_construction((2, 3, 4), 5)
        assert set(ideal.gens) == {(2, 0, 0), (0, 3, 0), (0, 0, 5), (1, 1, 2)}

    def test_333_h4(self):
        ideal = aci_construction((3, 3, 3), 4)
        assert set(ideal.gens) == {(3, 0, 0), (0, 3, 0), (0, 0, 4), (2, 0, 1)}

    def test_h_out_of_range(self):
        with pytest.raises(DomainError, match="outside"):
            aci_construction((2, 2, 2), 4)
        with pytest.raises(DomainError, match="outside"):
            aci_construction((2, 2, 2), 2)

    def test_r2_case(self):
        ideal = aci_construction((2, 3), 4)
        assert set(ideal.gens) == {(2, 0), (0, 4), (1, 2)}
        assert hilbert_function(ideal) == ci_hilbert((2, 3))

    def test_r4_case(self):
        ideal = aci_construction((2, 2, 2, 2), 3)
        assert hilbert_function(ideal) == ci_hilbert((2, 2, 2, 2))

    def test_hilbert_matches_exhaustively_small(self):
        for degs in combinations_with_replacement(range(2, 5), 3):
            for h in range(degs[2] + 1, degs[2] + degs[0]):
                ideal = aci_construction(degs, h)
                assert len(ideal.gens) == 4
                assert hilbert_function(ideal) == ci_hilbert(degs)


class TestRigidWitness:
    def test_a2(self):
        assert set(rigid_witness(2).gens) == {(2, 0, 0), (0, 3, 0), (0, 0, 2), (1, 1, 0)}

    def test_a3(self):
        assert set(rigid_witness(3).gens) == {(3, 0, 0), (0, 4, 0), (0, 0, 3), (2, 1, 0)}

    def test_hilbert(self):
        for a in range(2, 6):
            assert hilbert_function(rigid_witness(a)) == ci_hilbert((a, a, a))

    def test_a_too_small(self):
        with pytest.raises(DomainError):
            rigid_witness(1)


class TestHelpers:
    def test_ci_type(self):
        assert ci_type(MonomialIdeal(3, ((1, 0, 0), (0, 2, 0), (0, 0, 2)))) == (1, 2, 2)
        assert ci_type(aci_construction((2, 2, 2), 3)) is None

    def test_is_artinian(self):
        assert is_artinian(MonomialIdeal(2, ((2, 0), (0, 2))))
        assert not is_artinian(MonomialIdeal(2, ((1, 1),)))

    def test_format(self):
        assert format_monomial((2, 0, 1)) == "x^2z"
        assert format_monomial((0, 0, 0)) == "1"
        ideal = aci_construction((2, 2, 2), 3)
        assert ideal.pretty() == "x^2, xz, y^2, z^3"

    def test_divides(self):
        assert divides((1, 0), (2, 1))
        assert not divides((1, 2), (2, 1))

    def test_json_round_trip(self):
        ideal = aci_construction((2, 3, 4), 5)
        assert MonomialIdeal.from_json(ideal.to_json()) == ideal
        # non-minimal JSON input is minimalized on load
        loaded = MonomialIdeal.from_json({"c": 2, "gens": [[1, 0], [2, 0]]})
        assert loaded.gens == ((1, 0),)

    def test_json_generator_cap(self, monkeypatch):
        # 1000 generators are read and minimalised; one more is refused
        # before any generator is compared with another
        assert MAX_JSON_GENERATORS == 1000
        gens = [[k, 0] for k in range(1, MAX_JSON_GENERATORS + 1)]
        assert MonomialIdeal.from_json({"c": 2, "gens": gens}).gens == ((1, 0),)

        def no_divides(*args):
            raise AssertionError("generators compared")
        monkeypatch.setattr(monomials, "divides", no_divides)
        with pytest.raises(DomainError, match="1001 generators") as exc:
            MonomialIdeal.from_json({"c": 2, "gens": gens + [[0, 1]]})
        assert exc.value.code == "too-large"
