"""Linkage arithmetic: duality transform, involution, agreement with the
colon-ideal oracle, and mapping-cone bookkeeping."""

from itertools import combinations_with_replacement

import pytest
from hypothesis import given
from hypothesis import strategies as st

from aci3 import (
    BettiTable,
    DomainError,
    HilbertFunction,
    LinkDatum,
    MonomialIdeal,
    aci_construction,
    ci_hilbert,
    ci_link_identity,
    colon,
    hilbert_from_betti,
    hilbert_function,
    koszul_table,
    link_hilbert,
    mapping_cone_twists,
    maximal_table,
    socle_degree,
)
from aci3.classify import EVEN, AciFamily


class TestLinkDatum:
    def test_fields(self):
        d = LinkDatum.of((2, 2, 3))
        assert (d.theta, d.e) == (7, 4)
        assert d.e == socle_degree(ci_hilbert((2, 2, 3)))


class TestLinkHilbert:
    def test_frozen_example(self):
        hg = link_hilbert((2, 2, 3), HilbertFunction((1, 3, 3, 1)))
        assert hg.values == (1, 2, 1)

    def test_involution_of_frozen_example(self):
        assert link_hilbert((2, 2, 3), HilbertFunction((1, 2, 1))).values == (1, 3, 3, 1)

    def test_self_link_strict_and_lax(self):
        h = ci_hilbert((2, 2, 2))
        with pytest.raises(DomainError, match="not-linked|unit ideal"):
            link_hilbert((2, 2, 2), h)
        assert link_hilbert((2, 2, 2), h, strict=False).is_zero

    def test_not_linked_rejection(self):
        # support of H_Q beyond the socle of Z
        with pytest.raises(DomainError, match="not linked"):
            link_hilbert((2, 2, 2), ci_hilbert((3, 3, 3)))

    def test_involution_over_monomial_constructions(self):
        for degs in combinations_with_replacement(range(2, 7), 3):
            a1, a2, a3 = degs
            for h in range(a3 + 1, a3 + a1):
                if max(a1, a2, h) > 6:
                    continue
                z = tuple(sorted((a1, a2, h)))
                hq = hilbert_function(aci_construction(degs, h))
                hg = link_hilbert(z, hq)
                assert link_hilbert(z, hg) == hq

    @given(st.lists(st.integers(1, 5), min_size=1, max_size=4), st.data())
    def test_link_twice_is_identity(self, z, data):
        # H_Q at most H_Z degree by degree is linked; one degree raised by one
        # (or one past the socle) may not be.  Wherever the first link is
        # defined, the second is too, and it gives H_Q back
        z = tuple(sorted(z))
        h_z = ci_hilbert(z)
        values = [1] + [data.draw(st.integers(0, v)) for v in h_z.values[1:]] + [0]
        bump = data.draw(st.integers(1, len(values)))
        if bump < len(values):
            values[bump] += 1
        h_q = HilbertFunction(tuple(values))
        try:
            h_g = link_hilbert(z, h_q)
        except DomainError:
            return
        assert link_hilbert(z, h_g) == h_q

    def test_agreement_with_colon_oracle(self):
        for degs in combinations_with_replacement(range(2, 5), 3):
            a1, a2, a3 = degs
            for h in range(a3 + 1, a3 + a1):
                iq = aci_construction(degs, h)
                iz = MonomialIdeal(3, ((a1, 0, 0), (0, a2, 0), (0, 0, h)))
                want = hilbert_function(colon(iz, iq))
                got = link_hilbert(tuple(sorted((a1, a2, h))), hilbert_function(iq))
                assert got == want


class TestCiLinkIdentity:
    def test_a3_h5(self):
        assert ci_link_identity(3, 5)

    def test_a2_h3(self):
        assert ci_link_identity(2, 3)

    def test_full_window_is_accepted(self):
        # h = 3a - 2 is the top of the window: (4, 10) is legitimate
        assert ci_link_identity(4, 10)

    def test_out_of_range_rejected(self):
        with pytest.raises(DomainError, match="outside"):
            ci_link_identity(4, 11)
        with pytest.raises(DomainError, match="outside"):
            ci_link_identity(3, 3)


class TestMappingCone:
    def test_rigid_a2_linked_in_223(self):
        q = BettiTable(3, ((0,), (2, 2, 2, 3), (3, 4, 4, 4, 5), (5, 6)))
        cone = mapping_cone_twists(q, (2, 2, 3))
        assert cone.table.levels[1] == (1, 2, 2, 2, 3)
        # consistent with the link of the Hilbert functions
        assert hilbert_from_betti(cone.table) == link_hilbert(
            (2, 2, 3), hilbert_from_betti(q))
        # the non-minimal pairs carry the reduction to the CI(1,2,2) generators
        assert (1, 2) in cone.candidates and (1, 3) in cone.candidates

    def test_self_link_cancels_everything(self):
        q = koszul_table((2, 2, 3))
        cone = mapping_cone_twists(q, (2, 2, 3))
        assert hilbert_from_betti(cone.table).is_zero
        assert (0, 0) in cone.candidates  # unit generator flagged at level 0/1

    def test_maximal_even_table_links_to_ci233_function(self):
        q = maximal_table(AciFamily(3, 5, EVEN)).table
        cone = mapping_cone_twists(q, (3, 3, 5))
        assert cone.table.levels[1] == (2, 3, 3, 3, 4, 4, 5)
        assert hilbert_from_betti(cone.table) == ci_hilbert((2, 3, 3))

    def test_inconsistent_data_rejected(self):
        # twists of Q exceed theta: Q cannot sit inside this CI
        q = koszul_table((3, 3, 3))
        with pytest.raises(DomainError) as err:
            mapping_cone_twists(q, (2, 2, 2))
        assert err.value.code == "inconsistent-link-data"

    def test_wrong_variable_count_rejected(self):
        with pytest.raises(DomainError):
            mapping_cone_twists(koszul_table((2, 2)), (2, 2, 3))
        with pytest.raises(DomainError):
            mapping_cone_twists(koszul_table((2, 2, 2)), (2, 2))
