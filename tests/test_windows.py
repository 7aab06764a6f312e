"""The h windows, each stated once in the code (``classify.h_window`` and
``monomials.construction_window``), against the paper's inequalities written
out here: every entry point accepts exactly its window."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aci3 import DomainError
from aci3.classify import (
    EVEN,
    ODD,
    AciFamily,
    allowed_couples,
    check_h_window,
    d_star,
    delta_high,
    delta_low,
    enumerate_tables,
    h_window,
)
from aci3.monomials import aci_construction, construction_window

A = st.integers(2, 40)


def _around(a):
    """Every h from below the window of a to past its end."""
    return range(a - 3, 3 * a + 3)


def _code(call):
    """The error code of the call, or None when it returns."""
    try:
        call()
    except DomainError as exc:
        return exc.code
    return None


@given(a=A)
def test_low_and_high_parts_cover_the_window(a):
    full, low, high = h_window(a)
    assert list(low) + list(high) == list(full) == list(range(a + 1, 3 * a - 1))
    assert all(h < 2 * a for h in low) and all(h >= 2 * a for h in high)


@given(a=A)
def test_check_h_window_accepts_exactly_the_window(a):
    for h in _around(a):
        inside = a + 1 <= h <= 3 * a - 2
        assert _code(lambda: check_h_window(a, h)) == (None if inside else "h-out-of-range")


@given(a=A)
def test_each_parity_accepts_exactly_its_window(a):
    # even t: a + 1 <= h <= 2a - 1; odd t: past the rigid h = a + 1, up to 3a - 2
    for h in _around(a):
        even = a + 1 <= h <= 2 * a - 1
        odd = a + 2 <= h <= 3 * a - 2
        assert _code(lambda: AciFamily(a, h, EVEN)) == (None if even else "invalid-family")
        assert _code(lambda: AciFamily(a, h, ODD)) == (None if odd else "invalid-family")


# h near an end of the window or of one of its parts, or anywhere around it
A_AND_H = A.flatmap(lambda a: st.tuples(st.just(a), st.one_of(
    st.sampled_from([a, a + 1, a + 2, 2 * a - 1, 2 * a, 3 * a - 2, 3 * a - 1]),
    st.integers(a - 3, 3 * a + 3))))


@settings(deadline=None)
@given(a_and_h=A_AND_H)
def test_enumerate_tables_accepts_exactly_the_window(a_and_h):
    a, h = a_and_h
    if not a + 1 <= h <= 3 * a - 2:
        assert _code(lambda: enumerate_tables(a, h)) == "h-out-of-range"
        return
    depth = (h - a) // 2 + 1 if h < 2 * a else (3 * a - h) // 2
    try:
        poset = enumerate_tables(a, h)
    except DomainError as exc:
        assert exc.code == "too-large" and f"2^{depth} - 1 nodes" in str(exc)
    else:
        assert len(poset.nodes) == 2 ** depth - 1


@pytest.mark.parametrize("a", range(2, 60))
def test_poset_depth_is_the_couple_window_and_the_ah_bit(a):
    # the depth enumerate_tables reads off its seed family, against the
    # closed form it replaced
    for h in h_window(a).full:
        seed = AciFamily(a, h, EVEN if h < 2 * a else ODD)
        depth = (h - a) // 2 + 1 if h < 2 * a else (3 * a - h) // 2
        assert len(allowed_couples(seed)) + (h < 2 * a) == depth


@given(a=A)
def test_delta_builders_accept_exactly_their_part(a):
    for h in _around(a):
        low = a + 1 <= h <= 2 * a - 1
        high = 2 * a <= h <= 3 * a - 2
        assert _code(lambda: delta_low(a, h)) == (None if low else "h-out-of-range")
        assert _code(lambda: delta_high(a, h)) == (None if high else "h-out-of-range")


@given(degrees=st.lists(st.integers(2, 40), min_size=2, max_size=4).map(sorted))
def test_aci_construction_accepts_exactly_its_window(degrees):
    first, last = degrees[0], degrees[-1]
    for h in range(last - 2, last + first + 2):
        inside = last + 1 <= h <= last + first - 1
        assert (h in construction_window(tuple(degrees))) == inside
        # inside, a box past the cap is too-large, never h-out-of-range
        assert (_code(lambda: aci_construction(degrees, h)) == "h-out-of-range") == (not inside)


@pytest.mark.xfail(strict=True, reason="d_star accepts odd t at the rigid h = a + 1; "
                                       "the cli-mix benchmark workload draws such calls")
def test_d_star_refuses_odd_t_at_the_rigid_h():
    with pytest.raises(DomainError) as exc:
        d_star(3, 4, 3)
    assert exc.value.code == "invalid-family"
