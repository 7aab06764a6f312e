"""Classification engine: maximal tables, cancellation poset, parity laws,
the distinguished degree, and the Gorenstein degree-sequence builders."""

import hashlib
import json
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aci3 import (
    AciFamily,
    DomainError,
    allowed_couples,
    as_delta,
    cancel_ah,
    cancel_couple,
    ci_hilbert,
    classify,
    d_star,
    delta_high,
    delta_low,
    enumerate_tables,
    gaeta_check,
    hilbert_from_betti,
    maximal_table,
    t_max,
    theta_of,
)
from aci3.classify import EVEN, MAX_LINK_DEGREES, MAX_POSET_NODES, ODD, PosetEdge


def depth(a, h):
    """Number d of independent cancellations: the couples, plus a+h below 2a."""
    return (h - a) // 2 + 1 if h < 2 * a else (3 * a - h) // 2


def closure_poset(a, h):
    """Oracle: the table poset as the closure of the maximal table under
    ``cancel_couple`` and ``cancel_ah``, found by a worklist search, with one
    edge per successful move.  Nodes are sorted by levels; each node's edges
    follow it, couples in ``allowed_couples`` order, then a+h."""
    seed = maximal_table(AciFamily(a, h, EVEN if h < 2 * a else ODD))
    found = {}
    todo = [seed]
    while todo:
        node = todo.pop()
        if node.table.levels in found:
            continue
        moves = []
        for pair in allowed_couples(node.family):
            try:
                moves.append(("couple", pair, cancel_couple(node, pair)))
            except DomainError:
                pass
        try:
            moves.append(("ah", (a + h,), cancel_ah(node)))
        except DomainError:
            pass
        found[node.table.levels] = (node, moves)
        todo.extend(target for _, _, target in moves)
    order = sorted(found)
    position = {levels: i for i, levels in enumerate(order)}
    edges = tuple(PosetEdge(i, position[target.table.levels], kind, twists)
                  for i, levels in enumerate(order)
                  for kind, twists, target in found[levels][1])
    return tuple(found[levels][0] for levels in order), edges


class TestGaeta:
    def test_known_good(self):
        ok, reason = gaeta_check((2, 3, 3, 4, 4))
        assert ok and reason is None

    def test_vacuous_n1(self):
        assert gaeta_check((1, 1, 1)).ok

    def test_violator(self):
        ok, reason = gaeta_check((2, 2, 5, 5, 5, 5, 6))
        assert not ok
        assert "d_3 + d_6" in reason and "10 <= 10" in reason

    def test_non_integral_theta(self):
        ok, reason = gaeta_check((1, 1, 1, 1, 1))
        assert not ok and "not an integer" in reason

    def test_bad_input(self):
        for build in (as_delta, gaeta_check):
            with pytest.raises(DomainError):
                build((1, 2, 3, 4))  # even length
            with pytest.raises(DomainError):
                build((3, 2, 4))  # unsorted

    def test_theta(self):
        assert theta_of((2, 3, 3, 4, 4)) == 8
        assert theta_of((1, 1, 1, 1, 1)) is None


class TestAciFamily:
    def test_even_window(self):
        assert AciFamily(3, 5, EVEN).shift == 14
        with pytest.raises(DomainError, match="odd"):
            AciFamily(3, 6, EVEN)  # h >= 2a forces odd t

    def test_odd_window(self):
        assert AciFamily(3, 7, ODD).high
        with pytest.raises(DomainError, match="rigid"):
            AciFamily(3, 4, ODD)  # h = a + 1 has t = 2

    def test_h_window(self):
        with pytest.raises(DomainError):
            AciFamily(3, 8, ODD)
        with pytest.raises(DomainError):
            AciFamily(1, 2, EVEN)


class TestMaximalTable:
    def test_3_5_even(self):
        table = maximal_table(AciFamily(3, 5, EVEN)).table
        assert table.levels == ((0,), (3, 3, 3, 5), (5, 6, 6, 6, 7, 7, 8), (7, 7, 8, 9))
        assert table.t == 4

    def test_3_5_odd(self):
        table = maximal_table(AciFamily(3, 5, ODD)).table
        assert table.levels == ((0,), (3, 3, 3, 5), (5, 6, 6, 6, 7, 7), (7, 7, 9))
        assert table.t == 3

    def test_3_6_odd(self):
        table = maximal_table(AciFamily(3, 6, ODD)).table
        assert table.levels == ((0,), (3, 3, 3, 6), (6, 6, 6, 6, 7, 8), (7, 8, 9))

    def test_rigid_h_a_plus_1(self):
        # the rigid table written out, for every a that verify admits:
        # verify's Koszul check takes its expected table from maximal_table
        for a in range(2, 15):
            table = maximal_table(AciFamily(a, a + 1, EVEN)).table
            assert table.t == 2
            assert table.levels[3] == (2 * a + 1, 3 * a)
            assert table.levels[2] == tuple(sorted((2 * a, 2 * a, 2 * a, 2 * a + 1, a + 1)))
            assert table.levels[1] == tuple(sorted((a, a, a, a + 1)))

    def test_hilbert_function(self):
        for fam in (AciFamily(4, 6, EVEN), AciFamily(4, 8, ODD), AciFamily(5, 9, ODD)):
            assert hilbert_from_betti(maximal_table(fam).table) == ci_hilbert(
                (fam.a, fam.a, fam.a))


class TestCouples:
    def test_enumeration(self):
        assert allowed_couples(AciFamily(4, 7, EVEN)) == ((9, 10),)
        assert allowed_couples(AciFamily(3, 4, EVEN)) == ()
        assert allowed_couples(AciFamily(3, 5, EVEN)) == ((7, 7),)

    def test_couples_sum_to_shift(self):
        for fam in (AciFamily(5, 8, EVEN), AciFamily(5, 11, ODD), AciFamily(6, 9, ODD)):
            for i, j in allowed_couples(fam):
                assert i + j == fam.shift
                assert i <= j

    def test_cancel_even_4_7(self):
        node = cancel_couple(maximal_table(AciFamily(4, 7, EVEN)), (9, 10))
        assert node.table.levels[3] == (11, 12)
        assert node.table.levels[2] == (7, 8, 8, 8, 11)
        assert node.t == 2
        assert hilbert_from_betti(node.table) == ci_hilbert((4, 4, 4))

    def test_cancel_middle_couple(self):
        node = cancel_couple(maximal_table(AciFamily(3, 5, EVEN)), (7, 7))
        assert node.table.levels[3] == (8, 9)
        assert node.table.levels[2] == (5, 6, 6, 6, 8)

    def test_odd_floor(self):
        with pytest.raises(DomainError, match="drop below 3"):
            cancel_couple(maximal_table(AciFamily(3, 5, ODD)), (7, 7))

    def test_couple_not_present(self):
        once = cancel_couple(maximal_table(AciFamily(3, 5, EVEN)), (7, 7))
        with pytest.raises(DomainError, match="not present"):
            cancel_couple(once, (7, 7))

    def test_couple_not_allowed(self):
        with pytest.raises(DomainError, match="not an allowed"):
            cancel_couple(maximal_table(AciFamily(3, 5, EVEN)), (6, 8))


class TestCancelAh:
    def test_3_5(self):
        got = cancel_ah(maximal_table(AciFamily(3, 5, EVEN)))
        assert got.parity == ODD
        assert got.table == maximal_table(AciFamily(3, 5, ODD)).table

    def test_4_7(self):
        got = cancel_ah(maximal_table(AciFamily(4, 7, EVEN)))
        assert got.table == maximal_table(AciFamily(4, 7, ODD)).table
        assert got.t == 3

    def test_rigid_rejected(self):
        with pytest.raises(DomainError, match="not cancellable"):
            cancel_ah(maximal_table(AciFamily(3, 4, EVEN)))

    def test_odd_input_rejected(self):
        with pytest.raises(DomainError, match="no a\\+h syzygy"):
            cancel_ah(maximal_table(AciFamily(3, 5, ODD)))


class TestEnumerate:
    def test_counts(self):
        assert len(enumerate_tables(3, 4).nodes) == 1
        assert len(enumerate_tables(3, 5).nodes) == 3
        assert len(enumerate_tables(2, 3).nodes) == 1
        assert len(enumerate_tables(2, 4).nodes) == 1

    def test_3_5_inventory(self):
        poset = enumerate_tables(3, 5)
        inventory = sorted((node.parity, node.t) for node in poset.nodes)
        assert inventory == [(EVEN, 2), (EVEN, 4), (ODD, 3)]
        kinds = sorted(edge.kind for edge in poset.edges)
        assert kinds == ["ah", "couple"]

    def test_2_4_is_odd_family_only(self):
        node, = enumerate_tables(2, 4).nodes
        assert node.parity == ODD and node.t == 3
        assert node.table.levels[3] == (5, 5, 6)

    def test_deterministic_order(self):
        first = enumerate_tables(4, 7)
        second = enumerate_tables(4, 7)
        assert [n.table.levels for n in first.nodes] == [n.table.levels for n in second.nodes]
        levels = [n.table.levels for n in first.nodes]
        assert levels == sorted(levels)

    def test_edges_line_up(self):
        poset = enumerate_tables(4, 8)
        for edge in poset.edges:
            src, dst = poset.nodes[edge.src], poset.nodes[edge.dst]
            drop = 2 if edge.kind == "couple" else 1
            assert src.t - dst.t == drop

    def test_range_validation(self):
        with pytest.raises(DomainError):
            enumerate_tables(3, 8)
        with pytest.raises(DomainError):
            enumerate_tables(2, 2)

    def test_pinned_payloads(self):
        text = "".join(
            json.dumps(enumerate_tables(a, h).to_json(), sort_keys=True, separators=(",", ":"))
            + "\n"
            for a in range(2, 13)
            for h in range(a + 1, 3 * a - 1)
        )
        digest = hashlib.sha256(text.encode()).hexdigest()
        assert digest == "7fc45fd10c1661e0abf12145bec058a2a8780dedb6180336149cc293a40a31cb"

    @pytest.mark.parametrize("a", range(2, 14))
    def test_node_count_formula(self, a):
        # d independent cancellations (couples, plus a+h below 2a) give
        # 2^d subsets; the t-floor removes exactly the full one.
        for h in range(a + 1, 3 * a - 1):
            assert len(enumerate_tables(a, h).nodes) == 2 ** depth(a, h) - 1, (a, h)

    @pytest.mark.parametrize("a", range(2, 13))
    def test_closed_form_equals_closure(self, a):
        for h in range(a + 1, 3 * a - 1):
            poset = enumerate_tables(a, h)
            nodes, edges = closure_poset(a, h)
            assert poset.nodes == nodes, (a, h)
            assert poset.edges == edges, (a, h)

    @settings(max_examples=100)
    @given(st.integers(2, 40).flatmap(lambda a: st.tuples(st.just(a), st.sampled_from(
        [h for h in range(a + 1, 3 * a - 1) if depth(a, h) <= 9]))))   # at most 511 tables
    def test_poset_laws(self, ah):
        a, h = ah
        poset = enumerate_tables(a, h)
        assert len(poset.nodes) == 2 ** depth(a, h) - 1
        expected = ci_hilbert((a, a, a))
        for node in poset.nodes:
            levels = node.table.levels
            assert hilbert_from_betti(node.table) == expected
            odd = h >= 2 * a or a + h not in levels[2]
            assert node.parity == (ODD if odd else EVEN)
            assert node.t % 2 == odd
            assert not odd or node.t >= 3
        for edge in poset.edges:
            src, dst = poset.nodes[edge.src].table.levels, poset.nodes[edge.dst].table.levels
            for level in (2, 3):    # as multisets, src = dst + the edge's twists
                assert Counter(src[level]) == Counter(dst[level]) + Counter(edge.twists)

    def test_too_large_rejected_before_enumerating(self):
        # d = 12 gives 2^12 - 1 = MAX_POSET_NODES nodes, the largest poset built
        assert MAX_POSET_NODES == 4095
        for a, h, d in ((25, 49, 13), (60, 119, 30), (10 ** 9, 2 * 10 ** 9, 5 * 10 ** 8)):
            with pytest.raises(DomainError, match=f"2\\^{d} - 1 nodes") as exc:
                enumerate_tables(a, h)
            assert exc.value.code == "too-large"

    @pytest.mark.parametrize("a", range(2, 10))
    def test_closed_under_cancellation(self, a):
        for h in range(a + 1, 3 * a - 1):
            poset = enumerate_tables(a, h)
            position = {node.table.levels: i for i, node in enumerate(poset.nodes)}
            found = set()
            for i, node in enumerate(poset.nodes):
                moves = [(pair, "couple", lambda n, p=pair: cancel_couple(n, p))
                         for pair in allowed_couples(node.family)]
                moves.append(((a + h,), "ah", cancel_ah))
                for twists, kind, move in moves:
                    try:
                        target = move(node)
                    except DomainError:
                        continue
                    j = position[target.table.levels]
                    assert poset.nodes[j] == target
                    found.add(PosetEdge(i, j, kind, twists))
            assert found == set(poset.edges)


class TestTMaxAndDStar:
    def test_frozen(self):
        assert t_max(2) == 3
        assert t_max(3) == 3
        assert t_max(4) == 5

    def test_attained_at_h_2a(self):
        for a in range(2, 7):
            assert max(n.t for n in enumerate_tables(a, 2 * a).nodes) == t_max(a)

    def test_d_star(self):
        def of(fam):
            top = maximal_table(fam)
            return d_star(top.a, top.h, top.t)

        assert of(AciFamily(3, 5, EVEN)) == 3
        assert of(AciFamily(3, 5, ODD)) == 5
        assert of(AciFamily(4, 5, EVEN)) == 4  # h = a + 1, t = 2

    def test_d_star_rejects(self):
        with pytest.raises(DomainError) as exc:
            d_star(1, 2, 3)
        assert exc.value.code == "input-error"
        with pytest.raises(DomainError) as exc:
            d_star(3, 3, 3)
        assert exc.value.code == "h-out-of-range"
        with pytest.raises(DomainError) as exc:
            d_star(3, 6, 4)
        assert exc.value.code == "invalid-family"
        for t in (1, 0, -1):    # every table has t >= 2
            with pytest.raises(DomainError) as exc:
                d_star(2, 3, t)
            assert exc.value.code == "input-error"
        with pytest.raises(DomainError) as exc:
            d_star(3, 3, 0)     # the h window is checked before t
        assert exc.value.code == "h-out-of-range"


class TestDeltas:
    def test_frozen(self):
        assert delta_low(3, 5) == (2, 3, 3, 4, 4)
        assert delta_low(3, 4) == (1, 3, 3)
        assert delta_high(3, 6) == (3, 3, 3, 4, 5)
        assert delta_high(2, 4) == (2, 2, 2, 3, 3)

    def test_theta_is_a_plus_h(self):
        for a in range(2, 8):
            for h in range(a + 1, 2 * a):
                assert theta_of(delta_low(a, h)) == a + h
            for h in range(2 * a, 3 * a - 1):
                assert theta_of(delta_high(a, h)) == a + h

    def test_gaeta_passes(self):
        for a in range(2, 9):
            for h in range(a + 1, 2 * a):
                assert gaeta_check(delta_low(a, h)).ok
            for h in range(2 * a, 3 * a - 1):
                assert gaeta_check(delta_high(a, h)).ok

    def test_length_matches_t(self):
        # generator count of the linked Gorenstein ideal is odd: t_even + 1
        for a in range(2, 7):
            for h in range(a + 1, 2 * a):
                t_even = maximal_table(AciFamily(a, h, EVEN)).t
                assert len(delta_low(a, h)) == t_even + 1

    def test_range_validation(self):
        with pytest.raises(DomainError):
            delta_low(3, 6)
        with pytest.raises(DomainError):
            delta_high(3, 5)

    def test_length_checked_before_building(self, monkeypatch):
        # the length the cap sees is the length built, for every (a, h) the
        # gaeta check builds: a cap one below it refuses the sequence
        for a in range(2, 15):
            for h in range(a + 1, 3 * a - 1):
                build = delta_low if h < 2 * a else delta_high
                length = len(build(a, h))
                assert length <= MAX_LINK_DEGREES
                monkeypatch.setattr(classify, "MAX_LINK_DEGREES", length - 1)
                with pytest.raises(DomainError) as exc:
                    build(a, h)
                assert exc.value.code == "too-large"
                monkeypatch.undo()

    @pytest.mark.parametrize("build, a, h", [
        # lengths are odd: a + 2 + [a even] at h = 2a, a + 1 + [a odd] at h = 2a - 1
        (delta_high, 9997, 2 * 9997),     # 9999 degrees, then 10001
        (delta_low, 9998, 2 * 9998 - 1),  # 9999, then 10001 at a + 1
    ])
    def test_length_cap(self, build, a, h):
        assert MAX_LINK_DEGREES == 10 ** 4
        assert len(build(a, h)) == MAX_LINK_DEGREES - 1
        with pytest.raises(DomainError) as exc:
            build(a + 1, h + 2)
        assert exc.value.code == "too-large"
