"""One integer rule: ``errors.as_ints`` is how every library entry point reads
a caller's integers, so each refuses a bool, a float, a string and a
Fraction with input-error instead of truncating or parsing it.  Where an
entry point wants a sequence, ``errors.as_tuple`` refuses a bare scalar the
same way.  The last test pins refusals that no other test reaches."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aci3 import (
    AciFamily,
    BettiTable,
    DomainError,
    HilbertFunction,
    LinkDatum,
    MonomialIdeal,
    PolyRing,
    SparsePolynomial,
    aci_construction,
    alt_matrix,
    as_delta,
    cancel_couple,
    ci_hilbert,
    ci_link_identity,
    d_star,
    delta_high,
    delta_low,
    difference,
    enumerate_tables,
    export_cas,
    gaeta_check,
    koszul_table,
    link_hilbert,
    mapping_cone_twists,
    maximal_table,
    min_generator_bound,
    pfaffian,
    pfaffian_int,
    rigid_witness,
    strand_matrices,
    t_max,
    verify_suite,
)
from aci3.classify import check_h_window
from aci3.errors import as_ints
from aci3.hilbert import as_degrees
from aci3.intmat import int_det, int_rank
from aci3.monomials import colon, intersect

RING = PolyRing(("x", "y"))
ALT = alt_matrix((2, 3, 3, 4, 4))
EVEN_3_5 = maximal_table(AciFamily(3, 5, "even"))

# name -> (a call's integers, the call on them); each call answers on its
# integers and reads every one of them through as_ints
ENTRY_POINTS = {
    "as_degrees": ((3, 3, 3), as_degrees),
    "ci_hilbert": ((3, 3, 3), ci_hilbert),
    "koszul_table": ((2, 3), koszul_table),
    "aci_construction": ((3, 3, 3, 5), lambda v: aci_construction(v[:3], v[3])),
    "as_delta": ((2, 3, 3, 4, 4), as_delta),
    "gaeta_check": ((2, 3, 3, 4, 4), gaeta_check),
    "alt_matrix": ((2, 3, 3, 4, 4), alt_matrix),
    "LinkDatum.of": ((3, 3, 3), LinkDatum.of),
    "link_hilbert": ((2, 2, 2), lambda v: link_hilbert(v, HilbertFunction((1, 2, 1)))),
    "HilbertFunction": ((1, 3, 3, 1), HilbertFunction),
    "BettiTable": ((3, 0, 2, 2, 2, 4, 4, 4, 6),
                   lambda v: BettiTable(v[0], ((v[1],), v[2:5], v[5:8], (v[8],)))),
    "MonomialIdeal": ((3, 2, 0, 0, 0, 2, 0, 0, 0, 2),
                      lambda v: MonomialIdeal(v[0], (v[1:4], v[4:7], v[7:]))),
    "PolyRing.pack": ((1, 2), RING.pack),
    "PolyRing.monomial": ((3,), lambda v: RING.monomial("x", v[0])),
    "SparsePolynomial": ((1, 2, -3), lambda v: SparsePolynomial(RING, {v[:2]: v[2]})),
    "pfaffian": ((1, 2), lambda v: pfaffian(ALT, v)),
    "AlternatingMatrix.entry": ((1, 2), lambda v: ALT.entry(*v)),
    "pfaffian_int": ((0, 2, -2, 0), lambda v: pfaffian_int([v[:2], v[2:]])),
    "int_rank": ((1, 2, 3, 4), lambda v: int_rank([v[:2], v[2:]])),
    "int_det": ((1, 2, 3, 4), lambda v: int_det([v[:2], v[2:]])),
    "check_h_window": ((3, 5), lambda v: check_h_window(*v)),
    "d_star": ((3, 5, 2), lambda v: d_star(*v)),
    "AciFamily": ((3, 5), lambda v: AciFamily(*v, "even")),
    "enumerate_tables": ((3, 5), lambda v: enumerate_tables(*v)),
    "t_max": ((3,), lambda v: t_max(*v)),
    "delta_low": ((3, 5), lambda v: delta_low(*v)),
    "delta_high": ((3, 6), lambda v: delta_high(*v)),
    "cancel_couple": ((7, 7), lambda v: cancel_couple(EVEN_3_5, v)),
    "rigid_witness": ((3,), lambda v: rigid_witness(*v)),
    "ci_link_identity": ((3, 5), lambda v: ci_link_identity(*v)),
    "strand_matrices": ((3,), lambda v: strand_matrices(aci_construction((2, 2, 2), 3), *v)),
    "difference": ((2,), lambda v: difference(HilbertFunction((1, 2, 1)), *v)),
    "min_generator_bound": ((3, 2), lambda v: min_generator_bound(HilbertFunction((1, 2, 1)), *v)),
    "verify_suite": ((2, 2), lambda v: verify_suite("gaeta", *v)),
}

# not ints, whatever their value: an integral float or Fraction included
NON_INTS = st.one_of(
    st.booleans(),
    st.floats(),
    st.integers(-9, 99).map(float),
    st.text(max_size=3),
    st.fractions(),
    st.integers(-9, 99).map(Fraction),
)


class TestAsInts:
    def test_ints_pass_as_a_tuple(self):
        assert as_ints([3, -1, 0], "x") == (3, -1, 0)
        assert as_ints(iter(range(3)), "x", 0) == (0, 1, 2)
        assert as_ints((), "x", 1) == ()

    @pytest.mark.parametrize("bad", [True, False, 2.0, 2.5, "2", Fraction(2), Fraction(7, 2)],
                             ids=repr)
    def test_a_non_int_is_refused_by_name(self, bad):
        with pytest.raises(DomainError) as exc:
            as_ints((1, bad, 2.5), "degrees")
        assert (exc.value.code, str(exc.value)) == ("input-error",
                                                    f"need integer degrees, got {bad!r}")

    def test_the_floor_names_the_first_entry_below_it(self):
        assert as_ints((2, 3), "a", 2) == (2, 3)
        with pytest.raises(DomainError) as exc:
            as_ints((3, 1, 0), "a", 2)
        assert (exc.value.code, str(exc.value)) == ("input-error", "need a >= 2, got 1")

    def test_the_type_is_checked_before_the_floor(self):
        with pytest.raises(DomainError, match="need integer c, got 0.5"):
            as_ints((0, 0.5), "c", 1)


@pytest.mark.parametrize("name", sorted(ENTRY_POINTS))
def test_each_entry_point_answers_on_its_integers(name):
    values, call = ENTRY_POINTS[name]
    call(values)


@pytest.mark.parametrize("name", sorted(ENTRY_POINTS))
@settings(max_examples=25)
@given(data=st.data())
def test_each_entry_point_refuses_a_non_int(name, data):
    values, call = ENTRY_POINTS[name]
    i = data.draw(st.integers(0, len(values) - 1), label="position")
    bad = data.draw(NON_INTS, label="entry")
    with pytest.raises(DomainError) as exc:
        call(values[:i] + (bad,) + values[i + 1:])
    assert exc.value.code == "input-error"


@pytest.mark.parametrize("call", [
    # each once answered: truncated, passed, or refused only by accident
    lambda: ci_hilbert((2.9, 3)),              # the Hilbert function of CI(2, 3)
    lambda: gaeta_check((2.5, 3, 3, 4, 4)),    # passed
    lambda: HilbertFunction((1, 2.7, True)),   # (1, 2, 1)
    lambda: t_max(3.5),                        # 3.5
    lambda: d_star(3, 4.5, 2),                 # 3
    lambda: enumerate_tables(3, 5.0),          # a bare TypeError
    lambda: aci_construction((3, 3, 3), 5.0),  # refused by the exponent check
    lambda: as_degrees(("3", "4")),            # (3, 4)
    lambda: as_degrees((Fraction(7, 2), 4)),   # (3, 4)
], ids=["ci_hilbert", "gaeta_check", "HilbertFunction", "t_max", "d_star",
        "enumerate_tables", "aci_construction", "as_degrees-str", "as_degrees-Fraction"])
def test_truncated_or_parsed_once(call):
    with pytest.raises(DomainError, match="need integer") as exc:
        call()
    assert exc.value.code == "input-error"


# name -> the call on a value where the entry point wants a sequence (for
# the constructors of nested values, at the outer level or one item)
SEQUENCE_ENTRY_POINTS = {
    "as_ints": lambda v: as_ints(v, "x"),
    "as_degrees": as_degrees,
    "as_delta": as_delta,
    "ci_hilbert": ci_hilbert,
    "koszul_table": koszul_table,
    "aci_construction": lambda v: aci_construction(v, 5),
    "gaeta_check": gaeta_check,
    "alt_matrix": alt_matrix,
    "LinkDatum.of": LinkDatum.of,
    "link_hilbert": lambda v: link_hilbert(v, HilbertFunction((1, 2, 1))),
    "mapping_cone_twists": lambda v: mapping_cone_twists(EVEN_3_5, v),
    "HilbertFunction": HilbertFunction,
    "BettiTable": lambda v: BettiTable(3, v),
    "BettiTable-level": lambda v: BettiTable(3, ((0,), v, (4, 4, 4), (6,))),
    "MonomialIdeal": lambda v: MonomialIdeal(3, v),
    "MonomialIdeal-generator": lambda v: MonomialIdeal(3, ((2, 0, 0), v)),
    "PolyRing": PolyRing,
    "PolyRing.pack": RING.pack,
    "SparsePolynomial": lambda v: SparsePolynomial(RING, v),
    "pfaffian": lambda v: pfaffian(ALT, v),
    "pfaffian_int": pfaffian_int,
    "pfaffian_int-row": lambda v: pfaffian_int(((0, 1), v)),
    "int_rank": int_rank,
    "int_rank-row": lambda v: int_rank(((1, 2), v)),
    "int_det": int_det,
    "int_det-row": lambda v: int_det(((1, 2), v)),
    "cancel_couple": lambda v: cancel_couple(EVEN_3_5, v),
}
SCALARS = st.one_of(st.integers(), st.floats(), st.none())


@pytest.mark.parametrize("name", sorted(SEQUENCE_ENTRY_POINTS))
@settings(max_examples=15)
@given(bad=SCALARS)
def test_each_entry_point_refuses_a_scalar_for_a_sequence(name, bad):
    if name == "pfaffian" and bad is None:
        return      # no index set: the pfaffian of the whole matrix
    with pytest.raises(DomainError) as exc:
        SEQUENCE_ENTRY_POINTS[name](bad)
    assert exc.value.code == "input-error"
    assert str(exc.value).endswith(f", got {bad!r}")


@pytest.mark.parametrize("call, code, message", [
    (lambda: pfaffian(ALT, (1, 1)), "input-error", "repeated index in (1, 1)"),
    (lambda: pfaffian(ALT, (0, 1)), "input-error", "indices out of range in (0, 1)"),
    (lambda: pfaffian(ALT, (1, 6)), "input-error", "indices out of range in (1, 6)"),
    (lambda: pfaffian_int([[0, 1], [-1, 0], [0, 0]]), "input-error", "matrix is not square"),
    (lambda: pfaffian_int([[0, 1], [1, 0]]), "input-error", "matrix is not alternating"),
    (lambda: alt_matrix((1,) * 11), "too-large", "supported up to 9 indices, got 11"),
    (lambda: export_cas("monomial"), "input-error", "monomial export needs an ideal"),
    (lambda: AciFamily(3, 5, "both"), "invalid-family", "parity must be even or odd, got 'both'"),
    (lambda: koszul_table(()), "input-error", "need at least one degree"),
    (lambda: intersect(MonomialIdeal(2, ((1, 0),)), MonomialIdeal(3, ((1, 0, 0),))),
     "input-error", "variable counts differ"),
    (lambda: colon(MonomialIdeal(2, ((1, 0),)), MonomialIdeal(3, ((1, 0, 0),))),
     "input-error", "variable counts differ"),
], ids=["repeated-index", "index-0", "index-past-size", "pfaffian_int-not-square",
        "pfaffian_int-not-alternating", "alt_matrix-11", "export_cas-no-ideal",
        "AciFamily-parity", "koszul_table-empty", "intersect-c", "colon-c"])
def test_rare_refusals(call, code, message):
    with pytest.raises(DomainError) as exc:
        call()
    assert (exc.value.code, str(exc.value)) == (code, message)
