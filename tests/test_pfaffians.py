"""Polynomial arithmetic, alternating matrices, and the pfaffian engine."""

import hashlib
import json
import random
import warnings
from itertools import combinations_with_replacement

import pytest
from hypothesis import given
from hypothesis import strategies as st

from aci3 import (
    DomainError,
    PolyRing,
    SparsePolynomial,
    alt_matrix,
    cli,
    gaeta_check,
    pf_squared_equals_det,
    pfaffian,
    pfaffian_int,
    pfaffian_last_row,
    pfaffians,
    sub_pfaffians,
    witness_ideals_a3_h5,
)
from aci3.cli import build_parser, main, run, validate_payload
from aci3.intmat import int_det
from aci3.verify import random_alternating

MAX = pfaffians.MAX_EXPONENT
CAP = pfaffians.MAX_DELTA_ENTRY


class TestSparsePolynomial:
    def setup_method(self):
        self.ring = PolyRing(("x", "y"))
        self.x = self.ring.var("x")
        self.y = self.ring.var("y")

    def poly(self, terms):
        return SparsePolynomial(self.ring, terms)

    def test_arithmetic(self):
        x, y = self.x, self.y
        x_plus_y = self.poly({(1, 0): 1, (0, 1): 1})
        assert x_plus_y * x_plus_y == self.poly({(2, 0): 1, (1, 1): 2, (0, 2): 1})
        assert x_plus_y * self.poly({}) == self.poly({})
        assert self.poly({(0, 0): 1}) * x == x
        # * is the one operation, and only between polynomials
        for operation in (lambda: x + y, lambda: x - y, lambda: -x, lambda: x * 2,
                          lambda: 2 * x):
            with pytest.raises(TypeError):
                operation()

    def test_degree_and_homogeneity(self):
        x, y = self.x, self.y
        assert (x * x * y).degree() == 3
        assert self.poly({(1, 1): 1, (2, 0): 1}).is_homogeneous(2)
        assert not self.poly({(1, 0): 1, (1, 1): 1}).is_homogeneous()
        assert self.poly({}).degree() is None
        assert self.poly({}).is_homogeneous()

    def test_str(self):
        assert str(self.poly({(2, 0): 1, (0, 1): -2})) == "x^2 - 2*y"
        assert str(self.poly({})) == "0"
        assert str(self.poly({(1, 1): -1})) == "-x*y"
        assert str(self.poly({(1, 0): 1, (0, 0): -3})) == "x - 3"
        assert str(self.poly({(0, 0): -1})) == "-1"
        assert repr(self.poly({(0, 1): 2, (0, 0): 1})) == "SparsePolynomial(2*y + 1)"

    def test_equality_and_hash(self):
        x_y = self.poly({(1, 1): 1})
        assert x_y == self.x * self.y and x_y != self.x
        # a value that is not a polynomial is never equal to one
        assert x_y != {(1, 1): 1} and x_y != 1
        assert hash(x_y) == hash(self.y * self.x)
        assert {x_y, self.x * self.y, self.x} == {x_y, self.x}

    def test_unknown_variable_refused(self):
        with pytest.raises(DomainError, match="unknown variable 'z'") as exc:
            self.ring.monomial("z", 2)
        assert exc.value.code == "input-error"

    def test_json(self):
        p = self.poly({(1, 1): 1, (0, 1): -3})
        assert p.to_json() == [
            {"coeff": 1, "exponents": [1, 1]},
            {"coeff": -3, "exponents": [0, 1]},
        ]

    def test_cross_ring_rejected(self):
        other = PolyRing(("z",))
        with pytest.raises(DomainError) as exc:
            _ = self.x * other.var("z")
        assert exc.value.code == "input-error"


@st.composite
def exponents(draw):
    """Four small exponents, or one of them raised so that the degree lies
    within 6 of the cap MAX (and never above it)."""
    e = draw(st.lists(st.integers(0, 2), min_size=4, max_size=4))
    if draw(st.booleans()):
        k = draw(st.integers(0, 3))
        e[k] = draw(st.integers(MAX - 6, MAX)) - (sum(e) - e[k])
    return tuple(e)


term_dicts = st.dictionaries(exponents(), st.integers(-3, 3), max_size=6)


def nonzero(p):
    return {e: c for e, c in p.items() if c}


def ref_mul(p, q):
    out = {}
    for e1, c1 in p.items():
        for e2, c2 in q.items():
            e = tuple(a + b for a, b in zip(e1, e2))
            out[e] = out.get(e, 0) + c1 * c2
    return nonzero(out)


class TestArithmeticAgainstDicts:
    # small coefficients, so products often cancel; exponents up to the cap,
    # so products often overflow it
    ring = PolyRing(("w", "x", "y", "z"))

    def clean(self, poly):
        assert all(type(e) is tuple and len(e) == 4 for e in poly.terms)
        assert all(type(c) is int and c != 0 for c in poly.terms.values())
        return poly.terms

    @given(term_dicts, term_dicts)
    def test_mul(self, p, q):
        fp, fq = SparsePolynomial(self.ring, p), SparsePolynomial(self.ring, q)
        p, q = nonzero(p), nonzero(q)
        assert self.clean(fp) == p
        product = ref_mul(p, q)
        if any(sum(e) > MAX for e in product):
            with pytest.raises(DomainError) as exc:
                fp * fq
            assert exc.value.code == "too-large"
        else:
            assert self.clean(fp * fq) == product
        assert bool(fp) == bool(p)

    @given(term_dicts, st.integers(0, MAX))
    def test_degree_homogeneity_and_order(self, p, d):
        fp = SparsePolynomial(self.ring, p)
        p = nonzero(p)
        degrees = {sum(e) for e in p}
        assert fp.degree() == (max(degrees) if degrees else None)
        assert fp.is_homogeneous() == (len(degrees) <= 1)
        for k in degrees | {d}:
            assert fp.is_homogeneous(k) == (degrees <= {k})
        # descending lex: compare exponents left to right, larger first
        assert fp.sorted_terms() == sorted(p.items(), reverse=True)

    @given(term_dicts)
    def test_json_round_trip(self, p):
        fp = SparsePolynomial(self.ring, p)
        rebuilt = {tuple(t["exponents"]): t["coeff"] for t in fp.to_json()}
        assert SparsePolynomial(self.ring, rebuilt) == fp


class TestPacking:
    ring = PolyRing(("x", "y"))

    @pytest.mark.parametrize("expo, code", [
        ((-1, 0), "input-error"),
        ((1,), "input-error"),
        ((MAX + 1, 0), "too-large"),
        ((MAX, 1), "too-large"),       # each exponent fits, the degree does not
    ])
    def test_unpackable_exponents_refused(self, expo, code):
        with pytest.raises(DomainError) as exc:
            SparsePolynomial(self.ring, {expo: 1})
        assert exc.value.code == code

    def test_negative_power_refused(self):
        with pytest.raises(DomainError) as exc:
            self.ring.monomial("x", -1)
        assert exc.value.code == "input-error"

    def test_product_overflowing_a_field_is_too_large(self):
        x, y = self.ring.var("x"), self.ring.var("y")
        top = self.ring.monomial("x", MAX)
        assert top.terms == {(MAX, 0): 1} and top.degree() == MAX
        assert (self.ring.monomial("x", MAX - 1) * y).degree() == MAX
        for factor in (x, y, top):
            with pytest.raises(DomainError) as exc:
                top * factor
            assert exc.value.code == "too-large"


class TestAltMatrix:
    def test_example_entries(self):
        m = alt_matrix((2, 3, 3, 4, 4))
        assert m.theta == 8
        assert str(m.entry(1, 2)) == "x12^3"
        assert str(m.entry(2, 3)) == "x23^2"
        assert str(m.entry(2, 4)) == "x24"
        assert m.entry(4, 5).is_zero
        assert str(m.entry(2, 1)) == "-x12^3"
        assert m.entry(3, 3).is_zero

    @pytest.mark.parametrize("i, j", [(1, 6), (6, 1), (0, 2), (2, -1)])
    def test_entry_out_of_range_refused(self, i, j):
        with pytest.raises(DomainError) as exc:
            alt_matrix((2, 3, 3, 4, 4)).entry(i, j)
        assert exc.value.code == "input-error"

    @pytest.mark.parametrize("delta", [(2, 3, 3, 4, 4), (2, 2, 2, 3, 3), (1, 2, 2, 3, 3, 3, 4)])
    def test_lower_entries_negate_upper(self, delta):
        m = alt_matrix(delta)
        for i in range(1, m.size + 1):
            for j in range(i + 1, m.size + 1):
                assert m.entry(j, i).terms == {e: -c for e, c in m.entry(i, j).terms.items()}

    def test_linear_case(self):
        m = alt_matrix((1, 1, 1))
        assert m.theta == 3
        for i, j in ((1, 2), (1, 3), (2, 3)):
            assert str(m.entry(i, j)) == f"x{i}{j}"

    def test_zero_entry_from_degree_bound(self):
        m = alt_matrix((2, 2, 2, 3, 3))
        assert m.theta == 6
        assert m.theta - m.delta[3] - m.delta[4] == 0
        assert m.entry(4, 5).is_zero

    def test_non_integral_theta(self):
        with pytest.raises(DomainError, match="not an integer"):
            alt_matrix((1, 1, 1, 1, 1))

    def test_gaeta_failure_warns_only(self):
        # the matrix is built silently; the Gaeta verdict is gaeta_check's
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            m = alt_matrix((2, 2, 5, 5, 5, 5, 6))
        assert m.size == 7
        assert not gaeta_check(m.delta).ok

    def test_variable_ordering_with_extras(self):
        m = alt_matrix((2, 3, 3, 4, 4), extra_vars=("y1", "y2"))
        assert m.ring.names[:3] == ("x12", "x13", "x14")
        assert m.ring.names[-2:] == ("y1", "y2")


class TestPfaffian:
    def setup_method(self):
        self.m = alt_matrix((2, 3, 3, 4, 4))

    def test_two_by_two_subset(self):
        assert str(pfaffian(self.m, (3, 4))) == "x34"

    def test_empty_subset(self):
        assert pfaffian(self.m, ()).terms == {(0,) * len(self.m.ring.names): 1}

    def test_four_by_four_with_zero_entry(self):
        p1 = pfaffian(self.m, (2, 3, 4, 5))
        assert str(p1) == "-x24*x35 + x25*x34"

    def test_odd_subset_rejected(self):
        with pytest.raises(DomainError, match="even"):
            pfaffian(self.m, (1, 2, 3))

    def test_sub_pfaffian_degrees(self):
        subs = sub_pfaffians(self.m)
        assert [p.degree() for p in subs] == [2, 3, 3, 4, 4]
        for p, d in zip(subs, (2, 3, 3, 4, 4)):
            assert p.is_homogeneous(d)

    def test_sub_pfaffians_of_linear_matrix(self):
        subs = sub_pfaffians(alt_matrix((1, 1, 1)))
        assert [str(p).lstrip("-") for p in subs] == ["x23", "x13", "x12"]

    def test_sub_pfaffians_need_odd_size(self):
        with pytest.raises(DomainError, match="odd"):
            sub_pfaffians(_even_matrix())

    def test_first_vs_last_row_expansion(self):
        for subset in ((1, 2), (1, 2, 3, 4), (2, 3, 4, 5), (1, 3, 4, 5)):
            assert pfaffian(self.m, subset) == pfaffian_last_row(self.m, subset)
        big = alt_matrix((2, 2, 4, 4, 4, 4, 4))
        assert pfaffian(big, tuple(range(1, 7))) == pfaffian_last_row(big, tuple(range(1, 7)))

    def test_homogeneity_sweep_small(self):
        for degs in combinations_with_replacement(range(1, 6), 5):
            if sum(degs) % 2:
                continue
            m = alt_matrix(degs)
            for p, d in zip(sub_pfaffians(m), degs):
                assert p.is_zero or (p.is_homogeneous() and p.degree() == d)


def _even_matrix():
    # helper: a legitimate even-size alternating matrix for error-path tests
    from aci3.pfaffians import AlternatingMatrix
    m = alt_matrix((1, 1, 1))
    return AlternatingMatrix(m.delta[:2], m.theta, 2, m.ring, {(1, 2): m.upper[(1, 2)]})


class TestPfaffianInt:
    def test_two_by_two(self):
        assert pfaffian_int([[0, 5], [-5, 0]]) == 5
        assert pf_squared_equals_det([[0, 5], [-5, 0]])

    def test_classical_identity_randomized(self):
        rng = random.Random(7)
        for size in (2, 4, 6):
            for _ in range(100):
                mat = random_alternating(size, rng)
                assert pf_squared_equals_det(mat)

    def test_odd_size_rejected(self):
        with pytest.raises(DomainError):
            pfaffian_int([[0]])

    def test_non_alternating_rejected(self):
        with pytest.raises(DomainError):
            pfaffian_int([[1, 2], [-2, 0]])

    def test_det_of_odd_alternating_is_zero(self):
        rng = random.Random(8)
        for _ in range(10):
            assert int_det(random_alternating(5, rng)) == 0


def _alternating(size, upper):
    """Integer alternating matrix with the given upper entries, row by row."""
    mat = [[0] * size for _ in range(size)]
    values = iter(upper)
    for i in range(size):
        for j in range(i + 1, size):
            mat[i][j] = next(values)
            mat[j][i] = -mat[i][j]
    return mat


class TestPfaffianIntSign:
    # Pf(M)^2 = det(M) cannot see the sign of the pfaffian; these can.

    @given(st.lists(st.integers(-20, 20), min_size=6, max_size=6))
    def test_closed_form_4x4(self, upper):
        a12, a13, a14, a23, a24, a34 = upper
        assert pfaffian_int(_alternating(4, upper)) == a12 * a34 - a13 * a24 + a14 * a23

    @given(st.lists(st.integers(-9, 9), min_size=15, max_size=15),
           st.permutations(range(6)))
    def test_permutation_6x6(self, upper, perm):
        # Pf(P^T M P) = det(P) Pf(M) for the permutation matrix P
        mat = _alternating(6, upper)
        p = [[1 if perm[j] == i else 0 for j in range(6)] for i in range(6)]
        moved = [[sum(p[k][i] * mat[k][l] * p[l][j] for k in range(6) for l in range(6))
                  for j in range(6)] for i in range(6)]
        assert pfaffian_int(moved) == int_det(p) * pfaffian_int(mat)


@st.composite
def gorenstein_deltas(draw):
    """Sorted sequences of length 3, 5, 7 or 9 (``MAX_SIZE``) with entries
    1..8 and integral theta."""
    length = draw(st.sampled_from((3, 5, 7, pfaffians.MAX_SIZE)))
    degs = sorted(draw(st.lists(st.integers(1, 8), min_size=length, max_size=length)))
    n = (length - 1) // 2
    degs[-1] += -sum(degs) % n     # raise the top entry to the next multiple
    return tuple(degs)


class TestSubPfaffianPayload:
    @given(gorenstein_deltas(), st.data())
    def test_json_round_trip(self, delta, data):
        # the payload of pfaffian sub rebuilds the polynomial it printed
        i = data.draw(st.integers(1, len(delta)))
        result = run(["pfaffian", "sub", "--delta", ",".join(map(str, delta)), "--i", str(i)])
        assert result.status == "ok", result.message
        result = result.payload
        ring = PolyRing(tuple(result["variables"]))
        rebuilt = SparsePolynomial(ring, {tuple(t["exponents"]): t["coeff"]
                                          for t in result["terms"]})
        m = alt_matrix(delta)
        assert rebuilt == pfaffian(m, [k for k in range(1, m.size + 1) if k != i])
        assert str(rebuilt) == result["pretty"]

    def test_pinned_payloads(self):
        # pfaffian alt and every pfaffian sub --i of the 203 sequences of
        # length 3, 5, 7 with entries <= 5 and integral theta, plus one of
        # length 9, and pfaffian example; one parser serves every call
        parser = build_parser(["pfaffian"])

        def payload(*argv):
            args = parser.parse_args(["pfaffian", *argv])
            out, _ = getattr(cli, args.route.handler)(args)
            validate_payload(args.route.schema, out)
            return json.dumps(out, sort_keys=True, separators=(",", ":")) + "\n"

        deltas = [delta for length in (3, 5, 7)
                  for delta in combinations_with_replacement(range(1, 6), length)
                  if sum(delta) % ((length - 1) // 2) == 0]
        deltas.append((2, 3, 3, 4, 4, 4, 5, 5, 6))
        lines = []
        for delta in deltas:
            arg = ",".join(map(str, delta))
            lines.append(payload("alt", "--delta", arg))
            lines += [payload("sub", "--delta", arg, "--i", str(i))
                      for i in range(1, len(delta) + 1)]
        lines.append(payload("example"))
        assert len(lines) == 1375
        digest = hashlib.sha256("".join(lines).encode()).hexdigest()
        assert digest == "62d9d552f08160c77d60bd86058f9562efd5eab0d423e384d73c55ec8eae7aa8"


class TestEntryCap:
    # every exponent and degree of Alt(delta) and its pfaffians is at most
    # sum(delta) <= 9 * CAP, which fits a field
    def test_cap_fits_a_field(self):
        assert pfaffians.MAX_SIZE * CAP <= MAX

    @pytest.mark.parametrize("delta", [
        (CAP, CAP, CAP),
        # nine indices, theta integral: the largest sum the cap allows
        (CAP - 9 * CAP % 4,) + (CAP,) * 8,
    ])
    def test_at_the_cap(self, delta, capsys):
        arg = ",".join(map(str, delta))
        assert main(["pfaffian", "alt", "--delta", arg]) == 0
        alt = json.loads(capsys.readouterr().out)
        assert max(e["degree"] for e in alt["entries"]) == alt["theta"] - delta[0] - delta[1]
        assert main(["pfaffian", "sub", "--delta", arg, "--i", "1"]) == 0
        sub = json.loads(capsys.readouterr().out)
        assert sub["degree"] == delta[0]

    @pytest.mark.parametrize("route", [["pfaffian", "alt"], ["pfaffian", "sub", "--i", "1"]])
    def test_one_above_the_cap(self, route, capsys):
        assert main(route + ["--delta", f"1,1,{CAP + 1}"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert json.loads(captured.err)["code"] == "too-large"

    def test_refused_before_a_ring_is_built(self, monkeypatch):
        def no_ring(*args):
            raise AssertionError("ring built")
        monkeypatch.setattr(pfaffians, "_alt_ring", no_ring)
        with pytest.raises(DomainError) as exc:
            alt_matrix((1, 1, 1, 1, CAP + 1))
        assert exc.value.code == "too-large"


class TestSubPfaffiansAgainstLastRow:
    @given(gorenstein_deltas(), st.sampled_from(((), ("y1",), ("y1", "y2"))))
    def test_first_row_memo_equals_last_row(self, delta, extra):
        m = alt_matrix(delta, extra_vars=extra)
        full = range(1, m.size + 1)
        assert sub_pfaffians(m) == [
            pfaffian_last_row(m, [k for k in full if k != i]) for i in full]

    def test_every_sequence_of_the_degree_check(self):
        # the deltas check_pfaffian_degrees expands at its defaults
        cases = 0
        for length in (3, 5, 7):
            for delta in combinations_with_replacement(range(1, 9), length):
                if sum(delta) % ((length - 1) // 2):
                    continue
                m = alt_matrix(delta)
                full = range(1, m.size + 1)
                assert sub_pfaffians(m) == [
                    pfaffian_last_row(m, [k for k in full if k != i]) for i in full], delta
                cases += 1
        assert cases == 1656

    def test_nine_indices(self):
        # Alt(4, ..., 4) has every entry x_ij, so p_i has the 105 perfect
        # matchings of 8 indices: a plan the degree check never builds
        m = alt_matrix((4,) * 9)
        full = range(1, 10)
        subs = sub_pfaffians(m)
        assert subs == [pfaffian_last_row(m, [k for k in full if k != i]) for i in full]
        assert [len(p.packed) for p in subs] == [105] * 9

    def test_overflow_refused_by_both(self):
        # six indices, every entry of degree 30000: a product of two entries
        # overflows, and the sum of three keys would carry past the degree
        # field and clear its guard bit again
        self.assert_refused(30000)

    def test_overflow_of_three_entries_refused(self):
        # every entry of degree 12000: two entries fit, three do not
        self.assert_refused(12000)

    @staticmethod
    def assert_refused(degree):
        m = alt_matrix((1, 1, 1, 1, 1, 1, 3))    # x_ij for i < j <= 6
        big = {ij: (key * degree, 1) for ij, (key, _) in m.upper.items()}
        m = pfaffians.AlternatingMatrix(m.delta, m.theta, 7, m.ring, big)
        for expand in (lambda: pfaffian(m, range(1, 7)),
                       lambda: pfaffian_last_row(m, range(1, 7)),
                       lambda: sub_pfaffians(m)):      # p_7 is the pfaffian on 1..6
            with pytest.raises(DomainError) as exc:
                expand()
            assert exc.value.code == "too-large"


def _hand_built(m, entries):
    """m with the given upper entries, as {(i, j): (exponents, coeff)}."""
    upper = {ij: (m.ring.pack(e), c) for ij, (e, c) in entries.items()}
    return pfaffians.AlternatingMatrix(m.delta, m.theta, m.size, m.ring, upper)


class TestHandBuiltEntries:
    # alt_matrix makes each entry a power of its own variable with
    # coefficient 1; any single-term entries must give the same pfaffians
    # as the cross-check, coefficients and colliding monomials included

    @given(st.data())
    def test_single_terms_match_the_last_row(self, data):
        m = alt_matrix((4,) * 5)        # every x_ij, so any pair may hold an entry
        n = len(m.ring.names)
        entries = data.draw(st.dictionaries(
            st.sampled_from(sorted(m.upper)),
            st.tuples(st.lists(st.integers(0, 1), min_size=n, max_size=n).map(tuple),
                      st.integers(-3, 3).filter(bool))))
        h = _hand_built(m, entries)
        full = range(1, 6)
        assert sub_pfaffians(h) == [pfaffian_last_row(h, [k for k in full if k != i])
                                    for i in full]
        assert pfaffian(h, (1, 2, 3, 4)) == pfaffian_last_row(h, (1, 2, 3, 4))

    @pytest.mark.parametrize("values", [
        (3, -1, 4, 1, -5, 9, 2, -6, 5, 3),      # Pf = -29 on 1..4
        (2, 1, 1, 7, -1, 1, 7, 1, 7, 7),        # Pf = 0: the three matchings cancel
    ])
    def test_constant_entries_give_the_integer_pfaffian(self, values):
        # every entry a constant: the matchings collide on the key 0 and
        # their coefficients add up to the pfaffian of the integer matrix
        m = alt_matrix((4,) * 5)
        one = (0,) * len(m.ring.names)
        h = _hand_built(m, {ij: (one, v) for ij, v in zip(sorted(m.upper), values)})
        mat = [[0] * 4 for _ in range(4)]
        for (i, j), v in zip(sorted(m.upper), values):
            if j <= 4:
                mat[i - 1][j - 1], mat[j - 1][i - 1] = v, -v
        pf = pfaffian_int(mat)
        assert pfaffian(h, range(1, 5)).packed == ({0: pf} if pf else {})


class TestWitnessIdeals:
    def setup_method(self):
        self.w = witness_ideals_a3_h5()

    def test_generator_degrees(self):
        variants = set(pfaffians.WITNESS_RECIPE)
        assert set(self.w.ideals) == variants == set(pfaffians.witness_tables())
        for v in self.w.ideals:
            assert self.w.degrees(v) == (3, 3, 5, 3)
            assert tuple(sorted(self.w.degrees(v))) == (3, 3, 3, 5)

    def test_generators_nonzero_and_homogeneous(self):
        for p in (p for ideal in self.w.ideals.values() for p in ideal):
            assert not p.is_zero
            assert p.is_homogeneous()

    def test_first_generator_structure(self):
        # y2 * p_1 where p_1 = -x24*x35 + x25*x34
        assert str(self.w.ideals["q"][0]) == "-x24*x35*y2 + x25*x34*y2"

    def test_deleted_pfaffian_degrees(self):
        # deg p_{1,2,5} = d1 + d2 + d5 - theta = 1; two extra linear variables
        for ideal in self.w.ideals.values():
            assert ideal[3].degree() == 3
