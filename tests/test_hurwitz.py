from __future__ import annotations

import json
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hwtaylor.hurwitz import (
    HurwitzRing,
    TruncationError,
    series_from_json,
    series_to_json,
)
from hwtaylor.multiindex import MultiIndex, iter_dominated
from hwtaylor.rings import (
    QQ,
    DomainError,
    MixedRingError,
    NotUnitError,
    PolynomialRing,
    PrimeField,
)

from oracles import FRACTION_OPS, fp_ops, hurwitz_product, tuples_upto


def table_of(a):
    return {alpha.entries: c for alpha, c in a.coeffs.items()}


class TestConstruction:
    def test_shape(self):
        H = HurwitzRing(QQ, 2, 3)
        z = H.zero()
        assert len(z.coeffs) == 10 and z.valid == 3
        assert H.is_zero(z)

    def test_embed_and_variable(self):
        H = HurwitzRing(QQ, 2, 2)
        t1 = H.indeterminate(1)
        assert t1.coeff(MultiIndex.of(0, 1)) == Fraction(1)
        assert t1.coeff(MultiIndex.of(0, 0)) == Fraction(0)
        assert H.ev(H.embed(Fraction(5))) == Fraction(5)

    def test_mixed_carrier_rejected(self):
        H1 = HurwitzRing(QQ, 1, 3)
        H2 = HurwitzRing(QQ, 1, 4)
        with pytest.raises(MixedRingError):
            H1.add(H1.zero(), H2.zero())


class TestProduct:
    def test_variable_powers_carry_factorials(self):
        # t^k has coefficient k! at index k: frozen values 1, 2, 6 at k = 1, 2, 3
        H = HurwitzRing(QQ, 1, 4)
        t = H.indeterminate(0)
        t2 = H.mul(t, t)
        t3 = H.mul(t2, t)
        assert t2.coeff(MultiIndex.of(2)) == Fraction(2)
        assert t3.coeff(MultiIndex.of(3)) == Fraction(6)
        assert t3.coeff(MultiIndex.of(2)) == Fraction(0)

    def test_char_2_square_of_variable_vanishes(self):
        H = HurwitzRing(PrimeField(2), 1, 2)
        t = H.indeterminate(0)
        assert H.is_zero(H.mul(t, t))

    def test_against_naive_convolution_rational(self):
        rng = random.Random(11)
        H = HurwitzRing(QQ, 2, 4)
        a, b = H.sample(rng), H.sample(rng)
        got = H.mul(a, b)
        want = hurwitz_product(table_of(a), table_of(b), 2, 4, FRACTION_OPS)
        for idx, c in want.items():
            assert got.coeff(MultiIndex(idx)) == c

    def test_against_naive_convolution_fp(self):
        rng = random.Random(13)
        H = HurwitzRing(PrimeField(5), 2, 5)
        a, b = H.sample(rng), H.sample(rng)
        got = H.mul(a, b)
        want = hurwitz_product(table_of(a), table_of(b), 2, 5, fp_ops(5))
        for idx, c in want.items():
            assert got.coeff(MultiIndex(idx)) == c

    def test_convolve_of_ones_counts_weights(self):
        # with term 1, row alpha sums binom(alpha, beta) over beta <= alpha
        # (2^|alpha|), or counts the beta <= alpha (prod alpha_i + 1)
        H = HurwitzRing(QQ, 3, 4)

        def ones(beta, rest):
            return Fraction(1)

        weighted = list(H.convolve(ones))
        plain = list(H.convolve(ones, weighted=False))
        assert [alpha for alpha, _ in weighted] == list(H.indices)
        assert [alpha for alpha, _ in plain] == list(H.indices)
        for (alpha, w), (_, c) in zip(weighted, plain):
            assert w == 2 ** alpha.degree
            assert c == math.prod(e + 1 for e in alpha)


class TestDerivations:
    def test_shift_examples(self):
        H = HurwitzRing(QQ, 2, 3)
        a = H.sample(random.Random(3))
        d0 = H.shift_derive(a, 0)
        assert d0.valid == 2
        assert d0.coeff(MultiIndex.of(1, 1)) == a.coeff(MultiIndex.of(2, 1))

    def test_shift_exhaustion(self):
        H = HurwitzRing(QQ, 1, 2)
        a = H.sample(random.Random(4))
        a = H.shift_derive(H.shift_derive(a, 0), 0)
        assert a.valid == 0
        with pytest.raises(TruncationError, match="exhausts truncation"):
            H.shift_derive(a, 0)

    def test_shift_leibniz_up_to_valid(self):
        rng = random.Random(5)
        for ring in [QQ, PrimeField(3)]:
            H = HurwitzRing(ring, 2, 4)
            a, b = H.sample(rng), H.sample(rng)
            lhs = H.shift_derive(H.mul(a, b), 1)
            rhs = H.add(H.mul(H.shift_derive(a, 1), b), H.mul(a, H.shift_derive(b, 1)))
            assert H.agree_up_to(lhs, rhs, 3)

    def test_shift_slots_commute(self):
        H = HurwitzRing(PrimeField(7), 2, 4)
        a = H.sample(random.Random(6))
        lhs = H.shift_derive(H.shift_derive(a, 0), 1)
        rhs = H.shift_derive(H.shift_derive(a, 1), 0)
        assert H.agree_up_to(lhs, rhs, 2)

    def test_coeff_derive_is_free_and_commutes_with_shift(self):
        R = PolynomialRing(QQ, ["u"])
        du = R.derivation(["1"])
        H = HurwitzRing(R, 1, 3)
        a = H.sample(random.Random(7))
        lifted = H.coeff_derive(a, [du], 0)
        assert lifted.valid == a.valid
        lhs = H.shift_derive(lifted, 0)
        rhs = H.coeff_derive(H.shift_derive(a, 0), [du], 0)
        assert H.agree(lhs, rhs)

    def test_differential_structure_combines(self):
        R = PolynomialRing(QQ, ["u"])
        du = R.derivation(["1"])
        H = HurwitzRing(R, 1, 3)
        D = H.differential_structure([du])
        a = H.embed(R.gen("u"))
        d = D.derive(a, 0)
        # derivative of the constant series u is the constant series 1
        assert R.eq(d.coeff(MultiIndex.of(0)), R.one())
        assert d.valid == 2


class TestEvAndUnits:
    def test_ev_is_ring_hom(self):
        rng = random.Random(8)
        H = HurwitzRing(QQ, 2, 3)
        a, b = H.sample(rng), H.sample(rng)
        assert H.ev(H.add(a, b)) == H.ev(a) + H.ev(b)
        assert H.ev(H.mul(a, b)) == H.ev(a) * H.ev(b)
        assert H.ev(H.one()) == Fraction(1)

    def test_invert_rational(self):
        rng = random.Random(9)
        H = HurwitzRing(QQ, 2, 4)
        a = H.sample(rng)
        a = H.add(a, H.one())  # push the constant term away from 0 deterministically
        if QQ.is_zero(H.ev(a)):
            a = H.add(a, H.one())
        b = H.invert(a)
        assert H.agree_up_to(H.mul(a, b), H.one(), 4)

    def test_invert_fp(self):
        rng = random.Random(10)
        H = HurwitzRing(PrimeField(3), 1, 5)
        a = H.from_table(
            {MultiIndex.of(0): 2, MultiIndex.of(1): 1, MultiIndex.of(3): 2}
        )
        b = H.invert(a)
        assert H.agree_up_to(H.mul(b, a), H.one(), 5)

    def test_invert_errors(self):
        H = HurwitzRing(QQ, 1, 3)
        t = H.indeterminate(0)
        with pytest.raises(NotUnitError, match="not a unit"):
            H.invert(t)
        Hpoly = HurwitzRing(PolynomialRing(QQ, ["u"]), 1, 3)
        with pytest.raises(DomainError, match="field coefficients"):
            Hpoly.invert(Hpoly.one())
        assert Hpoly.try_invert(Hpoly.one()) is None

    def test_unit_iff_constant_term_unit(self):
        H = HurwitzRing(PrimeField(5), 1, 3)
        t = H.indeterminate(0)
        assert not H.is_unit(t)
        assert H.is_unit(H.add(t, H.one()))
        assert H.is_nilpotent(t)
        assert not H.is_nilpotent(H.one())


class TestDividedBridge:
    def test_roundtrip(self):
        H = HurwitzRing(QQ, 2, 4)
        a = H.sample(random.Random(12))
        assert H.eq(H.from_divided(H.to_divided(a)), a)

    def test_frozen_scaling(self):
        H = HurwitzRing(QQ, 1, 4)
        a = H.from_table({MultiIndex.of(4): Fraction(1)})
        assert H.to_divided(a).coeff(MultiIndex.of(4)) == Fraction(1, 24)

    def test_char_p_rejected(self):
        H = HurwitzRing(PrimeField(3), 1, 4)
        with pytest.raises(DomainError, match="characteristic"):
            H.to_divided(H.one())

    def test_intertwines_shift_and_formal_derivative(self):
        H = HurwitzRing(QQ, 2, 5)
        a = H.sample(random.Random(14))
        for slot in range(2):
            lhs = H.to_divided(H.shift_derive(a, slot))
            rhs = H.formal_derive(H.to_divided(a), slot)
            assert H.agree_up_to(lhs, rhs, 4)

    def test_divided_product_is_plain_power_series_product(self):
        # multiply u-coefficient tables as ordinary power series via the bridge
        H = HurwitzRing(QQ, 1, 3)
        a, b = H.sample(random.Random(15)), H.sample(random.Random(16))
        da, db = H.to_divided(a), H.to_divided(b)
        prod = H.to_divided(H.mul(a, b))
        for n in range(4):
            want = sum(
                (
                    da.coeff(MultiIndex.of(k)) * db.coeff(MultiIndex.of(n - k))
                    for k in range(n + 1)
                ),
                Fraction(0),
            )
            assert prod.coeff(MultiIndex.of(n)) == want

    def test_cauchy_mul_matches_plain_convolution(self):
        H = HurwitzRing(QQ, 2, 3)
        rng = random.Random(17)
        a, b = H.sample(rng), H.sample(rng)
        got = H.cauchy_mul(a, b)
        for alpha in H.indices:
            want = sum(
                (
                    a.coeff(beta) * b.coeff(alpha - beta)
                    for beta in iter_dominated(alpha)
                ),
                Fraction(0),
            )
            assert got.coeff(alpha) == want

    def test_bridge_is_multiplicative_onto_cauchy_product(self):
        H = HurwitzRing(QQ, 2, 4)
        rng = random.Random(18)
        for _ in range(4):
            a, b = H.sample(rng), H.sample(rng)
            lhs = H.to_divided(H.mul(a, b))
            rhs = H.cauchy_mul(H.to_divided(a), H.to_divided(b))
            assert H.eq(lhs, rhs)

    def test_cauchy_mul_works_in_characteristic_p(self):
        # the unweighted convolution needs no factorials: t*t is nonzero here
        H = HurwitzRing(PrimeField(2), 1, 3)
        t = H.indeterminate(0)
        sq = H.cauchy_mul(t, t)
        assert sq.coeff(MultiIndex.of(2)) == 1
        assert H.is_zero(H.mul(t, t))


class TestJson:
    def test_roundtrip_and_zero_omission(self):
        H = HurwitzRing(PrimeField(3), 2, 3)
        a = H.from_table({MultiIndex.of(1, 0): 2, MultiIndex.of(0, 3): 1}, valid=2)
        doc = series_to_json(a)
        assert doc["valid"] == 2
        assert [e[0] for e in doc["coeffs"]] == [[1, 0], [0, 3]]
        back = series_from_json(doc)
        assert H.eq(back, a) and back.valid == 2

    def test_renders_deterministically(self):
        H = HurwitzRing(QQ, 1, 2)
        a = H.from_table({MultiIndex.of(1): Fraction(-1, 2)})
        assert (
            H.render(a)
            == '{"coeffs":[[[1],"-1/2"]],"m":1,"ring":{"kind":"Q"},"trunc":2,"valid":2}'
        )

    def test_errors_name_paths(self):
        good = {"m": 1, "trunc": 2, "valid": 2, "ring": {"kind": "Q"}, "coeffs": []}
        cases = [
            ({**good, "m": 0}, "series.m"),
            ({**good, "valid": 3}, "series.valid"),
            ({**good, "coeffs": [[[0, 0], "1"]]}, r"series\.coeffs\[0\]"),
            ({**good, "coeffs": [[[3], "1"]]}, "exceeds trunc"),
            ({**good, "coeffs": [[[1], "1"], [[1], "2"]]}, "duplicate"),
            ({**good, "coeffs": [[[1], "x"]]}, "not a rational"),
            ({**good, "extra": 1}, "unknown field"),
            ({**good, "m": True}, "series.m: expected an integer"),
            ({**good, "trunc": True}, "series.trunc: expected an integer"),
            ({**good, "valid": True}, "series.valid: expected an integer"),
            ({**good, "coeffs": [[[True], "1"]]}, r"series\.coeffs\[0\]\[0\]: expected an integer"),
            ({**good, "m": 4}, "series.m: must be between 1 and 3"),
            ({**good, "m": 6, "trunc": 20}, "series.m: must be between 1 and 3"),
            ({**good, "trunc": 13}, "series.trunc: must be between 0 and 12"),
        ]
        for doc, pattern in cases:
            with pytest.raises(ValueError, match=pattern):
                series_from_json(doc)

    def test_missing_coeffs_are_zero(self):
        doc = {"m": 1, "trunc": 3, "valid": 3, "ring": {"kind": "Q"}, "coeffs": []}
        a = series_from_json(doc)
        assert a.coeff(MultiIndex.of(2)) == Fraction(0)


@st.composite
def series_pair(draw):
    ring = draw(st.sampled_from([QQ, PrimeField(2), PrimeField(5)]))
    width = draw(st.integers(min_value=1, max_value=2))
    trunc = draw(st.integers(min_value=0, max_value=4))
    seed = draw(st.integers(min_value=0, max_value=10**6))
    H = HurwitzRing(ring, width, trunc)
    rng = random.Random(seed)
    return H, H.sample(rng), H.sample(rng), H.sample(rng)


@settings(max_examples=40, deadline=None)
@given(series_pair())
def test_ring_laws_hypothesis(data):
    H, a, b, c = data
    assert H.eq(H.add(a, b), H.add(b, a))
    assert H.eq(H.mul(a, b), H.mul(b, a))
    assert H.eq(H.mul(H.mul(a, b), c), H.mul(a, H.mul(b, c)))
    assert H.eq(H.mul(a, H.add(b, c)), H.add(H.mul(a, b), H.mul(a, c)))
    assert H.eq(H.mul(a, H.one()), a)
    assert H.is_zero(H.add(a, H.neg(a)))


@settings(max_examples=40, deadline=None)
@given(series_pair())
def test_json_roundtrip_hypothesis(data):
    H, a, _, _ = data
    assert H.eq(series_from_json(json.loads(H.render(a))), a)
