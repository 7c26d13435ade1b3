from __future__ import annotations

import gc
import itertools
import json
import math
import random
from collections.abc import Mapping
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hwtaylor.diffpoly import DiffPolyRing
from hwtaylor.hurwitz import (
    HurwitzRing,
    HurwitzSeries,
    Plan,
    TruncationError,
    plan_for,
    series_from_json,
    series_to_json,
)
from hwtaylor.multiindex import MultiIndex, count_upto, enumerate_upto, iter_dominated
from hwtaylor.rings import (
    QQ,
    DomainError,
    MixedRingError,
    NotUnitError,
    PolynomialRing,
    PrimeField,
    constant_structure,
    differential_polynomial_carrier,
)
from hwtaylor.taylor import MorphismSpec, ev_twist, ev_untwist, twisted_hurwitz

from oracles import (
    FRACTION_OPS,
    fp_ops,
    hurwitz_product,
    naive_plan,
    poly_ops,
    series_ops,
    tuple_factorial,
    tuples_upto,
)


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

    def test_storage_contract(self):
        H = HurwitzRing(PrimeField(5), 3, 4)
        a = H.sample(random.Random(19))
        assert isinstance(a.coeffs, Mapping)
        assert list(a.coeffs) == list(H.indices)
        assert list(a.coeffs.values()) == list(a.entries)
        assert len(a.coeffs) == count_upto(3, 4)
        with pytest.raises(TypeError):
            a.coeffs[MultiIndex.of(0, 0, 0)] = 1
        with pytest.raises(ValueError, match="does not span the truncation box"):
            HurwitzSeries(H.coeff_ring, 3, 4, 4, a.entries[:-1])
        with pytest.raises(TypeError, match="must be a tuple in graded-lex order"):
            HurwitzSeries(H.coeff_ring, 3, 4, 4, list(a.entries))

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

    @pytest.mark.parametrize("width, trunc", [(1, 7), (2, 4), (3, 3)])
    def test_rational_products_and_inverse_match_the_oracle(self, width, trunc):
        # scalar Q rows take RationalField.dot: zero entries, mixed denominators
        H = HurwitzRing(QQ, width, trunc)
        rng = random.Random(100 + width)
        one = {alpha: Fraction(int(not any(alpha))) for alpha in tuples_upto(width, trunc)}

        def sample():
            return H.from_table(
                {
                    alpha: Fraction(rng.randint(-9, 9), rng.choice((1, 2, 3, 5, 12)))
                    for alpha in H.indices
                    if rng.random() < 0.7
                }
            )

        for trial in range(4):
            a, b = sample(), sample()
            for product, weighted in ((H.mul, True), (H.cauchy_mul, False)):
                want = hurwitz_product(
                    table_of(a), table_of(b), width, trunc, FRACTION_OPS, weighted
                )
                assert table_of(product(a, b)) == want, (trial, weighted)
            unit = a if a.constant_term() else H.add(a, H.one())
            inverse = table_of(H.invert(unit))
            assert hurwitz_product(table_of(unit), inverse, width, trunc, FRACTION_OPS) == one

    def test_against_naive_convolution_fp(self):
        rng = random.Random(13)
        H = HurwitzRing(PrimeField(5), 2, 5)
        a, b = H.sample(rng), H.sample(rng)
        got = H.mul(a, b)
        want = hurwitz_product(table_of(a), table_of(b), 2, 5, fp_ops(5))
        for idx, c in want.items():
            assert got.coeff(MultiIndex(idx)) == c

    @pytest.mark.parametrize(
        "base, ops", [(QQ, FRACTION_OPS), (PrimeField(5), fp_ops(5))], ids=["Q", "F5"]
    )
    def test_products_over_polynomials_match_the_oracle(self, base, ops):
        # polynomial coefficients take the ring's own row kernel: zero,
        # one-term and many-term coefficients, denominators 1 to 3 over Q
        R = PolynomialRing(base, ("u", "v"))
        H = HurwitzRing(R, 2, 3)
        rng = random.Random(29)

        def sample():
            return H.from_table(
                {alpha: R.sample(rng) for alpha in H.indices if rng.random() < 0.7}
            )

        def dict_table(a):
            return {idx: dict(c.terms) for idx, c in table_of(a).items()}

        for trial in range(6):
            a, b = sample(), sample()
            for product, weighted in ((H.mul, True), (H.cauchy_mul, False)):
                want = hurwitz_product(
                    dict_table(a), dict_table(b), 2, 3, poly_ops(ops, 2), weighted
                )
                assert dict_table(product(a, b)) == want, (trial, weighted)

    def test_product_of_ones_counts_weights(self):
        # with every coefficient 1, row alpha sums binom(alpha, beta) over
        # beta <= alpha (2^|alpha|), or counts the beta <= alpha (prod alpha_i + 1)
        H = HurwitzRing(QQ, 3, 4)
        ones = H.from_table(dict.fromkeys(H.indices, Fraction(1)))
        weighted, plain = H.mul(ones, ones), H.cauchy_mul(ones, ones)
        for alpha, w, c in zip(H.indices, weighted.entries, plain.entries, strict=True):
            assert w == 2 ** alpha.degree
            assert c == math.prod(e + 1 for e in alpha)

    def test_a_plan_is_kept_and_builds_no_multi_index(self, monkeypatch):
        # a plan depends on its shape alone, and its tables come from entry
        # tuples: past the (cached) indices, building one makes no MultiIndex
        assert plan_for(2, 4) is plan_for(2, 4)
        enumerate_upto(3, 6)
        built = []
        post_init = MultiIndex.__post_init__

        def counting(self):
            built.append(self)
            post_init(self)

        monkeypatch.setattr(MultiIndex, "__post_init__", counting)
        Plan(3, 6)
        assert built == []

    @pytest.mark.parametrize(
        "width, trunc", [(w, t) for w in (1, 2, 3) for t in range(9)] + [(3, 12)]
    )
    def test_plan_matches_the_naive_oracle(self, width, trunc):
        plan = Plan(width, trunc)
        want = naive_plan(width, trunc)
        assert [alpha.entries for alpha in plan.indices] == want["indices"]
        assert plan.rows == want["rows"]
        assert plan.shifts == want["shifts"]
        assert plan.lines == want["lines"]
        assert plan.parents == want["parents"]
        assert plan.factorials == want["factorials"]
        # alpha - beta runs through the box below alpha backwards
        assert all(right == left[::-1] for left, right, _ in plan.rows)

    def test_a_plan_keeps_no_betas(self):
        """Building a plan leaves at most its own indices alive: the betas it
        walks to form the weights are entry tuples, not kept."""

        def live() -> int:
            gc.collect()
            return sum(isinstance(o, MultiIndex) for o in gc.get_objects())

        before = live()
        plan = Plan(3, 9)
        assert live() - before <= count_upto(3, 9) == len(plan.indices)


class TestDerivations:
    def test_shift_examples(self):
        H = HurwitzRing(QQ, 2, 3)
        a = H.sample(random.Random(3))
        d0 = H.shift_derive(a, 0)
        assert d0.valid == 2
        assert d0.coeff(MultiIndex.of(1, 1)) == a.coeff(MultiIndex.of(2, 1))
        for derive, slot in ((H.shift_derive, 2), (H.formal_derive, -1)):
            with pytest.raises(ValueError, match=f"slot {slot} out of range for width 2"):
                derive(a, slot)

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
        with pytest.raises(ValueError, match="comparison order 3 exceeds valid orders 2, 2"):
            H.agree_up_to(lhs, rhs, 3)
        with pytest.raises(ValueError, match="comparison order -1 is negative"):
            H.agree_up_to(lhs, rhs, -1)

    def test_coeff_derive_is_free_and_commutes_with_shift(self):
        R = PolynomialRing(QQ, ["u"])
        du = R.derivation(["1"])
        H = HurwitzRing(R, 1, 3)
        a = H.sample(random.Random(7))
        lifted = H.coeff_derive(a, [du], 0)
        assert lifted.valid == a.valid
        lhs = H.shift_derive(lifted, 0)
        rhs = H.coeff_derive(H.shift_derive(a, 0), [du], 0)
        assert H.agree_up_to(lhs, rhs, 2)
        with pytest.raises(ValueError, match="slot 1 out of range for 1 derivations"):
            H.coeff_derive(a, [du], 1)

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


class TestCofreeInCharacteristicP:
    """Over ``F_3`` the differential maps ``F_3[u] -> H(F_3)`` with ``u' = u^2 + 1``
    are the series solving ``D s = s^2 + 1``, one per initial value: Hurwitz
    series are cofree in characteristic p.  Ordinary power series with
    ``d/dt`` are not, since their recursion needs ``3 s_3 = (s^2 + 1)_2``."""

    def test_riccati_solutions_are_counted_over_every_series(self):
        F3 = PrimeField(3)
        H = HurwitzRing(F3, 1, 6)
        one = H.one()
        every = [HurwitzSeries(F3, 1, 6, 6, e) for e in itertools.product(range(3), repeat=7)]
        assert len(every) == 3**7

        def solutions(derive, mul):
            # derive costs one grade, so the comparison runs through order 5
            return [
                s.entries for s in every
                if H.agree_up_to(derive(s, 0), H.add(mul(s, s), one), 5)
            ]

        hurwitz = solutions(H.shift_derive, H.mul)
        assert sorted(s[0] for s in hurwitz) == [0, 1, 2]
        # the tangent numbers 0, 1, 0, 2, 0, 16, 0 mod 3
        assert (0, 1, 0, 2, 0, 1, 0) in hurwitz
        assert solutions(H.formal_derive, H.cauchy_mul) == []


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
        # over Q[u] a series is a unit exactly when its constant term is
        R = PolynomialRing(QQ, ["u"])
        Hpoly = HurwitzRing(R, 1, 3)
        u = Hpoly.embed(R.parse("u"))
        assert not Hpoly.is_unit(u) and Hpoly.try_invert(u) is None
        with pytest.raises(NotUnitError, match="not a unit"):
            Hpoly.invert(u)
        assert Hpoly.is_unit(Hpoly.one())
        assert Hpoly.eq(Hpoly.invert(Hpoly.one()), Hpoly.one())
        assert Hpoly.eq(Hpoly.try_invert(Hpoly.one()), Hpoly.one())

    def test_unit_iff_constant_term_unit(self):
        H = HurwitzRing(PrimeField(5), 1, 3)
        t = H.indeterminate(0)
        assert not H.is_unit(t)
        assert H.is_unit(H.add(t, H.one()))


def _nested(a, depth):
    """A series of series, ``depth`` levels deep over Q, as dense oracle tables."""
    if depth == 0:
        return a
    return {idx: _nested(c, depth - 1) for idx, c in table_of(a).items()}


def _with_constant(H, a, c):
    """``a`` with its constant term replaced by ``c``."""
    K = H.coeff_ring
    return H.add(a, H.embed(K.sub(c, H.ev(a))))


class TestInversionOverRings:
    """A series is a unit exactly when its constant term is (Keigher 1997):
    inversion asks the coefficient ring about that term and nothing else."""

    @pytest.mark.parametrize("case", ["Q[u,v]", "F_3[u]", "H(Q)"])
    def test_inverse_matches_the_oracle_product(self, case):
        def terms(c):
            return dict(c.terms)

        if case == "Q[u,v]":
            K = PolynomialRing(QQ, ("u", "v"))
            ops, convert, unit = poly_ops(FRACTION_OPS, 2), terms, K.constant(Fraction(-3, 2))
        elif case == "F_3[u]":
            K = PolynomialRing(PrimeField(3), ("u",))
            ops, convert, unit = poly_ops(fp_ops(3), 1), terms, K.constant(2)
        else:
            K = HurwitzRing(QQ, 1, 3)
            ops, convert = series_ops(FRACTION_OPS, 1, 3), lambda c: _nested(c, 1)
            unit = _with_constant(K, K.sample(random.Random(31)), Fraction(2))
        H = HurwitzRing(K, 2, 3)
        one = {idx: ops.embed(int(not any(idx))) for idx in tuples_upto(2, 3)}
        rng = random.Random(30)
        for trial in range(4):
            a = _with_constant(H, H.sample(rng), unit)
            b = H.invert(a)
            assert b.valid == a.valid
            a_table = {idx: convert(c) for idx, c in table_of(a).items()}
            b_table = {idx: convert(c) for idx, c in table_of(b).items()}
            assert hurwitz_product(a_table, b_table, 2, 3, ops) == one, (case, trial)

    def test_is_unit_iff_try_invert_on_every_coefficient_ring(self):
        rings = [
            QQ,
            *(PrimeField(p) for p in (2, 3, 5, 7)),
            PolynomialRing(QQ, ["u"]),
            PolynomialRing(QQ, ["u", "v"]),
            PolynomialRing(PrimeField(3), ["u"]),
            PolynomialRing(PrimeField(5), ["u", "v"]),
            DiffPolyRing(constant_structure(QQ, 1), ["x"]),
            HurwitzRing(QQ, 1, 2),
            HurwitzRing(PrimeField(3), 2, 2),
            HurwitzRing(PolynomialRing(QQ, ["u"]), 1, 2),
            HurwitzRing(HurwitzRing(QQ, 1, 2), 1, 2),
        ]
        rng = random.Random(32)
        for K in rings:
            H = HurwitzRing(K, 1, 2)
            constants = [K.zero(), K.one(), K.embed_int(2), K.embed_int(3), K.sample(rng)]
            seen = set()
            for c in constants:
                a = _with_constant(H, H.sample(rng), c)
                inverse = H.try_invert(a)
                assert H.is_unit(a) == (inverse is not None), (K, c)
                if inverse is None:
                    with pytest.raises(NotUnitError, match="not a unit"):
                        H.invert(a)
                else:
                    assert H.eq(H.mul(a, inverse), H.one()), (K, c)
                    assert H.eq(H.invert(a), inverse), (K, c)
                seen.add(inverse is None)
            assert seen == {True, False}, K

    def test_series_three_levels_deep_invert_and_divide(self):
        H1 = HurwitzRing(QQ, 1, 2)
        H2 = HurwitzRing(H1, 1, 2)
        H3 = HurwitzRing(H2, 1, 2)
        ops2 = series_ops(series_ops(FRACTION_OPS, 1, 2), 1, 2)
        assert H3.is_unit(H3.one())
        rng = random.Random(33)
        for trial in range(3):
            a = H3.sample(rng)
            divided = H3.to_divided(a)
            assert H3.eq(H3.from_divided(divided), a), trial
            a_table, d_table = _nested(a, 3), _nested(divided, 3)
            for idx, c in d_table.items():
                f = ops2.embed(tuple_factorial(idx))
                assert ops2.mul(f, c) == a_table[idx], (trial, idx)
            inner = _with_constant(H1, H1.sample(rng), Fraction(trial + 1, 2))
            a = _with_constant(H3, a, _with_constant(H2, H2.sample(rng), inner))
            b = H3.invert(a)
            one = {idx: ops2.embed(int(not any(idx))) for idx in tuples_upto(1, 2)}
            assert hurwitz_product(_nested(a, 3), _nested(b, 3), 1, 2, ops2) == one, trial


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

        # characteristic 0 is not enough: the coefficients must invert 2! too
        class NoInverses(type(QQ)):
            def try_invert(self, a):
                return None

        H = HurwitzRing(NoInverses(), 1, 4)
        with pytest.raises(DomainError, match="does not invert 2; divided form needs"):
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
            ({**good, "coeffs": [[[1], "x"]]}, r"^series\.coeffs\[0\]: not a rational literal: 'x'$"),
            (
                {**good, "ring": {"kind": "poly", "generators": ["u"]}, "coeffs": [[[1], "u^65"]]},
                r"^series\.coeffs\[0\]: exponent 65 exceeds 64 in 'u\^65'$",
            ),
            ({**good, "extra": 1}, "unknown field"),
            ({**good, "m": True}, "series.m: expected an integer"),
            ({**good, "trunc": True}, "series.trunc: expected an integer"),
            ({**good, "valid": True}, "series.valid: expected an integer"),
            ({**good, "coeffs": [[[True], "1"]]}, r"series\.coeffs\[0\]\[0\]: expected an integer"),
            ({**good, "m": 4}, "series.m: must be between 1 and 3"),
            ({**good, "m": 6, "trunc": 20}, "series.m: must be between 1 and 3"),
            ({**good, "trunc": 13}, "series.trunc: must be between 0 and 12"),
            ({**good, "coeffs": {}}, r"^series\.coeffs: expected a list$"),
            (
                {**good, "coeffs": [[[0], 1]]},
                r"^series\.coeffs\[0\]: expected \[index list, element string\]$",
            ),
        ]
        for doc, pattern in cases:
            with pytest.raises(ValueError, match=pattern):
                series_from_json(doc)

    def test_missing_coeffs_are_zero(self):
        doc = {"m": 1, "trunc": 3, "valid": 3, "ring": {"kind": "Q"}, "coeffs": []}
        a = series_from_json(doc)
        assert a.coeff(MultiIndex.of(2)) == Fraction(0)


def _redraw_above_valid(H, a, rng):
    """``a`` with every coefficient above its valid order drawn afresh."""
    K = H.coeff_ring
    return H.from_table(
        {
            alpha: c if alpha.degree <= a.valid else K.sample(rng)
            for alpha, c in a.coeffs.items()
        },
        a.valid,
    )


def _valid_order_operations(H, family):
    """Every series operation with a validity rule, as functions of (a, b)."""
    ops = {
        "mul": H.mul,
        "cauchy_mul": H.cauchy_mul,
        "ev_twist": lambda a, b: ev_twist(a, family),
        "ev_untwist": lambda a, b: ev_untwist(a, family),
    }
    for slot in range(H.width):
        ops[f"shift_derive({slot})"] = lambda a, b, s=slot: H.shift_derive(a, s)
        ops[f"formal_derive({slot})"] = lambda a, b, s=slot: H.formal_derive(a, s)
    ops["invert"] = lambda a, b: H.invert(a)
    if H.characteristic == 0:
        ops["to_divided"] = lambda a, b: H.to_divided(a)
    return ops


class TestValidOrder:
    """What lies above a valid order must not reach the valid grades of a result."""

    def test_redrawn_high_grades_leave_valid_grades_alone(self):
        R, F3 = PolynomialRing(QQ, ["u", "v"]), PrimeField(3)
        cases = [
            # fields carry no nonzero derivation; doubling stands in for the
            # twisting family, whose action on coefficients validity ignores
            (HurwitzRing(QQ, 3, 4), [lambda x: QQ.add(x, x)] * 3),
            (HurwitzRing(F3, 2, 5), [lambda x: F3.add(x, x)] * 2),
            (HurwitzRing(R, 2, 4), [R.derivation(["1", "0"]), R.derivation(["0", "v"])]),
        ]
        rng = random.Random(20)
        for H, family in cases:
            ops = _valid_order_operations(H, family)
            for trial in range(6):
                a, b = (
                    H.from_table(H.sample(rng).coeffs, rng.randint(1, H.trunc - 1))
                    for _ in range(2)
                )
                # a unit constant term, so that ``invert`` runs on every case
                a = _with_constant(H, a, H.coeff_ring.one())
                a2, b2 = _redraw_above_valid(H, a, rng), _redraw_above_valid(H, b, rng)
                for name, op in ops.items():
                    got, again = op(a, b), op(a2, b2)
                    where = f"{H!r} {name} trial {trial}"
                    assert got.valid == again.valid, where
                    assert H.agree_up_to(got, again, got.valid), where

    def test_twisted_hurwitz_agrees_with_a_wider_truncation(self):
        # a constructor's input has no grades above its valid order; the
        # grades a wider truncation adds must not reach the valid ones either
        rng = random.Random(21)
        for base in (QQ, PrimeField(3)):
            K = differential_polynomial_carrier(base, ["u", "v"], [["1", "0"], ["0", "v"]])
            R = K.ring
            for _ in range(3):
                element = R.sample(rng, 3)

                def expand(trunc, element=element):
                    spec = MorphismSpec(
                        source=constant_structure(R, 2), coefficients=K, phi=lambda x: x, trunc=trunc
                    )
                    return spec.target, twisted_hurwitz(spec, element)

                H, got = expand(3)
                _, wider = expand(5)
                assert H.agree_up_to(got, H.from_table(wider.coeffs), got.valid)


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
