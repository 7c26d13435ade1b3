from __future__ import annotations

import dataclasses
import random
import weakref
from fractions import Fraction

import pytest

import hwtaylor.taylor as taylor
from hwtaylor.checks import Size, _random_structure
from hwtaylor.diffpoly import DiffPolyRing
from hwtaylor.hurwitz import HurwitzRing
from hwtaylor.multiindex import MultiIndex, enumerate_upto
from hwtaylor.rings import (
    QQ,
    DifferentialRing,
    DomainError,
    PrimeField,
    constant_structure,
    differential_polynomial_carrier,
)
from hwtaylor.taylor import (
    MorphismSpec,
    classical_taylor,
    ev_twist,
    ev_untwist,
    hurwitz_morphism,
    twisted_hurwitz,
    twisted_taylor,
)

from oracles import (
    FRACTION_OPS,
    Ops,
    ev_twist_coeff,
    fp_ops,
    twisted_divided_coeff,
    twisted_hurwitz_coeff,
)


def poly_ops(R):
    return Ops(zero=R.zero(), add=R.add, mul=R.mul, neg=R.neg, embed=R.embed_int)


def rational_poly_carrier():
    """K = Q[u] with the single derivation u -> 1."""
    return differential_polynomial_carrier(QQ, ["u"], [["1"]])


class TestGoldenLinear:
    """Expansion of u over (Q[u], d/du) with a trivially derived source."""

    def setup_method(self):
        self.K = rational_poly_carrier()
        self.R = self.K.ring
        self.source = constant_structure(self.R, 1)
        self.spec = MorphismSpec(
            source=self.source,
            coefficients=self.K,
            phi=lambda a: a,
            trunc=8,
        )
        self.u = self.R.gen("u")

    def expected(self, H):
        return H.from_table(
            {
                MultiIndex.of(0): self.u,
                MultiIndex.of(1): self.R.embed_int(-1),
            }
        )

    def test_twisted_hurwitz_gives_u_minus_t(self):
        got = twisted_hurwitz(self.spec, self.u)
        assert got.valid == 8
        assert self.spec.target.eq(got, self.expected(self.spec.target))

    def test_twisted_taylor_gives_u_minus_t(self):
        got = twisted_taylor(self.spec, self.u)
        assert self.spec.target.eq(got, self.expected(self.spec.target))

    def test_compositional_route_agrees(self):
        # independent route: expand with the coefficients read as constant,
        # then untwist by the coefficient family
        constant_view = MorphismSpec(
            source=self.source,
            coefficients=constant_structure(self.R, 1),
            phi=lambda a: a,
            trunc=8,
        )
        plain = hurwitz_morphism(constant_view, self.u)
        via_twist = ev_untwist(plain, self.K.derivations)
        assert self.spec.target.eq(via_twist, twisted_hurwitz(self.spec, self.u))


class TestGoldenExponential:
    """Expansion of x with every derivative of x sent to 1."""

    def setup_method(self):
        self.K = constant_structure(QQ, 1)
        self.A = DiffPolyRing(self.K, ["x"])
        self.values = {
            (0, MultiIndex.of(n)): Fraction(1) for n in range(11)
        }
        self.spec = MorphismSpec(
            source=self.A.differential_ring(),
            coefficients=self.K,
            phi=self.A.value_hom(self.values),
            trunc=10,
        )
        self.x = self.A.gen("x")

    def test_hurwitz_coefficients_all_one(self):
        got = hurwitz_morphism(self.spec, self.x)
        for n in range(11):
            assert got.coeff(MultiIndex.of(n)) == Fraction(1)

    def test_classical_coefficients_inverse_factorials(self):
        got = classical_taylor(self.spec, self.x)
        import math

        for n in range(11):
            assert got.coeff(MultiIndex.of(n)) == Fraction(1, math.factorial(n))

    def test_divided_bridge_connects_them(self):
        H = self.spec.target
        lhs = H.to_divided(hurwitz_morphism(self.spec, self.x))
        rhs = classical_taylor(self.spec, self.x)
        assert H.eq(lhs, rhs)


class TestConstantCoincidence:
    """With vanishing coefficient derivations the twist does nothing."""

    def test_twisted_equals_plain(self):
        K = constant_structure(PrimeField(5), 2)
        A = DiffPolyRing(K, ["x", "y"])
        rng = random.Random(2)
        values = {
            (v, alpha): K.ring.sample(rng)
            for v in range(2)
            for alpha in enumerate_upto(2, 7)
        }
        spec = MorphismSpec(
            source=A.differential_ring(),
            coefficients=K,
            phi=A.value_hom(values),
            trunc=4,
        )
        for _ in range(5):
            a = A.sample(rng)
            assert spec.target.eq(
                twisted_hurwitz(spec, a), hurwitz_morphism(spec, a)
            )

    def test_twisted_taylor_equals_classical(self):
        K = constant_structure(QQ, 1)
        A = DiffPolyRing(K, ["x"])
        rng = random.Random(3)
        values = {(0, alpha): QQ.sample(rng) for alpha in enumerate_upto(1, 8)}
        spec = MorphismSpec(
            source=A.differential_ring(),
            coefficients=K,
            phi=A.value_hom(values),
            trunc=5,
        )
        for _ in range(5):
            a = A.sample(rng)
            assert spec.target.eq(twisted_taylor(spec, a), classical_taylor(spec, a))


class TestOracleCrossChecks:
    def _cases(self, trunc, seed, fields):
        """(spec, arguments, source family, phi) for each oracle input.

        First width 1 over Q[u] with a constant source and identity phi, then
        width 2 over each of ``fields``[u, v] with the family (d/du, v*d/dv),
        a diffpoly source and a value-table phi.
        """
        K = rational_poly_carrier()
        R = K.ring
        spec = MorphismSpec(
            source=constant_structure(R, 1), coefficients=K, phi=lambda a: a, trunc=trunc
        )
        rng = random.Random(seed)
        yield spec, [R.sample(rng) for _ in range(5)], [lambda _x: R.zero()], lambda v: v
        for field in fields:
            K = differential_polynomial_carrier(field, ["u", "v"], [["1", "0"], ["0", "v"]])
            A = DiffPolyRing(K, ["x"])
            # A.sample uses symbol orders <= 1, so trunc + 1 covers every derivative
            values = {(0, alpha): K.ring.sample(rng) for alpha in enumerate_upto(2, trunc + 1)}
            phi = A.value_hom(values)
            source = A.differential_ring()
            spec = MorphismSpec(source=source, coefficients=K, phi=phi, trunc=trunc)
            yield spec, [A.sample(rng) for _ in range(2)], source.derivations, phi

    def test_twisted_hurwitz_against_direct_sum(self):
        for spec, arguments, source_family, phi in self._cases(
            5, seed=4, fields=(QQ, PrimeField(3))
        ):
            R = spec.coefficients.ring
            ops = poly_ops(R)
            for a in arguments:
                got = twisted_hurwitz(spec, a)
                for alpha in spec.target.indices:
                    want = twisted_hurwitz_coeff(
                        a,
                        alpha.entries,
                        source_family,
                        spec.coefficients.derivations,
                        phi,
                        ops,
                    )
                    assert R.eq(got.coeff(alpha), want)

    def test_twisted_taylor_against_direct_sum(self):
        # twisted_taylor divides by alpha factorial, so F_3 is out of its domain
        for spec, arguments, source_family, phi in self._cases(4, seed=5, fields=(QQ,)):
            R = spec.coefficients.ring
            ops = poly_ops(R)

            def divide(v, n):
                return R.mul(R.constant(Fraction(1, n)), v)

            for a in arguments:
                got = twisted_taylor(spec, a)
                for alpha in spec.target.indices:
                    want = twisted_divided_coeff(
                        a,
                        alpha.entries,
                        source_family,
                        spec.coefficients.derivations,
                        phi,
                        ops,
                        divide,
                    )
                    assert R.eq(got.coeff(alpha), want)

    def test_ev_twist_against_direct_sum(self):
        F = PrimeField(3)
        # diagonal commuting family on F3[u, v]
        K = differential_polynomial_carrier(
            F, ["u", "v"], [["u", "0"], ["0", "2*v"]]
        )
        R = K.ring
        H = HurwitzRing(R, 2, 3)
        rng = random.Random(6)
        ops = poly_ops(R)
        a = H.sample(rng)
        got = ev_twist(a, K.derivations)
        table = {alpha.entries: c for alpha, c in a.coeffs.items()}
        for alpha in H.indices:
            want = ev_twist_coeff(table, alpha.entries, K.derivations, ops)
            assert R.eq(got.coeff(alpha), want)


class TestEvTwist:
    def test_shift_example(self):
        K = rational_poly_carrier()
        R = K.ring
        H = HurwitzRing(R, 1, 4)
        got = ev_twist(H.embed(R.gen("u")), K.derivations)
        want = H.from_table(
            {MultiIndex.of(0): R.gen("u"), MultiIndex.of(1): R.one()}
        )
        assert H.eq(got, want)

    def test_the_family_is_called_on_nonzero_values_only(self):
        """Every derivation sends zero to zero, so a zero's derivatives are
        taken to be that zero and the family never sees one."""
        K = rational_poly_carrier()
        R = K.ring
        H = HurwitzRing(R, 1, 5)
        u = R.gen("u")
        a = H.from_table({MultiIndex.of(0): u, MultiIndex.of(2): u, MultiIndex.of(5): u})
        seen = []

        def counting(x):
            seen.append(x)
            return K.derivations[0](x)

        got = ev_twist(a, [counting])
        assert H.eq(got, ev_twist(a, K.derivations))
        # coefficient k needs d^j of itself for j <= 5 - k, so its parents are
        # d^j for j < 5 - k: u at 0 and at 2 have the nonzero parents u and 1
        # (then d^2 u = 0), u at 5 has none, and the three zeros have none
        assert len(seen) == 4 and not any(map(R.is_zero, seen))

    def test_a_zero_series_is_still_derived(self):
        """A series derivation lowers the valid order, so the derivatives of a
        zero series are zeros of fewer valid grades, not that zero."""
        H = HurwitzRing(QQ, 1, 3)
        table = taylor.derivative_table(H.differential_structure(), H.zero(), 3)
        assert [s.valid for s in table.values()] == [3, 2, 1, 0]

    def test_zero_family_is_identity(self):
        H = HurwitzRing(QQ, 2, 3)
        a = H.sample(random.Random(7))
        got = ev_twist(a, [lambda _x: Fraction(0)] * 2)
        assert H.eq(got, a) and got.valid == a.valid

    def test_composition_is_family_sum(self):
        # two commuting constant-image families on Q[u]
        K1 = differential_polynomial_carrier(QQ, ["u"], [["1"]])
        K2 = differential_polynomial_carrier(QQ, ["u"], [["2"]])
        R = K1.ring
        H = HurwitzRing(R, 1, 4)
        rng = random.Random(8)
        a = H.sample(rng)
        one_then_two = ev_twist(ev_twist(a, K1.derivations), K2.derivations)
        combined = ev_twist(
            a, [lambda x: R.add(K1.derivations[0](x), K2.derivations[0](x))]
        )
        assert H.eq(one_then_two, combined)

    def test_untwist_inverts(self):
        F = PrimeField(5)
        K = differential_polynomial_carrier(F, ["u"], [["u"]])
        H = HurwitzRing(K.ring, 1, 5)
        a = H.sample(random.Random(9))
        back = ev_untwist(ev_twist(a, K.derivations), K.derivations)
        assert H.eq(back, a) and back.valid == a.valid

    def test_family_arity_checked(self):
        H = HurwitzRing(QQ, 2, 2)
        with pytest.raises(ValueError, match="twisting derivations"):
            ev_twist(H.zero(), [lambda x: x])


class TestTwistLemma:
    """The twist lemma, the first law of the paper's adjunction: untwisting by
    the coefficient derivations is a differential ring isomorphism from H(K)
    with the shift derivations to H(K) with the twisted structure (shift
    plus the coefficientwise lift of K's derivations)."""

    def failures(self, twist):
        """(product, derivation) law failures of ``twist`` over 40 instances."""
        size = Size(2, 4, 2)
        product = derivation = 0
        for k in range(40):
            rng = random.Random(f"lemma/{k}")
            structure, _ = _random_structure(rng, size)
            family = structure.derivations
            H = HurwitzRing(structure.ring, structure.width, size.trunc)
            twisted = H.differential_structure(family)
            a, b = H.sample(rng, size.degree), H.sample(rng, size.degree)
            ta = twist(a, family)
            product += not H.agree_up_to(twist(H.mul(a, b), family), H.mul(ta, twist(b, family)), 4)
            derivation += not all(
                H.agree_up_to(twist(H.shift_derive(a, i), family), twisted.derive(ta, i), 3)
                for i in range(H.width)
            )
        return product, derivation

    def test_untwist_is_a_differential_ring_map(self):
        assert self.failures(ev_untwist) == (0, 0)

    def test_twisting_the_wrong_way_fails_the_derivation_law(self):
        # a twist is a ring automorphism in either direction, so only the
        # derivation law tells the directions apart
        product, derivation = self.failures(ev_twist)
        assert product == 0 and derivation >= 20


class TestAxioms:
    def _twisted_spec(self):
        K = rational_poly_carrier()
        # source: the same carrier, derived by the same family, phi identity
        return MorphismSpec(source=K, coefficients=K, phi=lambda a: a, trunc=5)

    def test_tm1_differential_phi_collapses(self):
        # phi identity between equal structures is differential, so the
        # expansion telescopes to the constant embedding
        spec = self._twisted_spec()
        R = spec.coefficients.ring
        H = spec.target
        rng = random.Random(10)
        for _ in range(5):
            a = R.sample(rng)
            want = H.embed(a)
            assert H.eq(twisted_hurwitz(spec, a), want)
            assert H.eq(twisted_taylor(spec, a), want)

    def test_ev1_recovers_phi(self):
        spec = self._twisted_spec()
        R = spec.coefficients.ring
        H = spec.target
        rng = random.Random(11)
        for _ in range(5):
            a = R.sample(rng)
            assert R.eq(H.ev(twisted_hurwitz(spec, a)), a)
            assert R.eq(H.ev(twisted_taylor(spec, a)), a)

    def test_ev2_expanding_a_series_by_ev_is_identity(self):
        K = rational_poly_carrier()
        H = HurwitzRing(K.ring, 1, 5)
        source = H.differential_structure(K.derivations)
        rng = random.Random(12)
        spec = MorphismSpec(
            source=source,
            coefficients=K,
            phi=H.ev,
            trunc=5,
        )
        for _ in range(5):
            a = H.sample(rng)
            got = twisted_hurwitz(spec, a)
            assert H.agree_up_to(got, a, 5)

    def test_outputs_are_ring_maps(self):
        spec = self._twisted_spec()
        R = spec.coefficients.ring
        H = spec.target
        rng = random.Random(13)
        for _ in range(5):
            a, b = R.sample(rng), R.sample(rng)
            Ta, Tb = twisted_hurwitz(spec, a), twisted_hurwitz(spec, b)
            assert H.eq(twisted_hurwitz(spec, R.add(a, b)), H.add(Ta, Tb))
            assert H.eq(twisted_hurwitz(spec, R.mul(a, b)), H.mul(Ta, Tb))
        assert H.eq(twisted_hurwitz(spec, R.one()), H.one())

    def test_divided_outputs_multiply_by_plain_convolution(self):
        # the divided constructors land in the divided reading, whose
        # product is the unweighted convolution, not the binomial one;
        # a constant source with a nonzero coefficient family keeps the
        # outputs genuinely nonconstant
        K = rational_poly_carrier()
        spec = MorphismSpec(
            source=constant_structure(K.ring, 1),
            coefficients=K,
            phi=lambda a: a,
            trunc=5,
        )
        R = K.ring
        H = spec.target
        rng = random.Random(19)
        saw_difference = False
        for _ in range(5):
            a, b = R.sample(rng), R.sample(rng)
            Ta, Tb = twisted_taylor(spec, a), twisted_taylor(spec, b)
            Tab = twisted_taylor(spec, R.mul(a, b))
            assert H.eq(Tab, H.cauchy_mul(Ta, Tb))
            if not H.eq(H.cauchy_mul(Ta, Tb), H.mul(Ta, Tb)):
                saw_difference = True
        assert saw_difference, "samples never separated the two products"

    def test_outputs_are_differential(self):
        # expanding the derivative matches deriving the expansion, one grade down
        spec = self._twisted_spec()
        K = spec.coefficients
        R = K.ring
        H = spec.target
        structure = H.differential_structure(K.derivations)
        rng = random.Random(14)
        for _ in range(5):
            a = R.sample(rng)
            lhs = twisted_hurwitz(spec, K.derive(a, 0))
            rhs = structure.derive(twisted_hurwitz(spec, a), 0)
            assert H.agree_up_to(lhs, rhs, 4)


class TestRawSeriesMemo:
    """The four constructors share one raw series per spec and argument.

    The specs derive symbolically (their source is a twin of the ring's own
    structure), so every ``DiffPolyRing.derive`` call builds that series;
    the Taylor-path twin of the first test counts series products instead.
    """

    CONSTRUCTORS = (classical_taylor, hurwitz_morphism, twisted_taylor, twisted_hurwitz)

    @staticmethod
    def _spec(trunc=5, taylor_mode=False):
        """x*x' + u*x over constant Q[u], every symbol up to order 6 valued."""
        R = rational_poly_carrier().ring
        K = constant_structure(R, 1)
        A = DiffPolyRing(K, ["x"])
        rng = random.Random(20)
        values = {(0, alpha): R.sample(rng) for alpha in enumerate_upto(1, 6)}
        source = A.differential_ring()
        spec = MorphismSpec(
            source=source if taylor_mode else DifferentialRing(A, source.derivations),
            coefficients=K,
            phi=A.value_hom(values),
            trunc=trunc,
        )
        x = A.gen("x")
        a = A.add(A.mul(x, A.symbol("x", (1,))), A.mul(A.constant(R.gen("u")), x))
        return spec, a

    def test_derived_path_holds_two_grades_of_derivatives(self):
        """A derivative is let go once its last child is derived and its image taken."""
        alive = weakref.WeakSet()

        class Value:
            def __init__(self, order):
                self.order = order
                alive.add(self)

        held = []

        def derive(v):
            held.append(len(alive))
            return Value(v.order + 1)

        width, trunc = 2, 6
        spec = MorphismSpec(
            source=DifferentialRing(QQ, (derive,) * width),
            coefficients=constant_structure(QQ, width),
            phi=lambda v: Fraction(v.order),
            trunc=trunc,
        )
        raw = taylor._raw_series(spec, Value(0))
        assert list(raw.entries) == [alpha.degree for alpha in spec.target.indices]
        # grades 5 and 6 have 6 and 7 indices; keeping every value would hold 28
        assert max(held) <= 6 + 7

    @pytest.fixture
    def derive_calls(self, monkeypatch):
        calls = []
        derive = DiffPolyRing.derive

        def counting(self, a, slot):
            calls.append(slot)
            return derive(self, a, slot)

        monkeypatch.setattr(DiffPolyRing, "derive", counting)
        return calls

    def test_four_constructors_derive_once(self, derive_calls):
        spec, a = self._spec()
        hurwitz_morphism(spec, a)
        once = len(derive_calls)
        assert once > 0

        spec, a = self._spec()
        derive_calls.clear()
        results = [fn(spec, a) for fn in self.CONSTRUCTORS]
        assert len(derive_calls) == once
        for fn, got in zip(self.CONSTRUCTORS, results):
            fresh, b = self._spec()
            assert spec.target.eq(got, fn(fresh, b))

    def test_four_constructors_multiply_once_in_taylor_mode(self, derive_calls, monkeypatch):
        mul = HurwitzRing.mul
        calls = []

        def counting(self, a, b):
            calls.append(a)
            return mul(self, a, b)

        monkeypatch.setattr(HurwitzRing, "mul", counting)
        spec, a = self._spec(taylor_mode=True)
        hurwitz_morphism(spec, a)
        once = len(calls)
        assert once > 0

        spec, a = self._spec(taylor_mode=True)
        calls.clear()
        results = [fn(spec, a) for fn in self.CONSTRUCTORS]
        assert len(calls) == once and derive_calls == []
        for fn, got in zip(self.CONSTRUCTORS, results):
            fresh, b = self._spec()
            assert spec.target.eq(got, fn(fresh, b))

    def test_constant_guard_reads_the_memoised_series(self, monkeypatch):
        guard = taylor._require_constant_coefficients
        calls = []

        def counting(spec, raw):
            calls.append(raw)
            return guard(spec, raw)

        monkeypatch.setattr(taylor, "_require_constant_coefficients", counting)
        spec, a = self._spec()
        divided = classical_taylor(spec, a)
        raw = hurwitz_morphism(spec, a)
        # the memo holds the series and nothing else; every call guards it
        assert [value is raw for value in spec._raw.values()] == [True]
        assert [seen is raw for seen in calls] == [True, True]
        assert spec.target.eq(divided, spec.target.to_divided(raw))
        fresh, b = self._spec()
        assert spec.target.eq(raw, hurwitz_morphism(fresh, b))
        assert len(calls) == 3 and calls[2] is fresh._raw[b]

    def test_replace_starts_an_empty_memo(self, derive_calls):
        spec, a = self._spec()
        twisted_hurwitz(spec, a)
        shorter = dataclasses.replace(spec, trunc=3)
        assert shorter._raw == {}
        derive_calls.clear()
        got = twisted_hurwitz(shorter, a)
        assert derive_calls
        fresh, b = self._spec(trunc=3)
        assert got.trunc == 3
        assert shorter.target.eq(got, twisted_hurwitz(fresh, b))


class TestUntwistMemo:
    """``twisted_hurwitz`` and ``twisted_taylor`` share one untwisted series
    per spec and argument.  The coefficient derivation u -> 1 makes the
    untwist move the series, so a stale or shared entry would show."""

    @staticmethod
    def _spec(trunc=4):
        """x*x' + u*x over (Q[u], d/du) in Taylor mode, symbols up to order 6 valued."""
        K = rational_poly_carrier()
        R = K.ring
        A = DiffPolyRing(K, ["x"])
        rng = random.Random(23)
        values = {(0, alpha): R.sample(rng) for alpha in enumerate_upto(1, 6)}
        spec = MorphismSpec(
            source=A.differential_ring(), coefficients=K, phi=A.value_hom(values), trunc=trunc
        )
        x = A.gen("x")
        a = A.add(A.mul(x, A.symbol("x", (1,))), A.mul(A.constant(R.gen("u")), x))
        return spec, a

    @pytest.fixture
    def untwist_calls(self, monkeypatch):
        calls = []
        untwist = taylor.ev_untwist

        def counting(a, family):
            calls.append(a)
            return untwist(a, family)

        monkeypatch.setattr(taylor, "ev_untwist", counting)
        return calls

    def test_twisted_constructors_untwist_once(self, untwist_calls):
        spec, a = self._spec()
        plain = twisted_hurwitz(spec, a)
        divided = twisted_taylor(spec, a)
        assert twisted_hurwitz(spec, a) is plain
        assert len(untwist_calls) == 1 and untwist_calls[0] is spec._raw[a]
        assert not spec.target.eq(plain, spec._raw[a])
        fresh, b = self._spec()
        assert spec.target.eq(divided, twisted_taylor(fresh, b))
        fresh, b = self._spec()
        assert spec.target.eq(plain, twisted_hurwitz(fresh, b))

    def test_replace_starts_an_empty_memo(self, untwist_calls):
        spec, a = self._spec()
        twisted_taylor(spec, a)
        shorter = dataclasses.replace(spec, trunc=3)
        assert shorter._untwisted == {} and shorter._raw == {}
        got = twisted_hurwitz(shorter, a)
        assert len(untwist_calls) == 2
        fresh, b = self._spec(trunc=3)
        assert got.trunc == 3
        assert shorter.target.eq(got, twisted_hurwitz(fresh, b))


class TestGuards:
    def test_classical_needs_char_zero(self):
        K = constant_structure(PrimeField(3), 1)
        A = DiffPolyRing(K, ["x"])
        spec = MorphismSpec(
            source=A.differential_ring(),
            coefficients=K,
            phi=A.value_hom({}, default_zero=True),
            trunc=4,
        )
        with pytest.raises(DomainError, match="characteristic"):
            classical_taylor(spec, A.gen("x"))
        with pytest.raises(DomainError, match="characteristic"):
            twisted_taylor(spec, A.gen("x"))

    def test_divided_constructors_refuse_char_p_before_phi(self):
        K = constant_structure(PrimeField(5), 1)
        calls = []

        def phi(a):
            calls.append(a)
            return a

        spec = MorphismSpec(source=K, coefficients=K, phi=phi, trunc=4)
        for constructor in (classical_taylor, twisted_taylor):
            with pytest.raises(DomainError, match="characteristic"):
                constructor(spec, 2)
        assert calls == []

    def test_plain_constructors_need_constant_coefficients(self):
        K = rational_poly_carrier()
        spec = MorphismSpec(
            source=constant_structure(K.ring, 1),
            coefficients=K,
            phi=lambda a: a,
            trunc=3,
        )
        with pytest.raises(DomainError, match="constant coefficients"):
            hurwitz_morphism(spec, K.ring.gen("u"))
        with pytest.raises(DomainError, match="constant coefficients"):
            classical_taylor(spec, K.ring.gen("u"))

    def test_target_is_built_once_and_checks_the_truncation(self):
        K = constant_structure(QQ, 2)
        spec = MorphismSpec(source=K, coefficients=K, phi=lambda a: a, trunc=3)
        assert spec.target is spec.target
        assert spec.target == HurwitzRing(QQ, 2, 3)
        assert dataclasses.replace(spec, trunc=4).target.trunc == 4
        with pytest.raises(ValueError, match=r"^truncation order must be nonnegative$"):
            MorphismSpec(source=K, coefficients=K, phi=lambda a: a, trunc=-1)

    def test_width_mismatch_rejected(self):
        with pytest.raises(ValueError, match="width mismatch"):
            MorphismSpec(
                source=constant_structure(QQ, 2),
                coefficients=constant_structure(QQ, 1),
                phi=lambda a: a,
                trunc=3,
            )
