from __future__ import annotations

import math
import random
from fractions import Fraction
from itertools import repeat

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hwtaylor.hurwitz import HurwitzRing
from hwtaylor.multiindex import MultiIndex
from hwtaylor.rings import (
    MAX_DIGITS,
    MAX_TERMS,
    QQ,
    DifferentialRing,
    DomainError,
    PolynomialRing,
    PrimeField,
    RationalField,
    Ring,
    constant_structure,
    differential_polynomial_carrier,
    ring_from_json,
)
from hwtaylor.rings import _PRIME_BOUND, _is_prime


class TestRationals:
    def test_ops(self):
        assert QQ.add(Fraction(1, 2), Fraction(1, 3)) == Fraction(5, 6)
        assert QQ.try_invert(Fraction(-2, 3)) == Fraction(-3, 2)
        assert QQ.try_invert(Fraction(0)) is None
        assert QQ.characteristic == 0

    def test_parse_render(self):
        assert QQ.parse("-7/3") == Fraction(-7, 3)
        assert QQ.render(Fraction(5, 10)) == "1/2"
        with pytest.raises(ValueError):
            QQ.parse("1.5")


def rational_or_zero(rng):
    if rng.random() < 0.3:
        return Fraction(0)
    return Fraction(rng.randint(-9, 9), rng.choice((1, 2, 3, 4, 6, 9, 12)))


class TestRationalDot:
    """``RationalField.dot`` sums each row over the lcm of its denominators
    and makes one ``Fraction``; ``Ring.dot`` multiplies and adds pair by
    pair.  The two must give the same rows exactly."""

    @staticmethod
    def random_rows(rng, n):
        """Rows as ``(left, right, weights)``; unit weights come as ``repeat(1)``."""
        rows = [((), (), ()), ((), (), repeat(1))]
        for _ in range(12):
            k = rng.randint(1, 5)
            left = [rng.randrange(n) for _ in range(k)]
            right = [rng.randrange(n) for _ in range(k)]
            if rng.random() < 0.3:
                weights = repeat(1)
            else:
                # sometimes longer than the positions: the extra weights are unused
                weights = [rng.randint(-6, 6) for _ in range(k + rng.randint(0, 2))]
            rows.append((left, right, weights))
        return rows

    def test_matches_the_generic_form_on_random_rows(self):
        rng = random.Random(2323)
        for trial in range(60):
            n = rng.randint(1, 6)
            x = [rational_or_zero(rng) for _ in range(n)]
            y = [rational_or_zero(rng) for _ in range(n)]
            if trial % 5 == 0:
                y = [Fraction(0)] * n  # every row sums products by zero
            state = rng.getstate()
            got = list(QQ.dot(x, y, self.random_rows(rng, n)))
            rng.setstate(state)
            want = list(Ring.dot(QQ, x, y, self.random_rows(rng, n)))
            assert got == want, trial
            assert all(type(v) is Fraction for v in got), trial

    def test_single_pairs_and_mixed_denominators(self):
        x = [Fraction(-3, 4), Fraction(5, 6), Fraction(7), Fraction(0)]
        y = [Fraction(2, 9), Fraction(-1, 10), Fraction(0), Fraction(4, 3)]
        rows = [
            ((0,), (0,), (1,)),
            ((1,), (1,), (-5,)),
            ((3,), (3,), repeat(1)),
            ((0, 1, 2), (1, 0, 3), (2, 3, 1)),
            ((2, 2), (2, 1), repeat(1)),
        ]
        assert list(QQ.dot(x, y, rows)) == [
            Fraction(-1, 6),
            Fraction(5, 12),
            Fraction(0),
            Fraction(3, 20) + Fraction(5, 9) + Fraction(28, 3),
            Fraction(-7, 10),
        ]

    def test_rows_read_operands_filled_from_earlier_yields(self):
        # as in series inversion, row k reads y[k], which is set from the
        # value row k - 1 yielded, after that row and before this one is pulled
        x = [Fraction(1, 2), Fraction(-2, 3), Fraction(5, 4), Fraction(3, 7)]
        rows = [((0,), (0,), (1,))] + [((0, k), (k, 0), (k, 1)) for k in range(1, len(x))]

        def run(dot):
            y = [Fraction(1, 3)] + [Fraction(0)] * (len(x) - 1)
            out = []
            for k, v in enumerate(dot(x, y, rows)):
                out.append(v)
                if k + 1 < len(y):
                    y[k + 1] = v + Fraction(1, k + 2)
            return out, y

        got = run(QQ.dot)
        assert got == run(lambda *args: Ring.dot(QQ, *args))
        # row 0 is 1/2 * 1/3, so y[1] = 1/6 + 1/2; row 1 is 1/2 * 2/3 - 2/3 * 1/3
        assert got[1][1] == Fraction(2, 3) and got[0][1] == Fraction(1, 9)


class TestGenericCombine:
    """``Ring.combine`` starts from its first term: k terms cost k - 1 ``add``
    calls, one term comes back itself, and no terms give ``zero()``."""

    RINGS = [
        pytest.param(RationalField, id="Q"),
        pytest.param(lambda: HurwitzRing(QQ, 2, 3), id="H(Q)"),
        pytest.param(lambda: HurwitzRing(PrimeField(5), 1, 4), id="H(F5)"),
    ]

    @staticmethod
    def counted(ring):
        """``ring`` with its ``add`` counted, and the list that counts."""
        calls = []
        add = ring.add

        def counting_add(a, b):
            calls.append((a, b))
            return add(a, b)

        ring.add = counting_add
        return ring, calls

    @pytest.mark.parametrize("make", RINGS)
    def test_k_terms_cost_k_minus_one_adds(self, make):
        ring, calls = self.counted(make())
        rng = random.Random(27)
        for k in range(6):
            items = [ring.sample(rng) for _ in range(k)]
            weights = [rng.choice((1, 1, 2, -3)) for _ in range(k)]
            want = ring.zero()
            for w, v in zip(weights, items):
                want = ring.add(want, ring.mul(ring.embed_int(w), v))
            calls.clear()
            got = ring.sum(items)
            assert len(calls) == max(k - 1, 0)
            if k == 1:
                assert got is items[0]
            calls.clear()
            assert ring.eq(ring.combine(weights, items), want)
            assert len(calls) == max(k - 1, 0)
        assert ring.eq(ring.sum([]), ring.zero())
        assert ring.eq(ring.combine([2, 3], []), ring.zero())


class TestPrimeField:
    def test_char(self):
        F = PrimeField(5)
        assert F.characteristic == 5
        # p * 1 == 0
        assert F.is_zero(F.sum(F.one() for _ in range(5)))

    def test_invert_all_nonzero(self):
        F = PrimeField(7)
        for a in range(1, 7):
            assert F.mul(a, F.try_invert(a)) == F.one()
        assert F.try_invert(0) is None

    def test_requires_prime(self):
        with pytest.raises(ValueError):
            PrimeField(6)
        with pytest.raises(ValueError):
            PrimeField(1)

    def test_primality_is_exact(self):
        def trial_division(n):
            return n >= 2 and all(n % d for d in range(2, math.isqrt(n) + 1))

        assert [n for n in range(10_000) if _is_prime(n)] == [
            n for n in range(10_000) if trial_division(n)
        ]
        for carmichael in (561, 41041):
            with pytest.raises(ValueError):
                PrimeField(carmichael)
        # strong pseudoprimes to the first 4, 9 and 12 prime bases
        for n in (3215031751, 3825123056546413051, 318665857834031151167461):
            assert not _is_prime(n)
        assert _is_prime(2**61 - 1)
        with pytest.raises(ValueError, match="not decided"):
            PrimeField(_PRIME_BOUND)

    def test_embed_wraps(self):
        F = PrimeField(3)
        assert F.embed_int(-1) == 2
        assert F.parse("14") == 2


class TestPolynomialRing:
    def setup_method(self):
        self.R = PolynomialRing(QQ, ["u", "v"])

    def test_parse_render_roundtrip(self):
        for text in ["0", "1", "-u", "2*u^2*v - 1/3*u + 4", "u*v", "-3/2"]:
            p = self.R.parse(text)
            assert self.R.eq(self.R.parse(self.R.render(p)), p)

    def test_parse_rejects(self):
        for bad in ["w", "u +", "u ^ v", "1.5", "u**2"]:
            with pytest.raises(ValueError):
                self.R.parse(bad)

    def test_arithmetic(self):
        u, v = self.R.gen("u"), self.R.gen("v")
        lhs = self.R.mul(self.R.add(u, v), self.R.add(u, v))
        rhs = self.R.parse("u^2 + 2*u*v + v^2")
        assert self.R.eq(lhs, rhs)

    def test_constant_only_units(self):
        assert self.R.try_invert(self.R.parse("2")) == self.R.parse("1/2")
        assert self.R.try_invert(self.R.gen("u")) is None
        assert self.R.try_invert(self.R.zero()) is None

    def test_char_p_coefficients(self):
        R3 = PolynomialRing(PrimeField(3), ["u"])
        # (u + 1)^3 == u^3 + 1 in characteristic 3
        cube = R3.pow(R3.parse("u + 1"), 3)
        assert R3.eq(cube, R3.parse("u^3 + 1"))

    def test_pow_agrees_with_repeated_mul(self):
        a = self.R.parse("2*u^2*v - 1/3*u + 4")
        acc = self.R.one()
        for n in range(21):
            assert self.R.eq(self.R.pow(a, n), acc)
            acc = self.R.mul(acc, a)

    def test_degree(self):
        assert self.R.degree(self.R.zero()) == -1
        assert self.R.degree(self.R.parse("u^2*v + 1")) == 3


# (text, error over Q[u,v], error over F_5[u,v] or None when it is the same);
# one row per way an element string fails, in the order the parser finds them
PARSE_ERRORS = [
    ("u $ v", "bad token '$' in 'u $ v'", None),
    # a bad token is reported before any grammar or literal error before it
    ("w + 1/0 + $", "bad token '$' in 'w + 1/0 + $'", None),
    ("1//2", "bad token '/' in '1//2'", None),
    ("1/2/3", "bad token '/' in '1/2/3'", None),
    ("u2/3", "bad token '/' in 'u2/3'", None),
    ("\u00fc", "bad token '\u00fc' in '\u00fc'", None),
    ("", "unexpected end of input in ''", None),
    ("-", "unexpected end of input in '-'", None),
    ("u +", "unexpected end of input in 'u +'", None),
    ("u*", "unexpected end of input in 'u*'", None),
    ("2*w", "unknown generator 'w' in '2*w'", None),
    ("w^x", "unknown generator 'w' in 'w^x'", None),
    ("u^", "expected integer exponent in 'u^'", None),
    ("u^v", "expected integer exponent in 'u^v'", None),
    ("u^1/2", "expected integer exponent in 'u^1/2'", None),
    ("u^-1", "expected integer exponent in 'u^-1'", None),
    ("u^65", "exponent 65 exceeds 64 in 'u^65'", None),
    ("u v", "expected + or - but found 'v' in 'u v'", None),
    ("2 3", "expected + or - but found '3' in '2 3'", None),
    ("2^3", "expected + or - but found '^' in '2^3'", None),
    ("u^2^3", "expected + or - but found '^' in 'u^2^3'", None),
    ("u + * v", "unexpected token '*' in 'u + * v'", None),
    ("--u", "unexpected token '-' in '--u'", None),
    ("+-u", "unexpected token '-' in '+-u'", None),
    ("1/0", "not a rational literal: '1/0'", "not an integer literal: '1/0'"),
    ("1/02", "not a rational literal: '1/02'", "not an integer literal: '1/02'"),
    ("1/\u0663", "not a rational literal: '1/\u0663'", "not an integer literal: '1/\u0663'"),
    ("1/2", None, "not an integer literal: '1/2'"),
    ("2*u*1/0 + w", "not a rational literal: '1/0'", "not an integer literal: '1/0'"),
    (" + ".join(["u"] * (MAX_TERMS + 1)), f"more than {MAX_TERMS} terms", None),
]
CODEC_RINGS = {
    "Q[u,v]": PolynomialRing(QQ, ["u", "v"]),
    "F5[u,v]": PolynomialRing(PrimeField(5), ["u", "v"]),
}


class TestPolynomialCodec:
    @pytest.mark.parametrize("text, q_error, fp_error", PARSE_ERRORS)
    def test_error_text(self, text, q_error, fp_error):
        for name, R in CODEC_RINGS.items():
            want = q_error if name == "Q[u,v]" else fp_error or q_error
            if want is None:
                R.parse(text)
                continue
            with pytest.raises(ValueError) as err:
                R.parse(text)
            assert str(err.value) == want

    @pytest.mark.parametrize(
        "tail, back, error",
        [
            (" + w", 1, "unknown generator 'w'"),
            (" $", 1, "bad token '$'"),
            (" +", 0, "unexpected end of input"),
            (" + u^v", 1, "expected integer exponent"),
            (" + u^65", 2, "exponent 65 exceeds 64"),
            (" + * v", 3, "unexpected token '*'"),
            (" v", 1, "expected + or - but found 'v'"),
        ],
    )
    def test_long_string_errors_give_offset_and_excerpt(self, tail, back, error):
        # up to 80 characters the whole string is echoed; beyond, the offset
        # of the failing token (``back`` characters before the end) and 20
        # characters on each side of it
        R = CODEC_RINGS["Q[u,v]"]
        for head_terms in (1, 20, 9999):
            text = " + ".join(["3/7*u^2"] * head_terms) + tail
            with pytest.raises(ValueError) as err:
                R.parse(text)
            if len(text) <= 80:
                assert str(err.value) == f"{error} in {text!r}"
            else:
                at = len(text) - back
                assert str(err.value) == f"{error} at offset {at} near {text[at - 20 : at + 20]!r}"

    def test_error_echo_boundary(self):
        R = CODEC_RINGS["Q[u,v]"]
        for length in (79, 80, 81):
            text = "u + " + " " * (length - 5) + "w"
            with pytest.raises(ValueError) as err:
                R.parse(text)
            want = f"in {text!r}" if length <= 80 else f"at offset {length - 1} near {text[-21:]!r}"
            assert str(err.value) == f"unknown generator 'w' {want}", length

    @pytest.mark.parametrize(
        "ring, text, error",
        [
            (
                "Q[u,v]",
                "u + " + "w" * 100000,
                "unknown generator 'wwwwwwwwwwwwwwwwwwww'... (100000 characters)"
                " at offset 4 near 'u + wwwwwwwwwwwwwwwwwwww'",
            ),
            (
                "Q[u,v]",
                "1/0" + "0" * 100000,
                "not a rational literal: '1/000000000000000000'... (100003 characters)",
            ),
            (
                "F5[u,v]",
                "1/2" + "0" * 100000,
                "not an integer literal: '1/200000000000000000'... (100003 characters)",
            ),
            (
                "Q[u,v]",
                "u " + "v" * 100,
                "expected + or - but found 'vvvvvvvvvvvvvvvvvvvv'... (100 characters)"
                " at offset 2 near 'u vvvvvvvvvvvvvvvvvvvv'",
            ),
            (
                "Q[u,v]",
                "u^" + "7" * 81,
                "exponent '77777777777777777777'... (81 characters) exceeds 64"
                " at offset 2 near 'u^77777777777777777777'",
            ),
            (
                "Q",
                "1/0" + "0" * 100000,
                "not a rational literal: '1/000000000000000000'... (100003 characters)",
            ),
            (
                "F5",
                "x" * 100000,
                "not an integer literal: 'xxxxxxxxxxxxxxxxxxxx'... (100000 characters)",
            ),
            (
                # more digits than MAX_DIGITS, but not an integer: a syntax
                # error, as over F5[u,v], not a digit-bound error
                "F5",
                "1/2" + "0" * 5000,
                "not an integer literal: '1/200000000000000000'... (5003 characters)",
            ),
        ],
    )
    def test_long_tokens_are_shown_by_an_excerpt(self, ring, text, error):
        R = {**CODEC_RINGS, "Q": QQ, "F5": PrimeField(5)}[ring]
        with pytest.raises(ValueError) as err:
            R.parse(text)
        assert str(err.value) == error

    def test_token_echo_boundary(self):
        # a token of at most 80 characters is echoed whole, a longer one by
        # its first 20 characters and its length
        R = CODEC_RINGS["Q[u,v]"]
        for length in (80, 81):
            name = "w" * length
            with pytest.raises(ValueError) as err:
                R.parse(name)
            shown = repr(name) if length <= 80 else f"{name[:20]!r}... ({length} characters)"
            assert str(err.value).startswith(f"unknown generator {shown} "), length
            with pytest.raises(ValueError) as err:
                QQ.parse(name)
            assert str(err.value) == f"not a rational literal: {shown}", length

    @pytest.mark.parametrize(
        "ring, literal, at",
        [
            ("Q[u,v]", "u + {}*v", 4),
            ("Q[u,v]", "3/{}", 2),
            ("Q[u,v]", "{}/3", 0),
            ("Q[u,v]", "u^{}", 2),
            ("F5[u,v]", "2*{}", 2),
            ("Q", " -{}", 2),
            ("Q", "1/{}", 2),
            ("F5", "  {}", 2),
            ("F5", " -{}", 2),
        ],
    )
    def test_literals_past_the_digit_bound_are_refused(self, ring, literal, at):
        # MAX_DIGITS digits parse; one more is refused by the offset of the
        # digits, before any conversion
        R = {**CODEC_RINGS, "Q": QQ, "F5": PrimeField(5)}[ring]
        if "^" not in literal:
            R.parse(literal.format("7" * MAX_DIGITS))
        text = literal.format("7" * (MAX_DIGITS + 1))
        with pytest.raises(ValueError) as err:
            R.parse(text)
        assert str(err.value) == (
            f"literal of more than {MAX_DIGITS} digits at offset {at}"
            f" near {text[max(0, at - 20) : at + 20]!r}"
        )

    def test_rendering_past_the_digit_bound_is_out_of_domain(self):
        big = 10**MAX_DIGITS
        for R in (QQ, CODEC_RINGS["Q[u,v]"]):
            assert R.render(R.embed_int(big - 1)) == "9" * MAX_DIGITS
            assert R.render(R.neg(R.embed_int(big - 1))) == "-" + "9" * MAX_DIGITS
            for n in (big, -big):
                with pytest.raises(DomainError) as err:
                    R.render(R.embed_int(n))
                assert str(err.value) == f"coefficient of more than {MAX_DIGITS} digits"
            # a denominator of 7 * (10^4300 - 1): past the bound, though the
            # value is less than one
            with pytest.raises(DomainError):
                R.render(R.mul(R.parse("1/7"), R.parse("1/" + "9" * MAX_DIGITS)))

    def test_accepted_edges(self):
        Q, F = CODEC_RINGS["Q[u,v]"], CODEC_RINGS["F5[u,v]"]
        # \d takes every decimal digit; Q denominators start with an ASCII 1-9
        assert Q.render(Q.parse("\u0663/1*u^\u0663")) == "3*u^3"
        assert Q.parse("1/1\u0663") == Q.parse("1/13")
        assert Q.parse("007/14*u^003") == Q.parse("1/2*u^3")
        assert F.parse("7*u^0*v^1 - 12") == F.parse("2*v + 3")
        assert Q.parse("u - u") == Q.zero() and F.parse("5*u") == F.zero()
        # the most terms a string may hold, all one monomial
        u_terms, v_terms = " + ".join(["u"] * MAX_TERMS), " - ".join(["v"] * MAX_TERMS)
        assert Q.parse(u_terms) == Q.mul(Q.embed_int(MAX_TERMS), Q.gen("u"))
        assert F.parse(v_terms) == F.mul(F.embed_int(2 - MAX_TERMS), F.gen("v"))

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_written_terms_parse_to_their_sum(self, data):
        name = data.draw(st.sampled_from(sorted(CODEC_RINGS)))
        R = CODEC_RINGS[name]
        text, want = data.draw(written_polynomial(R.base is QQ, R.generators))
        got = R.parse(text)
        if R.base is not QQ:
            want = {e: c % 5 for e, c in want.items()}
        want = {e: c for e, c in want.items() if c}
        assert dict(got.terms) == want
        # the table keeps each monomial where it first appeared
        assert list(got.table) == list(want)

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_render_round_trips_and_ignores_term_order(self, data):
        R = data.draw(
            st.sampled_from(
                [*CODEC_RINGS.values(), PolynomialRing(QQ, ["u", "v", "w"])]
            )
        )
        width = len(R.generators)
        if R.base is QQ:
            coeff = st.fractions(min_value=-50, max_value=50, max_denominator=30)
        else:
            coeff = st.integers(0, 4)
        table = data.draw(
            st.dictionaries(st.tuples(*[st.integers(0, 4)] * width), coeff, max_size=6)
        )
        p = R.sum(R.monomial(e, c) for e, c in table.items())
        reverse = R.sum(R.monomial(e, c) for e, c in reversed(list(table.items())))
        text = R.render(p)
        assert R.render(reverse) == text
        assert R.parse(text) == p
        assert R.render(R.parse(text)) == text


@st.composite
def written_polynomial(draw, rational: bool, generators):
    """An element string built from known terms, and its dict of coefficients.

    Each term is written with random spacing, its factors in random order,
    its coefficient split into several numeric factors and each exponent
    split into pieces such as ``u*u^0*u^2``; the leading sign is optional and
    monomials repeat, so the parser must sum them.
    """
    space = st.sampled_from(["", " ", "  ", "\t"])
    want: dict[tuple[int, ...], Fraction] = {}
    parts = []
    for k in range(draw(st.integers(1, 5))):
        factors, coeff = [], Fraction(1)
        for _ in range(draw(st.integers(0, 3))):
            num = draw(st.integers(0, 12))
            den = draw(st.integers(1, 12)) if rational else 1
            coeff *= Fraction(num, den)
            slash = den != 1 or (rational and draw(st.booleans()))
            factors.append(f"{num}/{den}" if slash else str(num))
        exps = []
        for g in generators:
            total = 0
            for piece in draw(st.lists(st.integers(0, 3), max_size=3)):
                total += piece
                plain = piece == 1 and draw(st.booleans())
                factors.append(g if plain else f"{g}{draw(space)}^{draw(space)}{piece}")
            exps.append(total)
        if not factors:
            factors = ["1"]
        factors = draw(st.permutations(factors))
        body = factors[0] + "".join(f"{draw(space)}*{draw(space)}{f}" for f in factors[1:])
        sign = draw(st.sampled_from(["", "+", "-"] if k == 0 else ["+", "-"]))
        parts.append(f"{draw(space)}{sign}{draw(space)}{body}")
        key = tuple(exps)
        want[key] = want.get(key, 0) + (-coeff if sign == "-" else coeff)
    return "".join(parts) + draw(space), want


class TestDerivations:
    def test_polynomial_rule(self):
        R = PolynomialRing(QQ, ["u"])
        d = R.derivation(["1"])
        # d(u^3 - 2u) = 3u^2 - 2
        assert R.eq(d(R.parse("u^3 - 2*u")), R.parse("3*u^2 - 2"))

    def test_leibniz_brute_force(self):
        R = PolynomialRing(QQ, ["u", "v"])
        d = R.derivation(["v", "u^2"])
        rng = random.Random(7)
        for _ in range(25):
            a, b = R.sample(rng), R.sample(rng)
            lhs = d(R.mul(a, b))
            rhs = R.add(R.mul(d(a), b), R.mul(a, d(b)))
            assert R.eq(lhs, rhs)

    def test_derive_iter(self):
        D = differential_polynomial_carrier(QQ, ["u"], [["1"]])
        R = D.ring
        got = D.derive_iter(R.parse("u^2"), MultiIndex.of(2))
        assert R.eq(got, R.parse("2"))
        with pytest.raises(ValueError):
            D.derive_iter(R.one(), MultiIndex.of(1, 1))

    def test_constant_structure(self):
        D = constant_structure(PrimeField(5), 2)
        assert D.width == 2
        assert all(D.ring.is_zero(d(3)) for d in D.derivations)

    def test_commutation_validated(self):
        # two slots: slot 0 sends u -> 1; slot 1 sends u -> u.  They do not
        # commute: d0 d1 (u) = 1 but d1 d0 (u) = 0.
        with pytest.raises(ValueError, match="do not commute"):
            differential_polynomial_carrier(QQ, ["u"], [["1"], ["u"]])
        # constant-image families always pass
        differential_polynomial_carrier(QQ, ["u", "v"], [["1", "2"], ["3", "0"]])
        # diagonal families always pass
        differential_polynomial_carrier(QQ, ["u", "v"], [["u", "0"], ["0", "2*v"]])


class TestJson:
    def test_roundtrip(self):
        for ring in [QQ, PrimeField(7), PolynomialRing(QQ, ["u", "v"]), PolynomialRing(PrimeField(3), ["x"])]:
            assert ring_from_json(ring.to_json()) == ring

    def test_errors_name_path(self):
        with pytest.raises(ValueError, match="ring.kind"):
            ring_from_json({"kind": "Z"})
        with pytest.raises(ValueError, match="ring.p"):
            ring_from_json({"kind": "Fp", "p": 4})
        with pytest.raises(ValueError, match="ring.generators"):
            ring_from_json({"kind": "poly", "generators": []})
        with pytest.raises(ValueError, match="unknown field"):
            ring_from_json({"kind": "Q", "extra": 1})


    def test_unknown_field_names_first_sorted_key(self):
        with pytest.raises(ValueError, match=r"^ring\.alpha: unknown field$"):
            ring_from_json({"kind": "Q", "zeta": 1, "alpha": 2})

    def test_polynomial_base_must_be_q_or_fp(self):
        doc = {"kind": "poly", "generators": ["w"], "base": {"kind": "Fp", "p": 3}}
        assert ring_from_json(doc) == PolynomialRing(PrimeField(3), ["w"])
        doc["base"] = {"kind": "poly", "generators": ["u"]}
        with pytest.raises(ValueError, match=r"ring\.base"):
            ring_from_json(doc)
        # nested bases do not exist in process either
        with pytest.raises(DomainError):
            PolynomialRing(PolynomialRing(QQ, ["u"]), ["w"])


@st.composite
def field_and_pair(draw):
    ring = draw(st.sampled_from([QQ, PrimeField(2), PrimeField(5)]))
    seed = draw(st.integers(min_value=0, max_value=10**6))
    rng = random.Random(seed)
    return ring, ring.sample(rng), ring.sample(rng), ring.sample(rng)


@given(field_and_pair())
def test_field_axioms_hypothesis(data):
    ring, a, b, c = data
    assert ring.eq(ring.add(a, b), ring.add(b, a))
    assert ring.eq(ring.mul(a, b), ring.mul(b, a))
    assert ring.eq(ring.mul(a, ring.add(b, c)), ring.add(ring.mul(a, b), ring.mul(a, c)))
    assert ring.is_zero(ring.add(a, ring.neg(a)))
    assert ring.eq(ring.mul(a, ring.one()), a)
