from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hwtaylor import diffpoly
from hwtaylor.diffpoly import DiffPolyRing, SymbolCodec, UncoveredSymbolError
from hwtaylor.multiindex import (
    MultiIndex,
    enumerate_upto,
    grlex_rank,
    grlex_unrank,
)
from hwtaylor.rings import (
    QQ,
    DomainError,
    PolynomialRing,
    PrimeField,
    Ring,
    constant_structure,
    differential_polynomial_carrier,
)

from oracles import (
    FRACTION_OPS,
    diffpoly_add,
    diffpoly_derive,
    diffpoly_from_terms,
    diffpoly_json_canonical,
    diffpoly_mul,
    fp_ops,
    grlex_key,
    grlex_tuples,
    poly_derive,
    poly_ops,
    tuples_upto,
)


@pytest.fixture
def ring_one_var():
    return DiffPolyRing(constant_structure(QQ, 1), ["x"])


class TestArithmetic:
    def test_symbols_and_constants(self, ring_one_var):
        A = ring_one_var
        x = A.gen("x")
        x1 = A.symbol("x", [1])
        assert not A.eq(x, x1)
        assert A.eq(A.add(x, A.zero()), x)
        assert A.eq(A.mul(A.one(), x1), x1)

    def test_mul_merges_powers(self, ring_one_var):
        A = ring_one_var
        x = A.gen("x")
        sq = A.mul(x, x)
        ((mon, c),) = sq.terms
        assert mon == (((0, MultiIndex.of(0)), 2),) and c == Fraction(1)

    def test_try_invert(self, ring_one_var):
        A = ring_one_var
        assert A.try_invert(A.gen("x")) is None
        assert A.eq(A.try_invert(A.embed_int(2)), A.constant(Fraction(1, 2)))

    def test_char_matches_base(self):
        A = DiffPolyRing(constant_structure(PrimeField(3), 2), ["x", "y"])
        assert A.characteristic == 3
        assert A.is_zero(A.sum(A.one() for _ in range(3)))


class TestDerive:
    def test_shifts_symbols(self, ring_one_var):
        A = ring_one_var
        assert A.eq(A.derive(A.gen("x"), 0), A.symbol("x", [1]))

    def test_product_rule(self, ring_one_var):
        A = ring_one_var
        x = A.gen("x")
        got = A.derive(A.mul(x, x), 0)
        want = A.mul(A.add(x, x), A.symbol("x", [1]))
        assert A.eq(got, want)

    def test_coefficients_derived_too(self):
        # base Q[u] with du/du = 1; d(u * x) = x + u * x'
        base = differential_polynomial_carrier(QQ, ["u"], [["1"]])
        A = DiffPolyRing(base, ["x"])
        u = base.ring.gen("u")
        f = A.mul(A.constant(u), A.gen("x"))
        want = A.add(A.gen("x"), A.mul(A.constant(u), A.symbol("x", [1])))
        assert A.eq(A.derive(f, 0), want)

    def test_leibniz_random(self):
        base = differential_polynomial_carrier(QQ, ["u"], [["u"]])
        A = DiffPolyRing(base, ["x", "y"])
        rng = random.Random(21)
        for _ in range(20):
            f, g = A.sample(rng), A.sample(rng)
            lhs = A.derive(A.mul(f, g), 0)
            rhs = A.add(A.mul(A.derive(f, 0), g), A.mul(f, A.derive(g, 0)))
            assert A.eq(lhs, rhs)

    def test_two_slots_commute(self):
        base = constant_structure(QQ, 2)
        A = DiffPolyRing(base, ["x"])
        rng = random.Random(22)
        for _ in range(20):
            f = A.sample(rng)
            assert A.eq(A.derive(A.derive(f, 0), 1), A.derive(A.derive(f, 1), 0))

    def test_differential_ring_wrapper(self, ring_one_var):
        D = ring_one_var.differential_ring()
        x = ring_one_var.gen("x")
        got = D.derive_iter(x, MultiIndex.of(3))
        assert ring_one_var.eq(got, ring_one_var.symbol("x", [3]))


class TestSymbolIds:
    """Inside the ring a symbol (var, order) is the int ``grlex_rank(order) * count + var``."""

    def test_rank_is_the_enumeration_position(self):
        for width in (1, 2, 3):
            for rank, entries in enumerate(grlex_tuples(width, 9)):
                assert grlex_rank(entries) == rank
                assert grlex_unrank(width, rank) == entries

    def test_high_orders_rank_in_graded_lex_order(self):
        rng = random.Random(27)
        for _ in range(200):
            width = rng.randint(1, 3)
            a, b = (MultiIndex(tuple(rng.randint(0, 64) for _ in range(width))) for _ in "ab")
            ra, rb = grlex_rank(a.entries), grlex_rank(b.entries)
            assert (ra < rb) == (grlex_key(a) < grlex_key(b)) and (ra == rb) == (a == b)
            assert grlex_unrank(width, ra) == a.entries

    @pytest.mark.parametrize("width", [1, 2, 3])
    def test_ids_are_distinct_and_sort_like_symbols(self, width):
        orders = [MultiIndex(t) for t in tuples_upto(width, 9)]
        for count in (1, 2, 3):
            codec = SymbolCodec(width, count)
            symbols = [(var, order) for order in orders for var in range(count)]
            ids = [codec.encode(var, order.entries) for var, order in symbols]
            assert len(set(ids)) == len(ids)
            by_id = [sym for _, sym in sorted(zip(ids, symbols))]
            assert by_id == sorted(symbols, key=lambda s: (grlex_key(s[1]), s[0]))
            assert [codec.decode(i) for i in ids] == symbols

    def test_a_shifted_id_is_larger_than_its_source(self):
        """``derive`` keeps monomials sorted by inserting the shifted symbol
        after its source, which needs every shift to raise the id."""
        for width in (1, 2, 3):
            for count in (1, 2, 3):
                codec = SymbolCodec(width, count)
                ids = range(len(tuples_upto(width, 8)) * count)
                for i in ids:
                    for slot in range(width):
                        assert codec.shift(i, slot) > i, (width, count, i, slot)

    def test_decoded_symbols_are_kept_and_ignored_by_equality(self, monkeypatch):
        calls = []
        unrank = diffpoly.grlex_unrank

        def counting(width, rank):
            calls.append(rank)
            return unrank(width, rank)

        monkeypatch.setattr(diffpoly, "grlex_unrank", counting)
        codec, twin = SymbolCodec(2, 2), SymbolCodec(2, 2)
        orders = enumerate_upto(2, 3)
        ids = [codec.encode(var, order.entries) for order in orders for var in (0, 1)]
        symbols = [codec.decode(i) for i in ids]
        shifted = [codec.shift(i, slot) for i in ids for slot in (0, 1)]
        # one walk per id, shared by later decodes and shifts; the table
        # holds the decoded ids and nothing else
        assert len(calls) == len(ids) and sorted(codec._decoded) == sorted(ids)
        assert all(codec.decode(i) is sym for i, sym in zip(ids, symbols))
        assert shifted == [twin.shift(i, slot) for i in ids for slot in (0, 1)]
        assert codec == twin and hash(codec) == hash(twin)
        assert codec == SymbolCodec(2, 2) and codec != SymbolCodec(2, 1)

    def test_json_term_order_matches_the_oracle(self):
        """200 seeded elements, their products and derivatives: terms and factors
        come out of ``element_to_json`` in the order an independent sort gives."""
        rng = random.Random(28)
        rings = [DiffPolyRing(constant_structure(QQ, w), ["x", "y", "z"][:w]) for w in (1, 2, 3)]
        for n in range(200):
            A = rings[n % 3]
            f, g = A.sample(rng), A.sample(rng)
            fg = A.mul(f, g)
            slot = rng.randrange(A.width)
            deep = A.derive(A.derive(fg, slot), rng.randrange(A.width))
            for e in (f, fg, A.derive(f, slot), deep, A.mul(deep, f)):
                doc = A.element_to_json(e)
                shuffled = [
                    {"coeff": t["coeff"], "monomial": rng.sample(t["monomial"], len(t["monomial"]))}
                    for t in rng.sample(doc, len(doc))
                ]
                assert doc == diffpoly_json_canonical(shuffled)
                assert A.element_from_json(shuffled) == e

    def test_equal_rings_share_elements(self):
        base = constant_structure(QQ, 2)
        A, B = DiffPolyRing(base, ["x", "y"]), DiffPolyRing(base, ["x", "y"])
        assert A == B and A is not B
        # B's shift tables start empty and read symbols only A has shifted
        x10 = A.derive(A.gen("x"), 0)
        assert B.derive(x10, 1) == A.symbol("x", [1, 1]) == B.symbol("x", [1, 1])
        rng = random.Random(29)
        for _ in range(20):
            f, g = A.derive(A.derive(A.sample(rng), 0), 1), B.sample(rng)
            assert B.add(f, g) == A.add(f, g) and B.mul(f, g) == A.mul(f, g)
            assert B.derive(f, 1) == A.derive(f, 1) and B.derive(g, 0) == A.derive(g, 0)
            assert B.render(f) == A.render(f) and B.render(g) == A.render(g)


class TestEvaluate:
    def test_into_own_base(self):
        # evaluate x' - x at the point u in (Q[u], d/du): 1 - u
        base = differential_polynomial_carrier(QQ, ["u"], [["1"]])
        A = DiffPolyRing(base, ["x"])
        R = base.ring
        f = A.sub(A.symbol("x", [1]), A.gen("x"))
        got = A.evaluate(f, base, [R.gen("u")], lambda c: c)
        assert R.eq(got, R.parse("1 - u"))

    def test_missing_embed_rejected(self, ring_one_var):
        with pytest.raises(DomainError, match="structure map"):
            ring_one_var.evaluate(
                ring_one_var.one(), constant_structure(QQ, 1), [Fraction(1)], None
            )

    def test_point_arity_checked(self, ring_one_var):
        with pytest.raises(ValueError, match="point values"):
            ring_one_var.evaluate(
                ring_one_var.one(),
                constant_structure(QQ, 1),
                [Fraction(1), Fraction(2)],
                lambda c: c,
            )

    def test_value_hom_is_algebra_map(self, ring_one_var):
        A = ring_one_var
        values = {
            (0, MultiIndex.of(0)): Fraction(2),
            (0, MultiIndex.of(1)): Fraction(-1),
        }
        phi = A.value_hom(values)
        rng = random.Random(23)
        f = A.add(A.gen("x"), A.constant(Fraction(1, 2)))
        g = A.mul(A.symbol("x", [1]), A.gen("x"))
        assert phi(A.mul(f, g)) == phi(f) * phi(g)
        assert phi(A.add(f, g)) == phi(f) + phi(g)
        assert phi(A.one()) == Fraction(1)

    def test_uncovered_symbol_named(self, ring_one_var):
        A = ring_one_var
        phi = A.value_hom({(0, MultiIndex.of(0)): Fraction(1)})
        with pytest.raises(UncoveredSymbolError, match="x'"):
            phi(A.symbol("x", [1]))
        lenient = A.value_hom({(0, MultiIndex.of(0)): Fraction(1)}, default_zero=True)
        assert lenient(A.symbol("x", [1])) == Fraction(0)

    def test_value_map_reads_and_raises_each_symbol_once(self, monkeypatch):
        """One map over several elements: one read per symbol, one K.pow per power."""
        A = DiffPolyRing(constant_structure(QQ, 1), ["x", "y"])
        x, y, x1 = A.gen("x"), A.gen("y"), A.symbol("x", [1])
        elements = [
            A.mul(A.pow(x, 2), A.pow(y, 3)),
            A.add(A.pow(x, 2), x1),
            A.mul(A.pow(y, 3), x),
            A.pow(x, 3),
        ]
        reads = []

        class Table(dict):
            def __getitem__(self, sym):
                reads.append(sym)
                return dict.__getitem__(self, sym)

        table = Table({
            (0, MultiIndex.of(0)): Fraction(2),
            (1, MultiIndex.of(0)): Fraction(3),
            (0, MultiIndex.of(1)): Fraction(5),
        })
        powers = []
        pow_ = Ring.pow

        def counting(self, a, n):
            powers.append((a, n))
            return pow_(self, a, n)

        monkeypatch.setattr(Ring, "pow", counting)
        phi = A.value_hom(table)
        assert [phi(e) for e in elements] == [4 * 27, 4 + 5, 27 * 2, 8]
        assert len(reads) == len(set(reads)) == len(table)
        assert len(set(powers)) == len(powers)
        assert sorted(p for p in powers if p[1] > 1) == [(2, 2), (2, 3), (3, 3)]

    def test_unit_coefficient_costs_no_product(self):
        """x*y is one K.mul and 2*x*y two; the values are the fold from the coefficient."""
        R = PolynomialRing(QQ, ["u", "v"])
        A = DiffPolyRing(constant_structure(R, 1), ["x", "y"])
        xy = A.mul(A.gen("x"), A.gen("y"))
        two_xy = A.mul(A.embed_int(2), xy)
        two, vx, vy = R.embed_int(2), R.parse("u + 1"), R.parse("v - 2")
        products = []
        mul = R.mul

        def counting(a, b):
            products.append((a, b))
            return mul(a, b)

        R.mul = counting
        phi = A.value_hom({(0, MultiIndex.of(0)): vx, (1, MultiIndex.of(0)): vy})
        assert R.eq(phi(xy), mul(vx, vy))
        assert products == [(vx, vy)]
        products.clear()
        assert R.eq(phi(two_xy), mul(mul(two, vx), vy))
        assert products == [(two, vx), (mul(two, vx), vy)]


class TestJson:
    def test_roundtrip(self):
        base = constant_structure(QQ, 2)
        A = DiffPolyRing(base, ["x", "y"])
        rng = random.Random(24)
        for _ in range(10):
            f = A.sample(rng)
            assert A.eq(A.element_from_json(A.element_to_json(f)), f)

    def test_errors_name_paths(self, ring_one_var):
        A = ring_one_var
        cases = [
            ({}, "expected a list"),
            ([{"coeff": "1"}], "needs coeff and monomial"),
            ([{"coeff": "1", "monomial": [[0, [0], 0]]}], "power"),
            ([{"coeff": "1", "monomial": [[1, [0], 1]]}], "variable index"),
            ([{"coeff": "1", "monomial": [[0, [0, 0], 1]]}], "order"),
            ([{"coeff": "q", "monomial": []}], "coeff"),
            ([{"coeff": "1", "monomial": [], "x": 1}], "unknown field"),
            (
                [{"coeff": "1", "monomial": [[0, [1], 1], [0, [1], 2]]}],
                "duplicate symbol",
            ),
        ]
        for doc, pattern in cases:
            with pytest.raises(ValueError, match=pattern):
                A.element_from_json(doc)

    def test_values_errors_name_paths(self, ring_one_var):
        A = ring_one_var
        cases = [
            ({}, r"phi: expected a list of \[variable, order, value\] rows"),
            ([[0, [0]]], r"phi\[0\]: expected \[variable, order, value\]"),
            ([[1, [0], "1"]], r"phi\[0\]\[0\]: must be between 0 and 0"),
            ([[0, [0, 0], "1"]], r"phi\[0\]\[1\]: expected 1 order entries"),
            ([[0, [0], 1]], r"phi\[0\]\[2\]: expected a string"),
            ([[0, [0], "1"], [0, [0], "2"]], r"phi\[1\]: duplicate symbol"),
        ]
        for doc, pattern in cases:
            with pytest.raises(ValueError, match=pattern):
                A.values_from_json(doc, "phi")

    def test_render(self, ring_one_var):
        A = ring_one_var
        f = A.add(A.mul(A.gen("x"), A.symbol("x", [2])), A.constant(Fraction(-1, 2)))
        assert A.render(f) == "(-1/2) + x*x''"


@st.composite
def value_table(draw):
    """A value table over Q, F_5 or Q[u] on one or two variables of width 1-3."""
    K = draw(st.sampled_from([QQ, PrimeField(5), PolynomialRing(QQ, ["u"])]))
    width = draw(st.integers(min_value=1, max_value=3))
    A = DiffPolyRing(constant_structure(K, width), ["x", "y"][: draw(st.integers(1, 2))])
    symbol = st.tuples(
        st.integers(0, len(A.variables) - 1),
        st.lists(st.integers(0, 4), min_size=width, max_size=width).map(tuple),
    )
    rng = random.Random(draw(st.integers(min_value=0, max_value=10**6)))
    table = {
        (var, MultiIndex(order)): K.sample(rng)
        for var, order in draw(st.lists(symbol, max_size=8, unique=True))
    }
    return A, table


@settings(max_examples=60, deadline=None)
@given(value_table())
def test_values_json_roundtrip_hypothesis(data):
    A, table = data
    assert A.values_from_json(A.values_to_json(table)) == table


# u' = u^2 + 1 in slot 0 and twice that in slot 1: one derivation and a
# multiple of it, so the family commutes
MERGE_IMAGES = ({(2,): 1, (0,): 1}, {(2,): 2, (0,): 2})
MERGE_FIELDS = {
    "Q": (QQ, FRACTION_OPS, lambda rng: Fraction(rng.randint(-4, 4), rng.choice((1, 2, 3)))),
    "F3": (PrimeField(3), fp_ops(3), lambda rng: rng.randrange(3)),
}


def coeff_text(c: dict) -> str:
    """The element string of a dict polynomial in ``u``."""
    if not c:
        return "0"
    return " + ".join(f"{v}*u^{e}" for (e,), v in c.items()).replace("+ -", "- ")


class TestTermMerging:
    """``add``, ``mul``, ``derive`` and ``element_from_json`` merge like terms as
    the dict-of-monomials oracle does, over ``Q[u]`` and ``F_3[u]``, when terms
    repeat and when they cancel."""

    @pytest.fixture(params=list(MERGE_FIELDS))
    def setup(self, request):
        field, base, coeff = MERGE_FIELDS[request.param]
        images = [{e: base.embed(n) for e, n in image.items()} for image in MERGE_IMAGES]
        K = differential_polynomial_carrier(field, ["u"], [[coeff_text(g)] for g in images])
        derivations = [lambda c, g=g: poly_derive(c, [g], base) for g in images]
        return DiffPolyRing(K, ["x", "y"]), poly_ops(base, 1), coeff, derivations

    @staticmethod
    def random_terms(rng, coeff, count):
        """``(factors, coefficient)`` terms over a pool of three monomials, so
        monomials repeat; factor order is shuffled and coefficients may be zero."""
        symbols = [(v, (a, b)) for v in range(2) for a in range(2) for b in range(2)]
        pool = [
            [[v, list(o), rng.randint(1, 2)] for v, o in rng.sample(symbols, rng.randint(0, 2))]
            for _ in range(3)
        ]
        terms = []
        for _ in range(count):
            factors = rng.choice(pool)
            c = {(e,): coeff(rng) for e in rng.sample(range(3), rng.randint(1, 2))}
            terms.append((rng.sample(factors, len(factors)), {e: v for e, v in c.items() if v}))
        return terms

    @staticmethod
    def element(A, terms):
        doc = [{"coeff": coeff_text(c), "monomial": factors} for factors, c in terms]
        return A.element_from_json(doc)

    @staticmethod
    def as_dict(e) -> dict:
        return {
            tuple(sorted(((var, order.entries), p) for (var, order), p in mon)): dict(c.terms)
            for mon, c in e.terms
        }

    def test_element_from_json_sums_repeated_monomials(self, setup):
        A, ops, coeff, _ = setup
        rng = random.Random(41)
        merged = 0
        for trial in range(100):
            terms = self.random_terms(rng, coeff, rng.randint(1, 6))
            want = diffpoly_from_terms(terms, ops)
            merged += len(want) < len(terms)
            assert self.as_dict(self.element(A, terms)) == want, trial
        assert merged > 50
        # one monomial three times, its factors in two orders, summing to zero
        m = [[0, [1, 0], 2], [1, [0, 1], 1]]
        doc = [
            {"coeff": "u", "monomial": m},
            {"coeff": "2*u", "monomial": m[::-1]},
            {"coeff": "-3*u", "monomial": m},
        ]
        assert A.element_from_json(doc) == A.zero()

    def test_add_mul_derive_match_the_oracle(self, setup):
        A, ops, coeff, derivations = setup
        rng = random.Random(42)
        # trials whose derivative meets a power > 1, and trials where a
        # factor's shifted symbol is already in its monomial (a merge)
        powered = shifted_in = 0
        for trial in range(60):
            ta, tb = (self.random_terms(rng, coeff, rng.randint(1, 5)) for _ in "ab")
            a, b = self.element(A, ta), self.element(A, tb)
            da, db = diffpoly_from_terms(ta, ops), diffpoly_from_terms(tb, ops)
            assert self.as_dict(A.add(a, b)) == diffpoly_add(da, db, ops), trial
            assert self.as_dict(A.mul(a, b)) == diffpoly_mul(da, db, ops), trial
            for slot, derive in enumerate(derivations):
                want = diffpoly_derive(da, slot, derive, ops)
                assert self.as_dict(A.derive(a, slot)) == want, (trial, slot)
            assert A.add(a, A.neg(a)) == A.zero(), trial
            monomials = [dict(mon) for mon in da]  # (var, order) -> power
            powered += any(p > 1 for mon in monomials for p in mon.values())
            shifted_in += any(
                (v, tuple(e + (j == slot) for j, e in enumerate(o))) in mon
                for mon in monomials
                for v, o in mon
                for slot in range(len(derivations))
            )
        assert powered > 20 and shifted_in > 5

    def test_cross_terms_cancel(self, setup):
        """``(p + q)(p - q) = p^2 - q^2`` for one-term ``p`` and ``q``."""
        A, ops, coeff, _ = setup
        rng = random.Random(43)
        ran = 0
        for trial in range(100):
            p, q = self.random_terms(rng, coeff, 2)
            factors = [sorted((v, tuple(o), k) for v, o, k in t[0]) for t in (p, q)]
            if not p[1] or not q[1] or factors[0] == factors[1]:
                continue
            minus_q = (q[0], ops.neg(q[1]))
            want = diffpoly_mul(
                diffpoly_from_terms([p, q], ops), diffpoly_from_terms([p, minus_q], ops), ops
            )
            got = A.mul(self.element(A, [p, q]), self.element(A, [p, minus_q]))
            assert self.as_dict(got) == want and len(want) == 2, trial
            ran += 1
        assert ran > 20
