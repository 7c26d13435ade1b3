"""The integer polynomial kernel against the dict-of-coefficient oracle.

Over ``Q`` a polynomial holds integer numerators over one shared
denominator, over ``F_p`` residues; both are compared here, operation by
operation, with ``tests/oracles.py`` on seeded inputs that mix denominators
and cancel terms.  ``combine`` (weighted sums, reduced once), ``dot`` (rows
of weighted products, reduced once) and products with a zero, constant or
one-term operand are compared the same way, ``dot`` also on operands that
meet more distinct exponent pairs than they hold terms.  ``_make``, the sum
of ``(exponents, coefficient)`` terms, and ``sample``, which draws such
terms, are compared with the oracle's own merge of repeated exponents.  The
output bytes of ``tests/data/capped_values_x24.json`` (``x^24`` on the
capped document's value table), whose products have many terms, are pinned.  One derivation
is compared on many polynomials in turn, so state it carried from one to
the next would show.  Exponent sums are built by a function chosen by the
number of generators, so products, ``dot`` and derivations are also
compared at one to four generators.
"""

from __future__ import annotations

import hashlib
import random
from fractions import Fraction
from itertools import repeat
from math import gcd
from pathlib import Path

import pytest

from hwtaylor.cli import main
from hwtaylor.rings import QQ, PolynomialRing, PrimeField, Ring
from oracles import (
    FRACTION_OPS,
    fp_ops,
    poly_add,
    poly_combine,
    poly_derive,
    poly_from_terms,
    poly_invert,
    poly_mul,
    poly_neg,
    poly_pow,
    poly_sample,
)

FIELDS = [
    pytest.param(QQ, FRACTION_OPS, lambda c: 1 / c, id="Q"),
    pytest.param(PrimeField(3), fp_ops(3), lambda c: pow(c, -1, 3), id="F3"),
    pytest.param(PrimeField(5), fp_ops(5), lambda c: pow(c, -1, 5), id="F5"),
]
GENERATORS = ("u", "v")
TRIALS = 40


def random_coeff(rng, ring):
    if ring is QQ:
        return Fraction(rng.randint(-9, 9), rng.choice((1, 2, 3, 4, 6, 9, 12)))
    return rng.randrange(ring.p)


def random_table(rng, ring, terms=4, degree=3):
    """A dict polynomial; exponents may repeat, so some entries are summed."""
    ops = FRACTION_OPS if ring is QQ else fp_ops(ring.p)
    table = {}
    for _ in range(rng.randint(0, terms)):
        e = (rng.randint(0, degree), rng.randint(0, degree))
        table[e] = ops.add(table.get(e, ops.zero), random_coeff(rng, ring))
    return {e: c for e, c in table.items() if c != ops.zero}


def cancelling_pair(rng, ring, ops):
    """Two tables whose sum keeps only part of them: b shares negated terms of a."""
    a = random_table(rng, ring)
    b = random_table(rng, ring)
    for e in list(a)[: rng.randint(1, max(1, len(a)))]:
        b[e] = ops.neg(a[e])
    return a, {e: c for e, c in b.items() if c != ops.zero}


def build(R, table, order=None):
    """The library value of a dict polynomial, its terms inserted in ``order``."""
    exps = list(table) if order is None else order
    return R.sum(R.monomial(e, table[e]) for e in exps)


def as_table(p):
    return dict(p.terms)


def assert_normal(R, p):
    """Over Q: nonzero numerators, positive denominator, no common factor; over F_p: residues."""
    if R.base is QQ:
        assert p.den >= 1 and all(p.table.values())
        assert gcd(p.den, *p.table.values()) == 1
        assert all(type(c) is Fraction for _, c in p.terms)
    else:
        assert p.den is None
        assert all(0 < r < R.base.p for r in p.table.values())


@pytest.mark.parametrize("field, ops, inverse", FIELDS)
def test_ring_operations_match_the_oracle(field, ops, inverse):
    R = PolynomialRing(field, GENERATORS)
    rng = random.Random(20261018)
    for trial in range(TRIALS):
        a, b = cancelling_pair(rng, field, ops) if trial % 2 else (
            random_table(rng, field), random_table(rng, field)
        )
        A, B = build(R, a), build(R, b)
        assert as_table(A) == a and as_table(B) == b, trial
        results = {
            "add": (R.add(A, B), poly_add(a, b, ops)),
            "neg": (R.neg(A), poly_neg(a, ops)),
            "sub": (R.sub(A, B), poly_add(a, poly_neg(b, ops), ops)),
            "mul": (R.mul(A, B), poly_mul(a, b, ops)),
            "pow": (R.pow(A, trial % 5), poly_pow(a, trial % 5, 2, ops)),
        }
        for name, (got, want) in results.items():
            assert as_table(got) == want, (trial, name)
            assert_normal(R, got)


@pytest.mark.parametrize("field, ops, inverse", FIELDS)
def test_try_invert_matches_the_oracle(field, ops, inverse):
    R = PolynomialRing(field, GENERATORS)
    rng = random.Random(5)
    cases = [random_table(rng, field, terms=2, degree=rng.randint(0, 1)) for _ in range(TRIALS)]
    cases += [{(0, 0): c} for c in (Fraction(-3, 4), Fraction(5)) if field is QQ]
    for table in cases:
        got = R.try_invert(build(R, table))
        want = poly_invert(table, 2, inverse)
        assert (None if got is None else as_table(got)) == want, table


@pytest.mark.parametrize("field, ops, inverse", FIELDS)
def test_derivations_match_the_oracle(field, ops, inverse):
    R = PolynomialRing(field, GENERATORS)
    rng = random.Random(11)
    for trial in range(TRIALS):
        images = [random_table(rng, field, terms=3, degree=2) for _ in GENERATORS]
        a = random_table(rng, field, terms=5, degree=4)
        want = poly_derive(a, images, ops)
        got = R.derivation([build(R, g) for g in images])(build(R, a))
        assert as_table(got) == want, trial
        assert_normal(R, got)


@pytest.mark.parametrize("field, ops, inverse", FIELDS)
def test_insertion_order_is_invisible(field, ops, inverse):
    R = PolynomialRing(field, GENERATORS)
    rng = random.Random(3)
    seen_reordered = 0
    for _ in range(TRIALS):
        table = random_table(rng, field, terms=6)
        forward = build(R, table)
        backward = build(R, table, order=list(reversed(list(table))))
        seen_reordered += [e for e, _ in forward.terms] != [e for e, _ in backward.terms]
        assert forward == backward and R.eq(forward, backward)
        assert hash(forward) == hash(backward)
        assert R.render(forward) == R.render(backward)
    assert seen_reordered > TRIALS // 2


@pytest.mark.parametrize("field, ops, inverse", FIELDS)
def test_make_merges_repeated_and_cancelling_terms(field, ops, inverse):
    """``_make`` sums like terms once; a key keeps the place of its first term."""
    R = PolynomialRing(field, GENERATORS)
    rng = random.Random(27)
    for trial in range(TRIALS):
        terms = [
            ((rng.randint(0, 2), rng.randint(0, 2)), random_coeff(rng, field))
            for _ in range(rng.randint(0, 8))
        ]
        # cancel some groups: append the negation of what the group sums to so far
        for e in {e for e, _ in terms[: rng.randint(0, len(terms))]}:
            total = poly_from_terms([t for t in terms if t[0] == e], ops).get(e, ops.zero)
            terms.append((e, ops.neg(total)))
        got = R._make(terms)
        assert list(got.terms) == list(poly_from_terms(terms, ops).items()), trial
        assert_normal(R, got)
    c = ops.embed(2)
    assert as_table(R._make([((1, 0), c), ((0, 1), c), ((1, 0), c)])) == poly_from_terms(
        [((1, 0), ops.add(c, c)), ((0, 1), c)], ops
    )
    assert R._make([((1, 0), c), ((1, 0), ops.neg(c))]) == R.zero()
    assert R._make([]) == R.zero()


SAMPLE_FIELDS = [
    pytest.param(QQ, None, id="Q"),
    pytest.param(PrimeField(2), 2, id="F2"),
    pytest.param(PrimeField(5), 5, id="F5"),
]


@pytest.mark.parametrize("width", [1, 2, 3])
@pytest.mark.parametrize("field, p", SAMPLE_FIELDS)
def test_sample_matches_its_replayed_draws(field, p, width):
    """``sample`` makes the same draws as the oracle and merges repeated exponents."""
    R = PolynomialRing(field, ("u", "v", "w")[:width])
    merged = 0
    for degree in range(7):
        for seed in range(20):
            rng, replay = random.Random(seed), random.Random(seed)
            got = R.sample(rng, degree)
            want = poly_sample(replay, width, degree, p)
            assert list(got.terms) == list(want.items()), (degree, seed)
            assert rng.random() == replay.random(), (degree, seed)
            assert_normal(R, got)
            # a zero draw is made 1, so only repeated exponents leave fewer terms
            merged += len(want) < random.Random(seed).randint(1, 3)
    assert merged >= 10


def test_render_is_graded_lex():
    R = PolynomialRing(QQ, GENERATORS)
    p = build(R, {(0, 0): Fraction(1, 2), (1, 4): 1, (5, 0): -2, (3, 2): Fraction(-6, 4), (0, 1): 3})
    assert R.render(p) == "u*v^4 - 3/2*u^3*v^2 - 2*u^5 + 3*v + 1/2"


def weighted_row(rng, field, ops, cancel):
    """Weights (some at least p) and dict values (some zero); ``cancel`` appends
    the negated sum, so the row sums to zero."""
    p = field.characteristic or 7
    n = rng.randint(1 if cancel else 0, 5)
    values = [random_table(rng, field, terms=rng.choice((0, 2, 4))) for _ in range(n)]
    weights = [rng.choice((1, 1, 2, 3, p - 1, p, p + 1, 2 * p, 6 * p + 5)) for _ in values]
    if cancel:
        values.append(poly_neg(poly_combine(weights, values, len(GENERATORS), ops), ops))
        weights.append(1)
    return weights, values


@pytest.mark.parametrize("field, ops, inverse", FIELDS)
def test_combine_matches_the_oracle(field, ops, inverse):
    R = PolynomialRing(field, GENERATORS)
    rng = random.Random(1118)
    seen_zero = seen_cancelled = 0
    for trial in range(TRIALS):
        cancel = trial % 3 == 0
        weights, values = weighted_row(rng, field, ops, cancel)
        seen_zero += any(not v for v in values)
        want = poly_combine(weights, values, len(GENERATORS), ops)
        built = [build(R, v) for v in values]
        got = R.combine(weights, built)
        assert as_table(got) == want, trial
        assert_normal(R, got)
        # the generic add-and-scale loop is the same sum
        assert got == Ring.combine(R, weights, built), trial
        if cancel:
            seen_cancelled += 1
            assert R.is_zero(got) and got == R.zero(), trial
        ones = [1] * len(values)
        assert as_table(R.sum(built)) == poly_combine(ones, values, len(GENERATORS), ops)
    assert seen_zero and seen_cancelled


@pytest.mark.parametrize("field, ops, inverse", FIELDS)
def test_scalar_combine_matches_the_oracle(field, ops, inverse):
    rng = random.Random(1119)
    p = field.characteristic or 7
    for trial in range(TRIALS):
        values = [random_coeff(rng, field) for _ in range(rng.randint(0, 6))]
        if trial % 2 and values:
            values[0] = ops.zero
        weights = [rng.choice((1, 2, p - 1, p, p + 1, 5 * p + 3)) for _ in values]
        if trial % 3 == 0 and values:
            # the last term cancels the others
            head = field.combine(weights[:-1], values[:-1])
            weights[-1], values[-1] = 1, ops.neg(head)
        want = ops.zero
        for w, v in zip(weights, values):
            want = ops.add(want, ops.mul(ops.embed(w), v))
        got = field.combine(weights, values)
        assert got == want and type(got) is type(want), trial
        assert field is QQ or 0 <= got < p
        assert got == Ring.combine(field, weights, values), trial


@pytest.mark.parametrize("field, ops, inverse", FIELDS)
def test_mul_by_zero_constant_or_monomial_matches_the_oracle(field, ops, inverse):
    """A zero, constant or one-term operand on either side, against the oracle."""
    R = PolynomialRing(field, GENERATORS)
    rng = random.Random(1120)

    def nonzero_coeff():
        while True:
            c = random_coeff(rng, field)
            if c != ops.zero:
                return c

    for trial in range(TRIALS):
        a = random_table(rng, field, terms=5)
        specials = {
            "zero": {},
            "constant": {(0, 0): nonzero_coeff()},
            "monomial": {(rng.randint(0, 3), rng.randint(1, 3)): nonzero_coeff()},
        }
        for name, s in specials.items():
            for x, y in ((a, s), (s, a), (s, s)):
                got = R.mul(build(R, x), build(R, y))
                assert as_table(got) == poly_mul(x, y, ops), (trial, name)
                assert_normal(R, got)


def one_term(rng, field):
    while True:
        c = random_coeff(rng, field)
        if c:
            return {(rng.randint(0, 3), rng.randint(0, 3)): c}


@pytest.mark.parametrize("field, ops, inverse", FIELDS)
def test_dot_matches_the_oracle(field, ops, inverse):
    """Each row of ``dot`` is the combine of its pairwise products."""
    R = PolynomialRing(field, GENERATORS)
    rng = random.Random(1121)
    for trial in range(TRIALS):
        # position 0 is zero and 1 one-term on both sides; the rest are zero,
        # one-term or many-term, with denominators up to 12 over Q
        x, y = (
            [{}, one_term(rng, field)]
            + [rng.choice(({}, one_term(rng, field), random_table(rng, field))) for _ in range(4)]
            for _ in range(2)
        )
        rows = [((), (), ()), ((0, 1, 1), (1, 0, 0), (1, 4, 6)), ((1,), (1,), (3,))]
        for _ in range(4):
            n = rng.randint(1, 5)
            rows.append(
                (
                    tuple(rng.randrange(len(x)) for _ in range(n)),
                    tuple(rng.randrange(len(y)) for _ in range(n)),
                    tuple(rng.choice((1, 2, 3, 6, 10, 20)) for _ in range(n)),
                )
            )
        X, Y = [build(R, t) for t in x], [build(R, t) for t in y]
        for weighted in (True, False):
            given = rows if weighted else [(l, r, repeat(1)) for l, r, _ in rows]
            got = list(R.dot(X, Y, given))
            assert len(got) == len(rows)
            for k, (left, right, weights) in enumerate(rows):
                products = [poly_mul(x[i], y[j], ops) for i, j in zip(left, right)]
                w = weights if weighted else [1] * len(left)
                assert as_table(got[k]) == poly_combine(w, products, 2, ops), (trial, k)
                assert_normal(R, got[k])
            # the generic per-pair form gives the same values
            assert got == list(Ring.dot(R, X, Y, given)), (trial, weighted)


def test_dot_reads_operands_when_a_row_is_pulled():
    """A row reads ``y`` when it is pulled, so a caller may fill ``y`` from earlier rows."""
    R = PolynomialRing(QQ, GENERATORS)
    u = R.gen("u")
    x = [R.one(), u]
    y = [R.zero(), R.zero()]
    rows = R.dot(x, y, [((0,), (0,), (1,)), ((1,), (0,), (2,))])
    assert R.is_zero(next(rows))
    y[0] = R.constant(Fraction(1, 3))
    assert R.render(next(rows)) == "2/3*u"


@pytest.mark.parametrize("field, ops, inverse", [FIELDS[0], FIELDS[2]])
def test_one_derivation_matches_the_oracle_on_many_polynomials(field, ops, inverse):
    """One derivation, applied in turn to 200 polynomials, derives each alike."""
    R = PolynomialRing(field, GENERATORS)
    rng = random.Random(1812)
    images = [random_table(rng, field, terms=3, degree=2) for _ in GENERATORS]
    d = R.derivation([build(R, g) for g in images])
    for trial in range(200):
        # degree 3 in two generators: 16 monomials, so most were met before
        a = random_table(rng, field, terms=5, degree=3)
        got = d(build(R, a))
        assert as_table(got) == poly_derive(a, images, ops), trial
        assert_normal(R, got)


def spread(rng, field, terms):
    """A dict polynomial with ``terms`` distinct monomials and nonzero coefficients."""
    exps = rng.sample([(i, j) for i in range(6) for j in range(6)], terms)
    table = {}
    for e in exps:
        while not table.get(e):
            table[e] = random_coeff(rng, field)
    return table


@pytest.mark.parametrize("field, ops, inverse", FIELDS)
def test_dot_with_more_exponent_pairs_than_terms_matches_the_oracle(field, ops, inverse):
    """More distinct exponent pairs than operand terms, each row twice."""
    R = PolynomialRing(field, GENERATORS)
    rng = random.Random(1813)
    for trial in range(TRIALS // 4):
        x = [spread(rng, field, 6) for _ in range(2)]
        y = [spread(rng, field, 6) for _ in range(2)]
        terms = sum(map(len, x + y))
        pairs = {(ea, eb) for a in x for ea in a for b in y for eb in b}
        assert len(pairs) > terms
        # every pair of positions, each row twice
        rows = [((0, 1), (1, 0), (1, 2)), ((0, 1, 0, 1), (0, 0, 1, 1), (3, 1, 1, 5))] * 2
        got = list(R.dot([build(R, t) for t in x], [build(R, t) for t in y], rows))
        for k, (left, right, weights) in enumerate(rows):
            products = [poly_mul(x[i], y[j], ops) for i, j in zip(left, right)]
            assert as_table(got[k]) == poly_combine(weights, products, 2, ops), (trial, k)
            assert_normal(R, got[k])


CAPPED_VALUES_X24 = Path(__file__).parent / "data" / "capped_values_x24.json"


def test_x24_on_the_capped_values_document_is_pinned(capsys):
    """``x^24`` on the capped document's value table, at trunc 4: the output
    bytes are pinned."""
    assert main(["expand", "--spec", str(CAPPED_VALUES_X24)]) == 0
    out, err = capsys.readouterr()
    assert err == "" and len(out) == 323_088
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "2dda16daa9525f2c74657bc12b265b691f01bcb4b3eff5b0131c752b48e26017"
    )


# Exponent sums are written out for one, two and three generators; four and
# more take the generic ``tuple(map(...))`` path.
WIDTHS = [1, 2, 3, 4]


def wide_table(rng, field, width, terms=4, degree=3):
    """A dict polynomial in ``width`` generators with nonzero coefficients."""
    table = {}
    for _ in range(rng.randint(1, terms)):
        e = tuple(rng.randint(0, degree) for _ in range(width))
        while not table.get(e):
            table[e] = random_coeff(rng, field)
    return table


@pytest.mark.parametrize("width", WIDTHS)
@pytest.mark.parametrize("field, ops, inverse", FIELDS)
def test_mul_and_derivation_match_the_oracle_at_each_width(field, ops, inverse, width):
    R = PolynomialRing(field, [f"u{k}" for k in range(width)])
    rng = random.Random(2300 + width)
    for trial in range(TRIALS // 2):
        a, b = wide_table(rng, field, width), wide_table(rng, field, width)
        got = R.mul(build(R, a), build(R, b))
        assert as_table(got) == poly_mul(a, b, ops), trial
        assert_normal(R, got)
        images = [wide_table(rng, field, width, terms=2, degree=2) for _ in range(width)]
        got = R.derivation([build(R, g) for g in images])(build(R, a))
        assert as_table(got) == poly_derive(a, images, ops), trial
        assert_normal(R, got)


@pytest.mark.parametrize("width", WIDTHS)
@pytest.mark.parametrize("field, ops, inverse", FIELDS)
def test_dot_matches_the_oracle_at_each_width(field, ops, inverse, width):
    """Each row twice, at one to four generators."""
    R = PolynomialRing(field, [f"u{k}" for k in range(width)])
    rng = random.Random(2310 + width)
    rows = [((0, 1), (1, 0), (1, 2)), ((0, 1, 0, 1), (0, 0, 1, 1), (3, 1, 1, 5))] * 2
    for trial in range(TRIALS // 4):
        x = [wide_table(rng, field, width) for _ in range(2)]
        y = [wide_table(rng, field, width) for _ in range(2)]
        got = list(R.dot([build(R, t) for t in x], [build(R, t) for t in y], rows))
        for k, (left, right, weights) in enumerate(rows):
            products = [poly_mul(x[i], y[j], ops) for i, j in zip(left, right)]
            assert as_table(got[k]) == poly_combine(weights, products, width, ops), (trial, k)
            assert_normal(R, got[k])
