"""The integer polynomial kernel against the dict-of-coefficient oracle.

Over ``Q`` a polynomial holds integer numerators over one shared
denominator, over ``F_p`` residues; both are compared here, operation by
operation, with ``tests/oracles.py`` on seeded inputs that mix denominators
and cancel terms.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import gcd

import pytest

from hwtaylor.rings import QQ, PolynomialRing, PrimeField
from oracles import (
    FRACTION_OPS,
    fp_ops,
    poly_add,
    poly_derive,
    poly_invert,
    poly_mul,
    poly_neg,
    poly_pow,
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


def test_render_is_graded_lex():
    R = PolynomialRing(QQ, GENERATORS)
    p = build(R, {(0, 0): Fraction(1, 2), (1, 4): 1, (5, 0): -2, (3, 2): Fraction(-6, 4), (0, 1): 3})
    assert R.render(p) == "u*v^4 - 3/2*u^3*v^2 - 2*u^5 + 3*v + 1/2"
