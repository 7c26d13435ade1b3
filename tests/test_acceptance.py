"""Acceptance gate: eleven exact criteria, one test and one verdict line each.

Every comparison is exact (field equality, full-table equality, or equality
up to a stated order); there are no tolerances.  Each test finishes by
printing its verdict line; run with ``pytest -v`` to see one PASSED/FAILED
row per criterion, or add ``-s`` to see the printed lines too.
"""

from __future__ import annotations

import json
import math
import random
from fractions import Fraction

from hwtaylor import (
    QQ,
    DiffPolyRing,
    DifferentialRing,
    HurwitzRing,
    MorphismSpec,
    MultiIndex,
    PolynomialRing,
    PrimeField,
    classical_taylor,
    constant_structure,
    differential_polynomial_carrier,
    enumerate_upto,
    ev_twist,
    ev_untwist,
    hurwitz_morphism,
    twisted_hurwitz,
    twisted_taylor,
)
from hwtaylor.checks import CheckConfig, run_check
from hwtaylor.cli import main as cli_main

from oracles import Ops, twisted_divided_coeff, twisted_hurwitz_coeff

FIELDS = {"Q": QQ, "F2": PrimeField(2), "F3": PrimeField(3), "F5": PrimeField(5)}

CONSTRUCTORS = (
    # (name, fn, needs constant coefficients, rationals only)
    ("hurwitz_morphism", hurwitz_morphism, True, False),
    ("classical_taylor", classical_taylor, True, True),
    ("twisted_hurwitz", twisted_hurwitz, False, False),
    ("twisted_taylor", twisted_taylor, False, True),
)


def constant_image_family(ring, matrix):
    return tuple(
        ring.derivation([ring.embed_int(c) for c in row]) for row in matrix
    )


def diagonal_family(ring, matrix):
    return tuple(
        ring.derivation(
            [
                ring.mul(ring.embed_int(c), ring.gen(g))
                for c, g in zip(row, ring.generators)
            ]
        )
        for row in matrix
    )


def random_carrier(rng, base, width, constant):
    """A polynomial carrier over ``base`` with a commuting width-wide family."""
    gens = ["u", "v"][: rng.randint(1, 2)]
    ring = PolynomialRing(base, gens)
    if constant:
        return constant_structure(ring, width)
    matrix = [[rng.randint(-2, 2) for _ in gens] for _ in range(width)]
    build = constant_image_family if rng.random() < 0.5 else diagonal_family
    return DifferentialRing(ring, build(ring, matrix))


def value_table_spec(K, rng, trunc):
    """A one-variable differential polynomial source with a random table."""
    A = DiffPolyRing(K, ["x"])
    values = {
        (0, alpha): K.ring.sample(rng)
        for alpha in enumerate_upto(K.width, trunc + 2)
    }
    spec = MorphismSpec(
        source=A.differential_ring(),
        coefficients=K,
        phi=A.value_hom(values),
        trunc=trunc,
    )
    return spec, A


def test_criterion_01_golden_twisted_linear():
    """K = Q[u], d(u)=1, constant source, phi identity, m=1, N=8: u - t."""
    K = differential_polynomial_carrier(QQ, ["u"], [["1"]])
    R = K.ring
    spec = MorphismSpec(
        source=constant_structure(R, 1),
        coefficients=K,
        phi=lambda a: a,
        trunc=8,
    )
    H = spec.target
    u = R.gen("u")
    for fn in (twisted_hurwitz, twisted_taylor):
        got = fn(spec, u)
        assert R.eq(got.coeff(MultiIndex.of(0)), u)
        assert R.eq(got.coeff(MultiIndex.of(1)), R.embed_int(-1))
        for alpha in H.indices:
            if alpha.degree >= 2:
                assert R.is_zero(got.coeff(alpha))
    # oracle route: evaluate the signed double sums directly
    ops = Ops(zero=R.zero(), add=R.add, mul=R.mul, neg=R.neg, embed=R.embed_int)
    zero_family = [lambda _x: R.zero()]
    hur = twisted_hurwitz(spec, u)
    div = twisted_taylor(spec, u)
    for alpha in H.indices:
        want_h = twisted_hurwitz_coeff(
            u, alpha.entries, zero_family, K.derivations, lambda v: v, ops
        )
        assert R.eq(hur.coeff(alpha), want_h)
        want_d = twisted_divided_coeff(
            u,
            alpha.entries,
            zero_family,
            K.derivations,
            lambda v: v,
            ops,
            lambda v, n: R.mul(R.constant(Fraction(1, n)), v),
        )
        assert R.eq(div.coeff(alpha), want_d)
    print("criterion 1: PASS - twisted expansions of u equal u - t at N=8, oracle-confirmed")


def test_criterion_02_golden_classical_and_hurwitz():
    """A = Q{x}, phi(x^(n)) = 1, N=10: coefficients 1/n! and all-ones."""
    K = constant_structure(QQ, 1)
    A = DiffPolyRing(K, ["x"])
    values = {(0, MultiIndex.of(n)): Fraction(1) for n in range(11)}
    spec = MorphismSpec(
        source=A.differential_ring(),
        coefficients=K,
        phi=A.value_hom(values),
        trunc=10,
    )
    H = spec.target
    x = A.gen("x")
    classical = classical_taylor(spec, x)
    hurwitz = hurwitz_morphism(spec, x)
    for n in range(11):
        assert classical.coeff(MultiIndex.of(n)) == Fraction(1, math.factorial(n))
        assert hurwitz.coeff(MultiIndex.of(n)) == Fraction(1)
    assert H.eq(H.to_divided(hurwitz), classical)
    print("criterion 2: PASS - classical 1/n! and Hurwitz all-ones at N=10, bridge exact")


def test_criterion_03_char_p_nilpotency():
    """The p-fold product of t vanishes over F_p for p in {2, 3, 5}."""
    for p in (2, 3, 5):
        H = HurwitzRing(PrimeField(p), 1, 6)
        t = H.indeterminate(0)
        power = t
        for _ in range(p - 1):
            power = H.mul(power, t)
        assert H.is_zero(power)
        for alpha in H.indices:
            assert power.coeff(alpha) == 0
    print("criterion 3: PASS - t^p = 0 in H(F_p) for p in {2,3,5} at N=6")


def test_criterion_04_ev1_constant_term_recovery():
    """ev(T(a)) = phi(a) on >= 200 instances per constructor, m<=2, N<=6."""
    rng = random.Random("acceptance/ev1")
    totals = {}
    for name, fn, needs_constant, rationals_only in CONSTRUCTORS:
        field_names = ("Q",) if rationals_only else ("Q", "F2", "F5")
        done = 0
        for k in range(200):
            base = FIELDS[field_names[k % len(field_names)]]
            width = 1 + (k % 2)
            trunc = 4 + (k % 3)
            K = random_carrier(rng, base, width, constant=needs_constant)
            spec, A = value_table_spec(K, rng, trunc)
            a = A.sample(rng)
            got = spec.target.ev(fn(spec, a))
            assert K.ring.eq(got, spec.phi(a)), (name, k)
            done += 1
        totals[name] = done
    assert all(v >= 200 for v in totals.values())
    print(
        "criterion 4: PASS - ev after expansion recovered phi on "
        + ", ".join(f"{v} {k} instances" for k, v in totals.items())
    )


def test_criterion_05_ev2_series_ring_identity():
    """Expanding H(K) over itself via ev returns the input, two carriers."""
    carriers = (
        ("Q[u], d(u)=1", QQ, [["1"], ["1"]], constant_image_family),
        ("F3[u], d(u)=u", PrimeField(3), [[1], [1]], diagonal_family),
    )
    rng = random.Random("acceptance/ev2")
    for label, base, rows, build in carriers:
        ring = PolynomialRing(base, ["u"])
        for k in range(100):
            width = 1 + (k % 2)
            trunc = 4 + (k % 3)
            if build is constant_image_family:
                family = build(ring, [[1]] * width)
            else:
                family = build(ring, [[1]] * width)
            K = DifferentialRing(ring, family)
            H = HurwitzRing(ring, width, trunc)
            source = H.differential_structure(K.derivations)
            spec = MorphismSpec(
                source=source,
                coefficients=K,
                phi=H.ev,
                trunc=trunc,
            )
            a = H.sample(rng)
            got = twisted_hurwitz(spec, a)
            assert H.agree_up_to(got, a, trunc), (label, k)
    print("criterion 5: PASS - 100 + 100 series reproduced over Q[u] (d(u)=1) and F3[u] (d(u)=u)")


def test_criterion_06_twist_composition():
    """Twisting twice by commuting families equals one twist by their sum."""
    rng = random.Random("acceptance/twist-composition")
    for k in range(100):
        width = 1 + (k % 2)
        trunc = 4 + (k % 3)
        which = k % 4
        if which == 0:
            ring = PolynomialRing(QQ, ["u"])
            fam1 = constant_image_family(ring, [[1]] * width)
            fam2 = constant_image_family(ring, [[2]] * width)
        elif which == 1:
            ring = PolynomialRing(PrimeField(3), ["u", "v"])
            fam1 = diagonal_family(ring, [[1, 0]] * width)
            fam2 = diagonal_family(ring, [[0, 1]] * width)
        else:
            base = FIELDS[("Q", "F2", "F3", "F5")[rng.randrange(4)]]
            gens = ["u", "v"][: rng.randint(1, 2)]
            ring = PolynomialRing(base, gens)
            build = constant_image_family if which == 2 else diagonal_family
            fam1 = build(ring, [[rng.randint(-2, 2) for _ in gens] for _ in range(width)])
            fam2 = build(ring, [[rng.randint(-2, 2) for _ in gens] for _ in range(width)])
        H = HurwitzRing(ring, width, trunc)
        a = H.sample(rng)
        summed = tuple(
            (lambda x, d1=d1, d2=d2: ring.add(d1(x), d2(x)))
            for d1, d2 in zip(fam1, fam2)
        )
        lhs = ev_twist(ev_twist(a, fam2), fam1)
        rhs = ev_twist(a, summed)
        assert H.agree_up_to(lhs, rhs, a.valid), k
    print("criterion 6: PASS - 100 double twists matched the summed-family twist")


def test_criterion_07_twist_inversion():
    """Untwisting after twisting returns the original series."""
    rng = random.Random("acceptance/twist-inverse")
    for k in range(100):
        base = FIELDS[("Q", "F2", "F3", "F5")[k % 4]]
        width = 1 + (k % 2)
        trunc = 4 + (k % 3)
        K = random_carrier(rng, base, width, constant=False)
        H = HurwitzRing(K.ring, width, trunc)
        a = H.sample(rng)
        back = ev_untwist(ev_twist(a, K.derivations), K.derivations)
        assert H.agree_up_to(back, a, a.valid), k
    print("criterion 7: PASS - 100 twist/untwist round trips were exact")


def test_criterion_08_tm1_and_tm2():
    """Differential phi collapses expansions; inclusions factor them."""
    config = CheckConfig(seed=0, instances=100, width_max=2, trunc=5, coeff_degree=2)
    tm1 = run_check("tm1", config)
    assert tm1.status == "pass", tm1.failures
    tm2 = run_check("tm2", config)
    assert tm2.status == "pass", tm2.failures
    print(
        "criterion 8: PASS - tm1 and tm2 checks each ran "
        f"{tm1.instances} + {tm2.instances} instances with zero failures"
    )


def test_criterion_09_homomorphism_suites():
    """Each constructor: additive, multiplicative, unital, differential."""
    rng = random.Random("acceptance/morphisms")
    totals = {}
    for name, fn, needs_constant, rationals_only in CONSTRUCTORS:
        field_names = ("Q",) if rationals_only else ("Q", "F2", "F3", "F5")
        pairs = 0
        for k in range(200):
            base = FIELDS[field_names[k % len(field_names)]]
            # rotate the extremes in opposition: width 2 pairs with the lower
            # order and width 1 with the higher, so both get exercised without
            # every other instance paying for the largest table
            width = 1 + (k % 2)
            trunc = 4 - (k % 2)
            K = random_carrier(rng, base, width, constant=needs_constant)
            spec, A = value_table_spec(K, rng, trunc)
            H = spec.target
            if name == "hurwitz_morphism":
                structure = H.differential_structure()
                product = H.mul
            elif name == "classical_taylor":
                structure = DifferentialRing(
                    H,
                    tuple(
                        (lambda s, i=i: H.formal_derive(s, i)) for i in range(width)
                    ),
                )
                product = H.cauchy_mul
            elif name == "twisted_hurwitz":
                structure = H.differential_structure(K.derivations)
                product = H.mul
            else:
                structure = DifferentialRing(
                    H,
                    tuple(
                        (
                            lambda s, i=i: H.add(
                                H.coeff_derive(s, K.derivations, i),
                                H.formal_derive(s, i),
                            )
                        )
                        for i in range(width)
                    ),
                )
                product = H.cauchy_mul
            a, b = A.sample(rng), A.sample(rng)
            Ta, Tb = fn(spec, a), fn(spec, b)
            assert H.eq(fn(spec, A.add(a, b)), H.add(Ta, Tb)), (name, k, "additive")
            assert H.eq(fn(spec, A.mul(a, b)), product(Ta, Tb)), (
                name,
                k,
                "multiplicative",
            )
            assert H.eq(fn(spec, A.one()), H.one()), (name, k, "unital")
            for slot in range(width):
                assert H.agree_up_to(
                    fn(spec, A.derive(a, slot)), structure.derive(Ta, slot), trunc - 1
                ), (name, k, "differential", slot)
            pairs += 1
        totals[name] = pairs
    assert all(v >= 200 for v in totals.values())
    print(
        "criterion 9: PASS - homomorphism and differential laws held on "
        + ", ".join(f"{v} pairs for {k}" for k, v in totals.items())
    )


def test_criterion_10_inversion():
    """Units invert: a * invert(a) = 1 up to valid, over F3 and Q."""
    rng = random.Random("acceptance/inversion")
    for field in (QQ, PrimeField(3)):
        for k in range(100):
            width = 1 + (k % 2)
            trunc = 4 + (k % 3)
            H = HurwitzRing(field, width, trunc)
            a = H.sample(rng)
            while field.is_zero(H.ev(a)):
                a = H.add(a, H.one())
            prod = H.mul(a, H.invert(a))
            assert H.agree_up_to(prod, H.one(), a.valid), (field.characteristic, k)
    print("criterion 10: PASS - 100 + 100 unit series inverted exactly over Q and F3")


def test_criterion_11_check_reports_are_byte_identical(tmp_path, capsys):
    """The check command with a fixed seed reproduces its report bytes."""
    first_path = tmp_path / "first.jsonl"
    second_path = tmp_path / "second.jsonl"
    args = ["check", "--seed", "0", "--instances", "2"]
    rc1 = cli_main(args + ["--out", str(first_path)])
    rc2 = cli_main(args + ["--out", str(second_path)])
    capsys.readouterr()
    assert rc1 == 0 and rc2 == 0
    first = first_path.read_bytes()
    assert first == second_path.read_bytes()
    assert len(first.decode().strip().split("\n")) == 15
    rc3 = cli_main(args)
    stdout_run, _ = capsys.readouterr()
    assert rc3 == 0
    assert stdout_run.encode() == first
    for line in first.decode().strip().split("\n"):
        assert json.loads(line)["status"] == "pass"
    print("criterion 11: PASS - fixed-seed check reports matched byte for byte")
