"""The three workloads: seeded inputs, one request each, and output checks.

Every workload is a *round*: a fixed list of requests built before any
timing starts.  The runner repeats whole rounds.  Outputs of the
first (untimed) round are checked against computations made apart from the
library; every later output must equal the first round's output for the
same request, byte for byte or value for value.

This module imports neither ``hwtaylor`` nor sympy at import time: the
set-up probe generates inputs first and only then times the import.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from fractions import Fraction
from pathlib import Path
from typing import Any, Callable

import oracles

# ---------------------------------------------------------------------------
# series-fp: one step on two series in HurwitzRing(PrimeField(5), 3, 8)

FP_P, FP_WIDTH, FP_TRUNC = 5, 3, 8
FP_PAIRS = 16


class SeriesFp:
    """mul, cauchy_mul, invert, shift_derive in each slot, add."""

    name = "series-fp"

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        box = oracles.box(FP_WIDTH, FP_TRUNC)
        self.items = []
        for i in range(FP_PAIRS):
            rng = random.Random(f"series-fp/{seed}/{i}")
            a = {alpha: rng.randrange(FP_P) for alpha in box}
            b = {alpha: rng.randrange(FP_P) for alpha in box}
            a[(0,) * FP_WIDTH] = rng.randrange(1, FP_P)  # a unit, so invert applies
            self.items.append((a, b))

    def build(self, hw, items) -> list[Callable[[], Any]]:
        H = hw.HurwitzRing(hw.PrimeField(FP_P), FP_WIDTH, FP_TRUNC)

        def series(table):
            return H.from_table({hw.MultiIndex(alpha): c for alpha, c in table.items()})

        def request(a, b):
            return (
                H.mul(a, b),
                H.cauchy_mul(a, b),
                H.invert(a),
                *(H.shift_derive(a, slot) for slot in range(FP_WIDTH)),
                H.add(a, b),
            )

        return [
            (lambda a=series(a), b=series(b): request(a, b)) for a, b in items
        ]

    @staticmethod
    def summarise(out) -> tuple:
        return tuple(
            (s.valid, tuple((alpha.entries, c) for alpha, c in s.coeffs.items()))
            for s in out
        )

    @staticmethod
    def failed(summary) -> bool:
        return False

    def check(self, summaries: list, hw) -> list[str]:
        errors: list[str] = []
        for i, ((a, b), summary) in enumerate(zip(self.items, summaries)):
            got = [(valid, dict(coeffs)) for valid, coeffs in summary]
            if len(got) != 4 + FP_WIDTH:
                errors.append(f"series-fp[{i}]: expected {4 + FP_WIDTH} series")
                continue
            mul, cauchy, inv, *shifts, total = got
            want_box = set(a)
            for label, (valid, table) in zip(
                ("mul", "cauchy_mul", "invert", *(f"shift{s}" for s in range(FP_WIDTH)), "add"), got
            ):
                if set(table) != want_box:
                    errors.append(f"series-fp[{i}] {label}: table does not span the box")
                    return errors
                want_valid = FP_TRUNC - 1 if label.startswith("shift") else FP_TRUNC
                if valid != want_valid:
                    errors.append(f"series-fp[{i}] {label}: valid {valid}, expected {want_valid}")
            mul, cauchy, inv, total = mul[1], cauchy[1], inv[1], total[1]
            args = (FP_WIDTH, FP_TRUNC, FP_P)
            if mul != oracles.convolve_mod(a, b, *args, weighted=True):
                errors.append(f"series-fp[{i}] mul: differs from the binomial convolution")
            if cauchy != oracles.convolve_mod(a, b, *args, weighted=False):
                errors.append(f"series-fp[{i}] cauchy_mul: differs from the plain convolution")
            if oracles.convolve_mod(a, inv, *args, weighted=True) != oracles.one_mod(FP_WIDTH, FP_TRUNC):
                errors.append(f"series-fp[{i}] invert: a * a^-1 != 1 on the full box")
            for slot, (_, table) in enumerate(shifts):
                if table != oracles.shift_mod(a, FP_WIDTH, FP_TRUNC, slot):
                    errors.append(f"series-fp[{i}] shift_derive({slot}): wrong coefficients")
            if total != {alpha: (a[alpha] + b[alpha]) % FP_P for alpha in a}:
                errors.append(f"series-fp[{i}] add: wrong coefficients")
        return errors


# ---------------------------------------------------------------------------
# expand-qpoly: hwtaylor expand over Q[u, v], m = 2, diffpoly source on x, y

EX_TRUNC = 5
EX_DOCS = 6
EX_SAMPLES = 3
# Fixed rotation on each document; the twisted pair carries the family.
EX_ROTATION = ("twisted_hurwitz", "twisted_taylor", "hurwitz_morphism", "classical_taylor")
EX_FAMILY = [{"u": "1"}, {"v": "v"}]  # d/du, v*d/dv
# c1*x*y + c2*u*x^2 + c3*v*y: (variable, power) pairs, and the coefficient's
# monomial in u, v
EX_ELEMENT_SHAPE = (
    (((0, 1), (1, 1)), (0, 0)),
    (((0, 2),), (1, 0)),
    (((1, 1),), (0, 1)),
)


def _render_poly(terms: dict[tuple[int, int], Fraction]) -> str:
    """Element string in the wire syntax, e.g. ``2*u^2*v - 1/3*u + 4``."""
    parts: list[str] = []
    for (i, j), c in sorted(terms.items(), reverse=True):
        factors = [f"u^{i}" if i > 1 else "u"] if i else []
        factors += [f"v^{j}" if j > 1 else "v"] if j else []
        mag = abs(c)
        body = "*".join(([str(mag)] if mag != 1 or not factors else []) + factors)
        if not parts:
            parts.append(f"-{body}" if c < 0 else body)
        else:
            parts.append(f"- {body}" if c < 0 else f"+ {body}")
    return " ".join(parts) if parts else "0"


def _random_rational(rng: random.Random) -> Fraction:
    return Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(1, 3))


def _cli_call(cli, argv: list[str]) -> tuple[int, str]:
    """Run ``hwtaylor.cli.main`` in process; exit code and captured stdout."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    return rc, out.getvalue()


class _CliWorkload:
    """A request is one CLI call; its output is (exit code, stdout)."""

    @staticmethod
    def summarise(out) -> tuple:
        return out

    @staticmethod
    def failed(summary) -> bool:
        return summary[0] != 0


class ExpandQpoly(_CliWorkload):
    """One ``hwtaylor expand`` of a seeded problem document, in process."""

    name = "expand-qpoly"

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.docs = [self._document(random.Random(f"expand-qpoly/{seed}/{d}")) for d in range(EX_DOCS)]
        specdir = workdir / "specs"
        specdir.mkdir(parents=True, exist_ok=True)
        self.items = []  # (doc index, constructor, spec path)
        for d, doc in enumerate(self.docs):
            for name in EX_ROTATION:
                path = specdir / f"expand-qpoly-{seed}-{d}-{name}.json"
                path.write_text(json.dumps(self._problem(doc, name)), encoding="utf-8")
                self.items.append((d, name, str(path)))

    @staticmethod
    def _document(rng: random.Random) -> dict:
        """Seeded values on a fixed shape, so that every document costs about
        the same: EX_ELEMENT_SHAPE with random symbol orders of degree <= 1
        and random rational coefficients, and a value table whose entries
        each have three terms of degree <= 2 in u, v."""
        orders = [(0, 0), (1, 0), (0, 1)]
        element = []
        for powers, coeff_monomial in EX_ELEMENT_SHAPE:
            mon = tuple(sorted(((var, rng.choice(orders)), p) for var, p in powers))
            element.append((mon, {coeff_monomial: _random_rational(rng)}))
        monomials = [(i, j) for i in range(3) for j in range(3 - i)]
        values = {
            (var, alpha): {m: _random_rational(rng) for m in rng.sample(monomials, 3)}
            for var in range(2)
            for alpha in oracles.box(2, EX_TRUNC + 1)
        }
        return {"element": element, "values": values}

    @staticmethod
    def _problem(doc: dict, constructor: str) -> dict:
        ring: dict = {"kind": "poly", "generators": ["u", "v"]}
        if constructor.startswith("twisted"):
            ring["derivations"] = EX_FAMILY
        return {
            "ring": ring,
            "m": 2,
            "trunc": EX_TRUNC,
            "source": {"kind": "diffpoly", "vars": ["x", "y"]},
            "phi": {
                "values": [
                    [var, list(alpha), _render_poly(p)]
                    for (var, alpha), p in sorted(doc["values"].items())
                ]
            },
            "morphism": constructor,
            "element": [
                {
                    "coeff": _render_poly(coeff),
                    "monomial": [[var, list(order), power] for (var, order), power in mon],
                }
                for mon, coeff in doc["element"]
            ],
        }

    def build(self, hw, items) -> list[Callable[[], Any]]:
        return [
            (lambda path=path: _cli_call(hw.cli, ["expand", "--spec", path]))
            for _, _, path in items
        ]

    def check(self, summaries: list, hw) -> list[str]:
        import sympy

        u, v = sympy.symbols("u v")

        def poly(expr) -> sympy.Poly:
            return sympy.Poly(expr, u, v, domain="QQ")

        def from_terms(terms) -> sympy.Poly:
            return poly(sum(sympy.Rational(c.numerator, c.denominator) * u**i * v**j
                            for (i, j), c in terms.items()))

        def from_text(text: str) -> sympy.Poly:
            return poly(sympy.sympify(text.replace("^", "**"), locals={"u": u, "v": v}))

        zero = poly(0)
        ops = oracles.Ops(
            zero=zero,
            add=lambda a, b: a + b,
            mul=lambda a, b: a * b,
            neg=lambda a: -a,
            embed=lambda n: poly(n),
        )
        delta = (lambda p: p.diff(u), lambda p: poly(v) * p.diff(v))
        no_delta = (lambda p: zero, lambda p: zero)
        box = oracles.box(2, EX_TRUNC)
        errors: list[str] = []
        outputs: dict[tuple[int, str], dict] = {}
        for (d, name, _), (rc, text) in zip(self.items, summaries):
            where = f"expand-qpoly[{d}] {name}"
            if rc != 0:
                errors.append(f"{where}: exit {rc}")
                continue
            try:
                doc = json.loads(text)
                hw.series_from_json(doc)
            except ValueError as exc:
                errors.append(f"{where}: output does not parse back: {exc}")
                continue
            if (doc["m"], doc["trunc"], doc["valid"]) != (2, EX_TRUNC, EX_TRUNC):
                errors.append(f"{where}: wrong m/trunc/valid {doc['m']}/{doc['trunc']}/{doc['valid']}")
            table = {tuple(idx): from_text(c) for idx, c in doc["coeffs"]}
            outputs[(d, name)] = {alpha: table.get(alpha, zero) for alpha in box}

        for d, doc in enumerate(self.docs):
            values = {sym: from_terms(p) for sym, p in doc["values"].items()}
            element = {mon: from_terms(c) for mon, c in doc["element"]}

            def phi(a, values=values):
                return oracles.diffpoly_value(a, values, ops, lambda p, k: p**k)

            def family(coeff_family):
                return [
                    (lambda a, s=s: oracles.diffpoly_derive(a, s, coeff_family[s], ops, lambda p: p.is_zero))
                    for s in range(2)
                ]

            constant = phi(element)
            got = {name: outputs.get((d, name)) for name in EX_ROTATION}
            for name, table in got.items():
                if table is not None and table[(0, 0)] != constant:
                    errors.append(f"expand-qpoly[{d}] {name}: constant term is not phi(element)")
            for divided, whole in (("twisted_taylor", "twisted_hurwitz"), ("classical_taylor", "hurwitz_morphism")):
                if got[divided] is None or got[whole] is None:
                    continue
                for alpha in box:
                    if got[divided][alpha] * oracles.factorial(alpha) != got[whole][alpha]:
                        errors.append(f"expand-qpoly[{d}] {divided}: coefficient {alpha} is not {whole}/alpha!")
                        break
            rng = random.Random(f"expand-qpoly/{self.seed}/{d}/sample")
            sample = rng.sample(box, EX_SAMPLES)
            for alpha in sample:
                if got["twisted_hurwitz"] is not None:
                    want = oracles.twisted_coeff(element, alpha, family(delta), delta, phi, ops)
                    if got["twisted_hurwitz"][alpha] != want:
                        errors.append(f"expand-qpoly[{d}] twisted_hurwitz: coefficient {alpha} differs from the double sum")
                if got["hurwitz_morphism"] is not None:
                    want = oracles.hurwitz_coeff(element, alpha, family(no_delta), phi)
                    if got["hurwitz_morphism"][alpha] != want:
                        errors.append(f"expand-qpoly[{d}] hurwitz_morphism: coefficient {alpha} is not phi(d^alpha a)")
        return errors


# ---------------------------------------------------------------------------
# check-suite: hwtaylor check --seed k --instances 1 over every check

CS_ROUND = 16
CS_CHECKS = frozenset({
    "ring-axioms", "derivation-axioms", "hurwitz-ring-axioms", "hurwitz-derivations",
    "char-p-nilpotency", "inversion", "ev1", "ev2", "tm1", "tm2", "twist-composition",
    "twist-inverse", "divided-bridge", "divided-derivative", "morphism-laws",
})


class CheckSuite(_CliWorkload):
    """The users' verification path.

    The check seeds are the request ordinals 0 .. CS_ROUND - 1, the same for
    every workload seed: one request costs 0.06 s to 1 s depending on its
    check seed, so rounds drawn from the workload seed would differ in work
    by 20% and hide any change smaller than that.
    """

    name = "check-suite"

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.items = list(range(CS_ROUND))

    def build(self, hw, items) -> list[Callable[[], Any]]:
        return [
            (lambda k=k: _cli_call(hw.cli, ["check", "--seed", str(k), "--instances", "1"]))
            for k in items
        ]

    def check(self, summaries: list, hw) -> list[str]:
        errors: list[str] = []
        for k, (rc, text) in zip(self.items, summaries):
            where = f"check-suite[seed {k}]"
            if rc != 0:
                errors.append(f"{where}: exit {rc}")
            lines = text.splitlines()
            if len(lines) != len(CS_CHECKS):
                errors.append(f"{where}: {len(lines)} report lines, expected {len(CS_CHECKS)}")
                continue
            names = set()
            for line in lines:
                report = json.loads(line)
                names.add(report.get("check_name"))
                if (report.get("status"), report.get("instances"), report.get("failures")) != ("pass", 1, []):
                    errors.append(f"{where}: {report.get('check_name')} did not pass with 1 instance")
            if names != CS_CHECKS:
                errors.append(f"{where}: report names {sorted(map(str, names))} are not the 15 checks")
        return errors


WORKLOADS = {w.name: w for w in (SeriesFp, ExpandQpoly, CheckSuite)}
