"""The checker harness: green on the real code, red under seeded bugs."""

import hashlib
import json

import pytest

import hwtaylor.checks as checks
from hwtaylor.checks import (
    CheckConfig,
    CheckReport,
    Size,
    UnknownCheckError,
    check_names,
    reports_to_jsonl,
    run_check,
    run_suite,
)
from hwtaylor.diffpoly import DiffPolyRing
from hwtaylor.hurwitz import HurwitzRing
from hwtaylor.multiindex import MultiIndex, iter_dominated
from hwtaylor.rings import Poly, PolynomialRing

ALL_CHECKS = (
    "ring-axioms",
    "derivation-axioms",
    "hurwitz-ring-axioms",
    "hurwitz-derivations",
    "char-p-nilpotency",
    "inversion",
    "ev1",
    "ev2",
    "tm1",
    "tm2",
    "twist-composition",
    "twist-inverse",
    "divided-bridge",
    "divided-derivative",
    "morphism-laws",
)

SMALL = CheckConfig(seed=0, instances=5, width_max=2, trunc=4, coeff_degree=2)


class TestRegistry:
    def test_registry_names_and_order(self):
        assert check_names() == ALL_CHECKS

    def test_unknown_check_rejected_by_config(self):
        with pytest.raises(UnknownCheckError, match="unknown check 'nope'"):
            CheckConfig(checks=("nope",))

    def test_unknown_check_rejected_by_run(self):
        with pytest.raises(UnknownCheckError, match="twist-composition"):
            run_check("lemma", SMALL)

    def test_config_bounds(self):
        with pytest.raises(ValueError, match="instances"):
            CheckConfig(instances=0)
        with pytest.raises(ValueError, match="width_max"):
            CheckConfig(width_max=4)
        with pytest.raises(ValueError, match="trunc"):
            CheckConfig(trunc=13)
        with pytest.raises(ValueError, match="trunc"):
            CheckConfig(trunc=0)
        with pytest.raises(ValueError, match="coeff_degree"):
            CheckConfig(coeff_degree=7)

    def test_selection_preserves_requested_order(self):
        cfg = CheckConfig(checks=("tm1", "ev1"), instances=2, trunc=3)
        reports = run_suite(cfg)
        assert [r.check_name for r in reports] == ["tm1", "ev1"]


class TestGreenSuite:
    def test_full_suite_passes(self):
        reports = run_suite(SMALL)
        assert [r.check_name for r in reports] == list(ALL_CHECKS)
        for r in reports:
            assert r.status == "pass", f"{r.check_name}: {r.failures}"
            assert r.instances == SMALL.instances
            assert r.failures == ()

    def test_reports_are_byte_deterministic(self):
        first = reports_to_jsonl(run_suite(SMALL))
        second = reports_to_jsonl(run_suite(SMALL))
        assert first == second
        lines = first.strip().split("\n")
        assert len(lines) == len(ALL_CHECKS)
        for line in lines:
            doc = json.loads(line)
            assert set(doc) == {"check_name", "instances", "status", "failures"}

    def test_different_seeds_change_nothing_about_status(self):
        for seed in (1, 17):
            cfg = CheckConfig(seed=seed, instances=3, trunc=4)
            assert all(r.status == "pass" for r in run_suite(cfg))


def _unweighted_mul(self, a, b):
    """Series product with the binomial weights dropped (a seeded bug)."""
    self._check_pair(a, b)
    K = self.coeff_ring
    table = {}
    for alpha in self.indices:
        acc = K.zero()
        for beta in iter_dominated(alpha):
            acc = K.add(acc, K.mul(a.coeffs[beta], b.coeffs[alpha - beta]))
        table[alpha] = acc
    return self.from_table(table, min(a.valid, b.valid))


class TestMutationsAreCaught:
    def test_unweighted_product_breaks_char_p(self, monkeypatch):
        monkeypatch.setattr(HurwitzRing, "mul", _unweighted_mul)
        report = run_check("char-p-nilpotency", SMALL)
        assert report.status == "fail"
        failure = report.failures[0]
        assert failure.seed == "0/char-p-nilpotency/0"
        assert failure.inputs["law"] == "variable_pth_power_vanishes"
        # the bug survives every reduction, so shrinking bottoms out
        assert failure.size == Size(degree=0, trunc=1, width=1)

    def test_unweighted_product_breaks_shift_leibniz(self, monkeypatch):
        monkeypatch.setattr(HurwitzRing, "mul", _unweighted_mul)
        report = run_check("hurwitz-derivations", SMALL)
        assert report.status == "fail"

    def test_unweighted_product_breaks_morphism_laws(self, monkeypatch):
        monkeypatch.setattr(HurwitzRing, "mul", _unweighted_mul)
        report = run_check("morphism-laws", SMALL)
        assert report.status == "fail"
        assert any(f.inputs["law"] == "multiplicative" for f in report.failures)

    def test_identity_untwist_breaks_inversion_law(self, monkeypatch):
        monkeypatch.setattr(checks, "ev_untwist", lambda a, family: a)
        report = run_check("twist-inverse", SMALL)
        assert report.status == "fail"

    def test_inflated_binomials_break_composition(self, monkeypatch):
        true_binomial = MultiIndex.binomial

        def inflated(self, lower):
            value = true_binomial(self, lower)
            return value + 1 if not lower.is_zero() else value

        monkeypatch.setattr(MultiIndex, "binomial", inflated)
        cfg = CheckConfig(seed=0, instances=8, width_max=2, trunc=4)
        report = run_check("twist-composition", cfg)
        assert report.status == "fail"

    def test_failure_reports_serialize_and_stay_deterministic(self, monkeypatch):
        monkeypatch.setattr(HurwitzRing, "mul", _unweighted_mul)
        cfg = CheckConfig(checks=("char-p-nilpotency",), instances=3, trunc=4)
        first = reports_to_jsonl(run_suite(cfg))
        second = reports_to_jsonl(run_suite(cfg))
        assert first == second
        doc = json.loads(first)
        assert doc["status"] == "fail"
        failure = doc["failures"][0]
        assert set(failure) == {
            "seed",
            "size",
            "inputs",
            "expected",
            "actual",
            "comparison_order",
        }
        assert failure["size"] == {"coeff_degree": 0, "trunc": 1, "width": 1}


def _inflate_binomials(monkeypatch):
    true_binomial = MultiIndex.binomial

    def inflated(self, lower):
        value = true_binomial(self, lower)
        return value + 1 if not lower.is_zero() else value

    monkeypatch.setattr(MultiIndex, "binomial", inflated)


def _shift_slot_zero(monkeypatch):
    true_shift = HurwitzRing.shift_derive

    def shift(self, a, slot):
        return true_shift(self, a, 0 if self.width > 1 else slot)

    monkeypatch.setattr(HurwitzRing, "shift_derive", shift)


def _derive_into_last_variable(monkeypatch):
    def derive(self, a, slot):
        K = self.base.ring
        table = {}

        def accumulate(mon, c):
            table[mon] = K.add(table[mon], c) if mon in table else c

        unit = MultiIndex.unit(self.width, slot)
        last = len(self.variables) - 1
        for mon, c in a.terms:
            dc = self.base.derive(c, slot)
            if not K.is_zero(dc):
                accumulate(mon, dc)
            for sym, power in mon:
                counts = dict(mon)
                counts[sym] -= 1
                shifted = (last, sym[1] + unit)
                counts[shifted] = counts.get(shifted, 0) + 1
                accumulate(
                    self._normalize_monomial(counts), K.mul(c, K.embed_int(power))
                )
        return self._make(table)

    monkeypatch.setattr(DiffPolyRing, "derive", derive)


def _constructors_plus_one(monkeypatch):
    def plus_one(fn):
        return lambda spec, a: spec.target.add(fn(spec, a), spec.target.one())

    monkeypatch.setattr(
        checks,
        "_CONSTRUCTORS",
        tuple((n, plus_one(fn), *flags) for n, fn, *flags in checks._CONSTRUCTORS),
    )


def _drop_last_product_term(monkeypatch):
    """Products of two non-monomials lose their last term (a seeded bug)."""
    true_mul = PolynomialRing.mul

    def mul(self, a, b):
        product = true_mul(self, a, b)
        if len(a.terms) > 1 and len(b.terms) > 1 and product.terms:
            return Poly(product.terms[:-1])
        return product

    monkeypatch.setattr(PolynomialRing, "mul", mul)


SUBSTRATE = ("ring-axioms", "derivation-axioms", "hurwitz-ring-axioms", "hurwitz-derivations")

# (seeded bug, checks run or None for all, failing checks, SHA-256 of the report)
GOLDEN_FAILURES = [
    (
        lambda mp: mp.setattr(HurwitzRing, "mul", HurwitzRing.cauchy_mul),
        None,
        ("hurwitz-derivations", "char-p-nilpotency", "inversion", "morphism-laws"),
        "d321fd32768d21b07eb0bd5c509c63c48f9d7619b79781b5ae42e640eb8f5432",
    ),
    (
        _inflate_binomials,
        None,
        (
            "ring-axioms",
            "hurwitz-ring-axioms",
            "hurwitz-derivations",
            "char-p-nilpotency",
            "ev2",
            "tm1",
            "twist-composition",
            "twist-inverse",
            "morphism-laws",
        ),
        "86318f38e75c2fe5a32f2128832670abe3f180637cc5531f12dbd056c612afd3",
    ),
    (
        _shift_slot_zero,
        None,
        ("ev2", "divided-derivative"),
        "0b7343bfeb3592fbd7acb8000358c8e2b2af02a2d997c08c5b4fc31571194f01",
    ),
    (
        _derive_into_last_variable,
        None,
        ("tm2",),
        "9c534fa7c8b0585d9b8c0f0010c4dc369f732fe46a41485f236afe78b7a7121f",
    ),
    (
        lambda mp: mp.setattr(checks, "twisted_taylor", checks.twisted_hurwitz),
        None,
        ("divided-bridge",),
        "ff81cfde2250ca32bde16e3857534dc2c624fa13fc43a9480d1bfff4755b9591",
    ),
    (
        _constructors_plus_one,
        None,
        ("ev1", "tm1", "morphism-laws"),
        "f2f8db67465b65fbb9b8d5afcb9dc68d6a6d38c36f9700702585cf15a5961e79",
    ),
    (
        lambda mp: mp.setattr(checks, "ev_untwist", lambda a, family: a),
        None,
        ("twist-inverse",),
        "d6b2e80668e2fc648a43e0bee33b76c797691969243248d2896db14ca430fb67",
    ),
    (
        _drop_last_product_term,
        SUBSTRATE,
        ("derivation-axioms", "hurwitz-ring-axioms", "hurwitz-derivations"),
        "42b03b0883a83439345af745e3b22a9b821053bdc0401fc19d0ab2e8152a6a5b",
    ),
]


@pytest.mark.parametrize(
    "bug, names, failing, digest",
    GOLDEN_FAILURES,
    ids=[
        "cauchy-mul",
        "inflated-binomial",
        "shift-slot-zero",
        "derive-into-last-variable",
        "twisted-taylor-is-hurwitz",
        "constructors-plus-one",
        "identity-untwist",
        "polynomial-mul-drops-term",
    ],
)
def test_golden_failure_reports(monkeypatch, bug, names, failing, digest):
    """Failure reports under seeded bugs stay byte for byte the same."""
    bug(monkeypatch)
    cfg = CheckConfig(seed=0, checks=names, instances=4, width_max=2, trunc=4)
    reports = run_suite(cfg)
    jsonl = reports_to_jsonl(reports)
    assert tuple(r.check_name for r in reports if r.status == "fail") == failing, jsonl
    assert hashlib.sha256(jsonl.encode()).hexdigest() == digest, jsonl


def test_raising_instance_is_a_shrunk_failure(monkeypatch):
    def boom(rng, size, ordinal):
        raise RuntimeError(f"boom at trunc {size.trunc}")

    monkeypatch.setitem(checks._CHECKS, "tm1", boom)
    reports = run_suite(CheckConfig(checks=("tm1", "ev2"), instances=2, trunc=3))
    assert [r.status for r in reports] == ["fail", "pass"]
    failure = reports[0].failures[0]
    assert failure.size == Size(degree=0, trunc=1, width=1)
    assert failure.to_json() == {
        "seed": "0/tm1/0",
        "size": {"coeff_degree": 0, "trunc": 1, "width": 1},
        "inputs": None,
        "expected": None,
        "actual": "RuntimeError: boom at trunc 1",
        "comparison_order": None,
    }


class TestReportShape:
    def test_report_to_json_roundtrips_through_dumps(self):
        reports = run_suite(CheckConfig(instances=2, trunc=3))
        for r in reports:
            assert isinstance(r, CheckReport)
            json.dumps(r.to_json(), sort_keys=True)
