"""The checker harness: green on the real code, red under seeded bugs."""

import hashlib
import json
from collections import Counter

import pytest

import hwtaylor.checks as checks
import hwtaylor.hurwitz as hurwitz
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
from hwtaylor.multiindex import iter_dominated
from hwtaylor.rings import PolynomialRing, PrimeField, RationalField, Ring

from oracles import grlex_key

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

    def test_empty_check_list_rejected(self):
        with pytest.raises(ValueError, match="^checks: must name at least one check$"):
            CheckConfig(checks=())
        with pytest.raises(ValueError, match="^config.checks: must name at least one check$"):
            CheckConfig.from_json({"checks": []})

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

    def test_config_bounds_are_the_wire_bounds(self):
        for kwargs in ({"seed": 2**64}, {"instances": True}, {"instances": 10001}):
            with pytest.raises(ValueError, match=next(iter(kwargs))):
                CheckConfig(**kwargs)

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

    def test_default_report_is_pinned(self):
        """``check --seed 0 --instances 20``, the report CI pins by sha256."""
        jsonl = reports_to_jsonl(run_suite(CheckConfig(seed=0, instances=20)))
        assert hashlib.sha256(jsonl.encode()).hexdigest() == (
            "678cc69c95596244d9410ce29d381ea96d29eaa7b20e7a1415ab04ce7862a31d"
        )

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

    def test_lossy_product_fails_ev1_by_a_ring_map_law_of_phi(self, monkeypatch):
        # ev1 states once that the value map is a ring map, on its own draws
        _drop_last_product_term(monkeypatch)
        report = run_check("ev1", CheckConfig(seed=0, instances=4, width_max=2, trunc=4))
        assert report.status == "fail" and report.failures
        for failure in report.failures:
            assert failure.inputs is not None
            assert failure.inputs["law"] in ("phi_additive", "phi_multiplicative")
            assert len(failure.inputs["arguments"]) == 2 and failure.inputs["source"]["values"]

    def test_identity_untwist_breaks_inversion_law(self, monkeypatch):
        monkeypatch.setattr(checks, "ev_untwist", lambda a, family: a)
        report = run_check("twist-inverse", SMALL)
        assert report.status == "fail"

    def test_inflated_binomials_break_composition(self, monkeypatch):
        _inflate_binomials(monkeypatch)
        cfg = CheckConfig(seed=0, instances=8, width_max=2, trunc=4)
        report = run_check("twist-composition", cfg)
        assert report.status == "fail"

    def test_binomial_swaps_never_reuse_a_stale_plan(self, monkeypatch):
        # a plan fixes its binomials once, when built, and is kept per shape;
        # a seeded bug starts from an empty plan memo and leaves the old one
        # in place when undone, so neither set of weights outlives its swap
        cfg = CheckConfig(seed=0, instances=8, width_max=2, trunc=4)
        statuses = [run_check("twist-composition", cfg).status]
        with monkeypatch.context() as patch:
            _inflate_binomials(patch)
            statuses.append(run_check("twist-composition", cfg).status)
        statuses.append(run_check("twist-composition", cfg).status)
        assert statuses == ["pass", "fail", "pass"]

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
    true_init = hurwitz.Plan.__init__

    def inflated(self, width, trunc):
        true_init(self, width, trunc)
        # every weight gains 1 except the one of beta = 0, at position 0
        self.rows = tuple(
            (left, right, tuple(w + 1 if q else w for q, w in zip(left, weights)))
            for left, right, weights in self.rows
        )

    monkeypatch.setattr(hurwitz.Plan, "__init__", inflated)
    # plans are memoised per shape with the weights fixed at build time
    monkeypatch.setattr(hurwitz, "_PLANS", {})


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

        last = len(self.variables) - 1
        codec = a.codec
        for mon, c in a.id_terms:
            dc = self.base.derive(c, slot)
            if not K.is_zero(dc):
                accumulate(mon, dc)
            for i, power in mon:
                counts = dict(mon)
                counts[i] -= 1
                order = codec.decode(i)[1].entries
                shifted = codec.encode(last, tuple(e + (j == slot) for j, e in enumerate(order)))
                counts[shifted] = counts.get(shifted, 0) + 1
                monomial = tuple(sorted((j, p) for j, p in counts.items() if p))
                accumulate(monomial, K.mul(c, K.embed_int(power)))
        return self._make(table.items())

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
    """Products of two non-monomials lose their graded-lex-largest term (a seeded bug).

    Series products reach the polynomial kernel through ``dot``, so it falls
    back to the generic per-pair form, one seeded ``mul`` per pair and one
    ``combine`` per row.
    """
    true_mul = PolynomialRing.mul

    def mul(self, a, b):
        product = true_mul(self, a, b)
        if len(a.terms) > 1 and len(b.terms) > 1 and product.terms:
            largest = max(product.terms, key=lambda t: grlex_key(t[0]))
            return self.sub(product, self.monomial(*largest))
        return product

    monkeypatch.setattr(PolynomialRing, "mul", mul)
    monkeypatch.setattr(PolynomialRing, "dot", Ring.dot)


SUBSTRATE = ("ring-axioms", "derivation-axioms", "hurwitz-ring-axioms", "hurwitz-derivations")

# (seeded bug, checks run or None for all, failing checks, SHA-256 of the report)
GOLDEN_FAILURES = [
    (
        lambda mp: mp.setattr(HurwitzRing, "mul", HurwitzRing.cauchy_mul),
        None,
        ("hurwitz-derivations", "char-p-nilpotency", "inversion", "tm2", "morphism-laws"),
        "b4c3328cd076f31ea903180d87abea4a44a7cb6f8e53b995809c9e0ac47225f7",
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
            "tm2",
            "twist-composition",
            "twist-inverse",
            "morphism-laws",
        ),
        "6b18ae9b10128da16d8bd33f0c827555272d123f7e6b24176789263b65395335",
    ),
    (
        _shift_slot_zero,
        None,
        ("ev2", "divided-derivative"),
        "b5464b884a05b1891dacf918aadcc03662be1cc165af8322ef01b9a09c246fd8",
    ),
    (
        _derive_into_last_variable,
        None,
        ("tm1", "tm2"),
        "a5d068ad36cdb70083e929e4033ba17735d14393d43d4353d9c23fef80f35287",
    ),
    (
        lambda mp: mp.setattr(checks, "twisted_taylor", checks.twisted_hurwitz),
        None,
        ("divided-bridge",),
        "419cc8b56861b1e40f9a0eb0729dd5f37b4fc15aa255a11637f796866d01c37b",
    ),
    (
        _constructors_plus_one,
        None,
        ("ev1", "tm1", "morphism-laws"),
        "9629f1c27fb5003fcb13028981e7e2dcf2d127b4d9eb0190135cf93fa0ce0005",
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
        ("ring-axioms", "derivation-axioms", "hurwitz-ring-axioms", "hurwitz-derivations"),
        "47139004dd0930225568583c9f56dc6ba1733028b77db4540c5a05b6b7bafe07",
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


class TestInputsAreRenderedOnFailure:
    """A check keeps its instance's raw values and renders them only for a
    failing law, so a passing instance pays for no JSON."""

    @pytest.fixture
    def renders(self, monkeypatch):
        calls = Counter()

        def count(owner, name, key):
            true = getattr(owner, name)

            def counting(*args, **kwargs):
                calls[key] += 1
                return true(*args, **kwargs)

            monkeypatch.setattr(owner, name, counting)

        # ``checks`` calls its own import; ``HurwitzRing.render`` the module's
        count(checks, "series_to_json", "series_to_json")
        count(hurwitz, "series_to_json", "series_to_json")
        count(DiffPolyRing, "values_to_json", "values_to_json")
        count(DiffPolyRing, "element_to_json", "element_to_json")
        for ring in (PolynomialRing, RationalField, PrimeField):
            count(ring, "render", f"{ring.__name__}.render")
        return calls

    def test_passing_instances_render_nothing(self, renders):
        reports = run_suite(CheckConfig(seed=0, instances=2))
        assert all(r.status == "pass" for r in reports)
        assert sum(renders.values()) == 0, renders

    def test_failing_instances_render_their_inputs(self, monkeypatch, renders):
        bug, names, failing, digest = GOLDEN_FAILURES[0]  # cauchy-mul
        bug(monkeypatch)
        reports = run_suite(CheckConfig(seed=0, checks=names, instances=4, width_max=2, trunc=4))
        assert tuple(r.check_name for r in reports if r.status == "fail") == failing
        failures = [f for r in reports for f in r.failures]
        # every failing law names itself in its inputs, next to the instance
        assert failures and all({"law", "constructor"} & set(f.inputs) for f in failures)
        assert renders["series_to_json"] and renders["values_to_json"], renders
        jsonl = reports_to_jsonl(reports)
        assert hashlib.sha256(jsonl.encode()).hexdigest() == digest


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
