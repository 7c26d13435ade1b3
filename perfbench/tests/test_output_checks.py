"""Each output check passes on the library's real outputs and rejects a
deliberately corrupted one."""

from __future__ import annotations

import json
from fractions import Fraction

import pytest
import sympy

import hwtaylor
import hwtaylor.cli  # noqa: F401
import oracles
import run
import workloads


def first_outputs(workload):
    requests = workload.build(hwtaylor, workload.items)
    return [workload.summarise(request()) for request in requests]


# -- series-fp ---------------------------------------------------------------


@pytest.fixture(scope="module")
def series_fp(tmp_path_factory):
    workload = workloads.SeriesFp(0, tmp_path_factory.mktemp("out"))
    workload.items = workload.items[:1]
    return workload, first_outputs(workload)


def corrupt_series(summary, position, alpha=(1, 0, 0), valid=None):
    """Change one coefficient (or the valid order) of one output series."""
    series = list(summary)
    old_valid, coeffs = series[position]
    coeffs = tuple((a, (c + 1) % workloads.FP_P if a == alpha else c) for a, c in coeffs)
    series[position] = (old_valid if valid is None else valid, coeffs)
    return tuple(series)


def test_series_fp_passes(series_fp):
    workload, outputs = series_fp
    assert workload.check(outputs, hwtaylor) == []


@pytest.mark.parametrize(
    "position, message",
    [
        (0, "mul: differs"),
        (1, "cauchy_mul: differs"),
        (2, "invert: a * a^-1 != 1"),
        (3, "shift_derive(0)"),
        (5, "shift_derive(2)"),
        (6, "add: wrong"),
    ],
)
def test_series_fp_rejects_a_wrong_coefficient(series_fp, position, message):
    workload, outputs = series_fp
    errors = workload.check([corrupt_series(outputs[0], position)], hwtaylor)
    assert any(message in e for e in errors), errors


def test_series_fp_rejects_a_wrong_valid_order(series_fp):
    workload, outputs = series_fp
    errors = workload.check([corrupt_series(outputs[0], 3, alpha=None, valid=8)], hwtaylor)
    assert any("shift0: valid 8, expected 7" in e for e in errors), errors


def test_independent_convolution_matches_a_hand_computed_product():
    # (1 + t) * (1 + t) in the Hurwitz product is 1 + 2t + 2t^2 (binom(2,1) = 2)
    a = {(0,): 1, (1,): 1, (2,): 0}
    assert oracles.convolve_mod(a, a, 1, 2, 5, weighted=True) == {(0,): 1, (1,): 2, (2,): 2}
    assert oracles.convolve_mod(a, a, 1, 2, 5, weighted=False) == {(0,): 1, (1,): 2, (2,): 1}


# -- expand-qpoly ------------------------------------------------------------


@pytest.fixture(scope="module")
def expand(tmp_path_factory):
    workload = workloads.ExpandQpoly(0, tmp_path_factory.mktemp("out"))
    workload.docs = workload.docs[:1]
    workload.items = workload.items[: len(workloads.EX_ROTATION)]
    return workload, first_outputs(workload)


def rewrite(summary, change):
    """Apply ``change(index, text)`` to every coefficient of an expand output."""
    rc, text = summary
    doc = json.loads(text)
    doc["coeffs"] = [[idx, change(tuple(idx), c)] for idx, c in doc["coeffs"]]
    return rc, json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"


def _double(text):
    """Twice a polynomial, written in the wire syntax."""
    u, v = sympy.symbols("u v")
    poly = sympy.Poly(sympy.sympify(text.replace("^", "**")), u, v, domain="QQ")
    return workloads._render_poly({m: 2 * Fraction(int(c.p), int(c.q)) for m, c in poly.terms()})


def at(name):
    return workloads.EX_ROTATION.index(name)


def test_expand_passes(expand):
    workload, outputs = expand
    assert workload.check(outputs, hwtaylor) == []


def test_expand_rejects_a_failed_exit(expand):
    workload, outputs = expand
    broken = list(outputs)
    broken[0] = (2, "")
    errors = workload.check(broken, hwtaylor)
    assert any("twisted_hurwitz: exit 2" in e for e in errors), errors


def test_expand_rejects_output_that_does_not_parse_back(expand):
    workload, outputs = expand
    broken = list(outputs)
    broken[at("classical_taylor")] = (0, '{"m": 2}\n')
    errors = workload.check(broken, hwtaylor)
    assert any("classical_taylor: output does not parse back" in e for e in errors), errors


def test_expand_rejects_a_wrong_constant_term(expand):
    workload, outputs = expand
    broken = list(outputs)
    i = at("hurwitz_morphism")
    broken[i] = rewrite(outputs[i], lambda idx, c: _double(c) if not any(idx) else c)
    errors = workload.check(broken, hwtaylor)
    assert any("hurwitz_morphism: constant term is not phi(element)" in e for e in errors), errors


def test_expand_rejects_a_divided_output_that_is_not_the_whole_one_over_factorial(expand):
    workload, outputs = expand
    broken = list(outputs)
    i = at("twisted_taylor")
    broken[i] = rewrite(outputs[i], lambda idx, c: _double(c) if sum(idx) == 2 else c)
    errors = workload.check(broken, hwtaylor)
    assert any("twisted_taylor: coefficient" in e and "twisted_hurwitz/alpha!" in e for e in errors), errors


@pytest.mark.parametrize(
    "pair, message",
    [
        (("twisted_hurwitz", "twisted_taylor"), "twisted_hurwitz: coefficient"),
        (("hurwitz_morphism", "classical_taylor"), "hurwitz_morphism: coefficient"),
    ],
)
def test_expand_rejects_coefficients_that_only_the_double_sum_catches(expand, pair, message):
    # Doubling every non-constant coefficient of both members of a pair keeps
    # the constant term and the divided relation; only the sampled
    # coefficients computed apart from the library can tell.
    workload, outputs = expand
    broken = list(outputs)
    for name in pair:
        i = at(name)
        broken[i] = rewrite(outputs[i], lambda idx, c: _double(c) if any(idx) else c)
    errors = workload.check(broken, hwtaylor)
    assert any(message in e for e in errors), errors
    assert not any("constant term" in e or "alpha!" in e for e in errors), errors


# -- check-suite -------------------------------------------------------------


@pytest.fixture(scope="module")
def suite(tmp_path_factory):
    workload = workloads.CheckSuite(0, tmp_path_factory.mktemp("out"))
    workload.items = workload.items[:1]
    return workload, first_outputs(workload)


def test_check_suite_passes(suite):
    workload, outputs = suite
    assert workload.check(outputs, hwtaylor) == []


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda lines: lines[:-1], "14 report lines"),
        (lambda lines: [lines[0].replace('"status":"pass"', '"status":"fail"')] + lines[1:], "did not pass"),
        (lambda lines: [lines[0].replace('"instances":1', '"instances":2')] + lines[1:], "did not pass"),
        (lambda lines: [lines[1]] + lines[1:], "are not the 15 checks"),
    ],
)
def test_check_suite_rejects_a_corrupted_report(suite, edit, message):
    workload, outputs = suite
    rc, text = outputs[0]
    broken = (rc, "".join(line + "\n" for line in edit(text.splitlines())))
    errors = workload.check([broken], hwtaylor)
    assert any(message in e for e in errors), errors


def test_check_suite_rejects_a_failing_exit(suite):
    workload, outputs = suite
    errors = workload.check([(1, outputs[0][1])], hwtaylor)
    assert any("exit 1" in e for e in errors), errors


# -- repeated rounds ---------------------------------------------------------


def test_a_later_output_must_equal_the_first_rounds(suite):
    workload, outputs = suite
    outcomes = run.Outcomes(workload, list(outputs))
    outcomes.record(0, outputs[0])
    assert outcomes.errors == []
    outcomes.record(0, (0, outputs[0][1] + "extra\n"))
    assert outcomes.errors == ["request 0: output differs from the first round"]
    outcomes.record(0, RuntimeError("boom"))
    assert outcomes.failed == 1 and outcomes.attempted == 3
