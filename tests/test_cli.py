"""The command-line front end: exit codes, JSON purity, determinism."""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import hwtaylor
from hwtaylor import checks, cli, taylor
from hwtaylor.cli import main
from hwtaylor.diffpoly import DiffPolyRing
from hwtaylor.hurwitz import HurwitzRing
from hwtaylor.rings import MAX_DIGITS

LINEAR_DOC = {
    "ring": {"kind": "poly", "generators": ["u"], "derivations": [{"u": "1"}]},
    "m": 1,
    "trunc": 8,
    "source": {"kind": "self"},
    "phi": "identity",
    "morphism": "twisted_hurwitz",
    "element": "u",
}

LINEAR_EXPECTED = (
    '{"coeffs":[[[0],"u"],[[1],"-1"]],"m":1,'
    '"ring":{"generators":["u"],"kind":"poly"},"trunc":8,"valid":8}\n'
)


def diffpoly_element(monomial):
    """Mutation: a one-variable diffpoly source whose element is one monomial."""

    def mutate(doc):
        doc["source"] = {"kind": "diffpoly", "vars": ["x"]}
        doc["phi"] = {"values": [[0, [0], "u"]]}
        doc["element"] = [{"coeff": "1", "monomial": [monomial]}]

    return mutate


def value_row(row):
    """Mutation: a one-variable diffpoly source whose value table is one row."""

    def mutate(doc):
        diffpoly_element([0, [0], 1])(doc)
        doc["phi"] = {"values": [row]}

    return mutate


def non_commuting_family(doc):
    """Mutation: d0(u) = v and d1(v) = 1 over Q[u, v], so d1 d0 u = 1 but d0 d1 u = 0."""
    doc["ring"] = {
        "kind": "poly",
        "generators": ["u", "v"],
        "derivations": [{"u": "v"}, {"v": "1"}],
    }
    doc["m"] = 2


@contextlib.contextmanager
def int_str_limit(limit):
    """Run with the interpreter's int/str digit limit at ``limit`` (None: as it is)."""
    setter = getattr(sys, "set_int_max_str_digits", None)
    if limit is None or setter is None:
        yield
        return
    before = sys.get_int_max_str_digits()
    setter(limit)
    try:
        yield
    finally:
        setter(before)


def write_spec(tmp_path, doc, name="problem.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


class TestExpand:
    def test_linear_golden_to_stdout(self, tmp_path, capsys):
        rc = main(["expand", "--spec", write_spec(tmp_path, LINEAR_DOC)])
        out, err = capsys.readouterr()
        assert rc == 0
        assert out == LINEAR_EXPECTED
        assert err == ""

    def test_out_file_keeps_stdout_empty(self, tmp_path, capsys):
        target = tmp_path / "series.json"
        rc = main(
            [
                "expand",
                "--spec",
                write_spec(tmp_path, LINEAR_DOC),
                "--out",
                str(target),
            ]
        )
        out, _ = capsys.readouterr()
        assert rc == 0
        assert out == ""
        assert target.read_text() == LINEAR_EXPECTED

    def test_trunc_override(self, tmp_path, capsys):
        rc = main(
            ["expand", "--spec", write_spec(tmp_path, LINEAR_DOC), "--trunc-override", "3"]
        )
        out, _ = capsys.readouterr()
        assert rc == 0
        doc = json.loads(out)
        assert doc["trunc"] == 3 and doc["valid"] == 3
        assert doc["coeffs"] == [[[0], "u"], [[1], "-1"]]

    def test_diffpoly_exponential(self, tmp_path, capsys):
        doc = {
            "ring": {"kind": "Q"},
            "m": 1,
            "trunc": 4,
            "source": {"kind": "diffpoly", "vars": ["x"]},
            "phi": {"values": [[0, [n], "1"] for n in range(5)]},
            "morphism": "classical_taylor",
            "element": [{"coeff": "1", "monomial": [[0, [0], 1]]}],
        }
        rc = main(["expand", "--spec", write_spec(tmp_path, doc)])
        out, _ = capsys.readouterr()
        assert rc == 0
        assert json.loads(out)["coeffs"] == [
            [[0], "1"],
            [[1], "1"],
            [[2], "1/2"],
            [[3], "1/6"],
            [[4], "1/24"],
        ]

    @pytest.mark.parametrize(
        "mutate, path_fragment",
        [
            (lambda d: d.pop("morphism"), "problem.morphism"),
            (lambda d: d.__setitem__("ring", {"kind": "nope"}), "problem.ring.kind"),
            (lambda d: d.__setitem__("extra", 1), "problem.extra"),
            (lambda d: d.__setitem__("m", 0), "problem.m"),
            (lambda d: d.__setitem__("trunc", 13), "problem.trunc"),
            (lambda d: d.__setitem__("element", "notagen"), "problem.element"),
            (
                lambda d: d.__setitem__("source", {"kind": "orbit"}),
                "problem.source.kind",
            ),
            (
                lambda d: d["ring"].__setitem__("derivations", [{"w": "1"}]),
                "problem.ring.derivations[0].w",
            ),
            (
                lambda d: d["ring"].__setitem__("base", {"kind": "poly", "generators": ["w"]}),
                "problem.ring.base",
            ),
            (lambda d: d.__setitem__("element", "u^65"), "problem.element: exponent 65"),
            (
                lambda d: d["ring"].__setitem__("derivations", [{"u": "u^100000"}]),
                "problem.ring.derivations[0].u: exponent 100000",
            ),
            (
                diffpoly_element([0, [0], 65]),
                "problem.element[0].monomial[0][2] power: must be between 1 and 64",
            ),
            (
                diffpoly_element([0, [65], 1]),
                "problem.element[0].monomial[0][1] order: must be between 0 and 64",
            ),
            (
                diffpoly_element([True, [True], True]),
                "problem.element[0].monomial[0][0] variable index: expected an integer",
            ),
            (
                diffpoly_element([0, [True], 1]),
                "problem.element[0].monomial[0][1] order: expected an integer",
            ),
            (
                diffpoly_element([0, [0], True]),
                "problem.element[0].monomial[0][2] power: expected an integer",
            ),
            (lambda d: d.__setitem__("m", True), "problem.m: expected an integer"),
            # a present field is read, even when it is null
            (
                lambda d: d["ring"].__setitem__("derivations", None),
                "error: problem.ring.derivations: expected a list of m objects",
            ),
            (
                non_commuting_family,
                "error: problem.ring.derivations: derivations 0 and 1 do not commute"
                " on generator 'u'",
            ),
            # each path is printed once
            (lambda d: d.__setitem__("element", 5), "error: problem.element: expected a string"),
            (lambda d: d.pop("element"), "error: problem.element: missing"),
            (
                value_row([0, [0], 7]),
                "error: problem.phi.values[0][2]: expected a string",
            ),
            (
                lambda d: (
                    diffpoly_element([0, [0], 1])(d),
                    d["source"].__setitem__("vars", ["x", "x"]),
                ),
                "error: problem.source.vars: duplicate indeterminate names: ('x', 'x')",
            ),
            # term-count caps
            (
                lambda d: d.__setitem__("element", " + ".join(["u"] * 10001)),
                "error: problem.element: more than 10000 terms",
            ),
            (
                lambda d: (
                    diffpoly_element([0, [0], 1])(d),
                    d.__setitem__("element", [{"coeff": "1", "monomial": []}] * 10001),
                ),
                "error: problem.element: more than 10000 terms",
            ),
            (
                lambda d: (
                    diffpoly_element([0, [0], 1])(d),
                    d["phi"].__setitem__("values", [[0, [0], "u"]] * 10001),
                ),
                "error: problem.phi.values: more than 10000 rows",
            ),
            # shapes that only one branch of the reader checks
            (
                lambda d: d.__setitem__("ring", {"kind": "Q", "derivations": [{}]}),
                "error: problem.ring.derivations: only polynomial rings carry derivation tables",
            ),
            (
                lambda d: d["source"].__setitem__("derivations", "all"),
                'error: problem.source.derivations: expected "zero" or "ring"',
            ),
            (
                lambda d: (
                    diffpoly_element([0, [0], 1])(d),
                    d["phi"].__setitem__("default_zero", 1),
                ),
                "error: problem.phi.default_zero: expected a boolean",
            ),
            (
                lambda d: (
                    diffpoly_element([0, [0], 1])(d),
                    d["element"][0].__setitem__("monomial", {}),
                ),
                "error: problem.element[0].monomial: expected a list",
            ),
            (
                diffpoly_element([0, [0]]),
                "error: problem.element[0].monomial[0]: expected [var, order, power]",
            ),
        ],
    )
    def test_validation_errors_name_paths(self, tmp_path, capsys, mutate, path_fragment):
        doc = json.loads(json.dumps(LINEAR_DOC))
        mutate(doc)
        rc = main(["expand", "--spec", write_spec(tmp_path, doc)])
        out, err = capsys.readouterr()
        assert rc == 2
        assert out == ""
        assert path_fragment in err

    def test_long_element_error_is_one_short_line(self, tmp_path, capsys):
        # one bad term after 9999 good ones: the error gives the offset and an
        # excerpt, not the 100 KB string
        doc = dict(LINEAR_DOC, element=" + ".join(["3/7*u^2"] * 9999) + " + w")
        rc = main(["expand", "--spec", write_spec(tmp_path, doc)])
        out, err = capsys.readouterr()
        assert rc == 2
        assert out == ""
        assert err.count("\n") == 1 and len(err.encode()) < 300, err[:300]
        assert err.startswith("error: problem.element: unknown generator 'w' at offset 99990 ")

    @pytest.mark.parametrize("limit", [None, 0, 4300, 100000])
    def test_over_long_literal_is_a_validation_error(self, tmp_path, capsys, limit):
        # a literal of more than MAX_DIGITS digits is refused before it is
        # converted, with the same text whatever the interpreter's own limit
        doc = dict(LINEAR_DOC, element="u + " + "9" * (MAX_DIGITS + 1) + "*u")
        with int_str_limit(limit):
            rc = main(["expand", "--spec", write_spec(tmp_path, doc)])
        out, err = capsys.readouterr()
        assert rc == 2
        assert out == ""
        assert err == (
            "error: problem.element: literal of more than 4300 digits"
            " at offset 4 near 'u + 99999999999999999999'\n"
        )

    @pytest.mark.parametrize("limit", [None, 0, 4300, 100000])
    def test_result_coefficient_past_the_digit_bound_is_out_of_domain(
        self, tmp_path, capsys, limit
    ):
        # x = (10^3000 - 1) * u, so x^2 has a coefficient of 6000 digits: the
        # expansion is out of domain and nothing reaches stdout
        doc = dict(
            LINEAR_DOC,
            ring={"kind": "poly", "generators": ["u"]},
            trunc=1,
            source={"kind": "diffpoly", "vars": ["x"]},
            phi={"values": [[0, [0], "9" * 3000 + "*u"], [0, [1], "1"]]},
            morphism="hurwitz_morphism",
            element=[{"coeff": "1", "monomial": [[0, [0], 2]]}],
        )
        with int_str_limit(limit):
            rc = main(["expand", "--spec", write_spec(tmp_path, doc)])
        out, err = capsys.readouterr()
        assert rc == 3
        assert out == ""
        assert err == "error: out of domain: coefficient of more than 4300 digits\n"
        # a coefficient of exactly MAX_DIGITS digits is written
        doc["phi"]["values"][0][2] = "9" * (MAX_DIGITS // 2) + "*u"
        assert main(["expand", "--spec", write_spec(tmp_path, doc)]) == 0
        out, _ = capsys.readouterr()
        assert str(10**MAX_DIGITS - 2 * 10 ** (MAX_DIGITS // 2) + 1) in out

    def test_construction_table(self, tmp_path, capsys):
        from test_acceptance import CONSTRUCTORS

        flags = {name: tuple(rest) for name, _, *rest in CONSTRUCTORS}
        assert {name: tuple(rest) for name, _, *rest in taylor.CONSTRUCTIONS} == flags
        assert set(cli._CONSTRUCTORS) == set(flags)
        rc = main(["expand", "--spec", write_spec(tmp_path, dict(LINEAR_DOC, morphism="nope"))])
        _, err = capsys.readouterr()
        assert rc == 2
        assert "problem.morphism: unknown construction 'nope'" in err
        assert all(name in err.split("known: ")[1] for name in flags)

    def test_identity_phi_required_for_self_source(self, tmp_path, capsys):
        doc = dict(LINEAR_DOC, phi={"values": []})
        rc = main(["expand", "--spec", write_spec(tmp_path, doc)])
        _, err = capsys.readouterr()
        assert rc == 2
        assert "problem.phi" in err

    def test_missing_file_is_validation_error(self, tmp_path, capsys):
        spec = write_spec(tmp_path, LINEAR_DOC)
        cases = [
            (["--spec", "/nonexistent/problem.json"], "cannot read /nonexistent/problem.json"),
            (["--spec", spec, "--out", "/nonexistent/x.json"], "cannot write /nonexistent/x.json"),
        ]
        for flags, message in cases:
            rc = main(["expand", *flags])
            out, err = capsys.readouterr()
            assert rc == 2, flags
            assert out == ""
            assert err.startswith(f"error: {message}: "), err

    def test_unparseable_json_is_validation_error(self, tmp_path, capsys):
        cases = [
            (b"{not json", "not valid JSON"),
            (b'\xff\xfe{"m": 1}', "not UTF-8"),
            (b"[" * 100000 + b"]" * 100000, "JSON nested too deeply"),
        ]
        for content, message in cases:
            path = tmp_path / "broken.json"
            path.write_bytes(content)
            rc = main(["expand", "--spec", str(path)])
            _, err = capsys.readouterr()
            assert rc == 2, message
            assert err.startswith(f"error: {path}: {message}"), err

    @pytest.mark.parametrize("limit", [None, 0, 4300, 100000])
    def test_over_long_json_integer_is_a_validation_error(self, tmp_path, capsys, limit):
        # refused while the JSON is read, with the same text whatever the
        # interpreter's own limit, naming the file
        path = tmp_path / "long.json"
        path.write_text('{"m": -' + "9" * 5000 + "}")
        with int_str_limit(limit):
            rc = main(["expand", "--spec", str(path)])
        out, err = capsys.readouterr()
        assert (rc, out) == (2, "")
        assert err == f"error: {path}: JSON integer of more than 4300 digits\n"
        assert len(err.encode()) < 300
        # MAX_DIGITS digits are read, and the value is then out of range
        path.write_text('{"m": ' + "9" * MAX_DIGITS + "}")
        with int_str_limit(limit):
            assert main(["expand", "--spec", str(path)]) == 2
        assert "problem.m: " in capsys.readouterr().err

    @pytest.mark.parametrize(
        "mutate, start",
        [
            (lambda doc: doc.update(morphism="m" * 100000), "problem.morphism: unknown construction 'mmm"),
            (lambda doc: doc["ring"].update(kind="k" * 100000), "problem.ring.kind: expected one of"),
            (lambda doc: doc["ring"].update(kind=[0] * 100000), "problem.ring.kind: expected one of"),
            (lambda doc: doc["ring"].update(generators=["1" * 100000]), "problem.ring.generators: bad generator name: '111"),
        ],
        ids=["morphism", "kind", "kind-list", "generator"],
    )
    def test_long_rejected_values_are_not_echoed_whole(self, tmp_path, capsys, mutate, start):
        doc = json.loads(json.dumps(LINEAR_DOC))
        mutate(doc)
        rc = main(["expand", "--spec", write_spec(tmp_path, doc)])
        out, err = capsys.readouterr()
        assert (rc, out) == (2, "")
        assert err.startswith(f"error: {start}") and err.endswith("\n")
        assert err.count("\n") == 1 and len(err.encode()) < 300, err[:300]
        assert " characters)" in err

    def test_short_rejected_values_are_echoed_as_before(self, tmp_path, capsys):
        cases = [
            ({"ring": {"kind": "Z"}}, "problem.ring.kind: expected one of Q, Fp, poly, got 'Z'\n"),
            ({"ring": {"kind": 5}}, "problem.ring.kind: expected one of Q, Fp, poly, got 5\n"),
            ({"ring": {"kind": ["Q"]}}, "problem.ring.kind: expected one of Q, Fp, poly, got ['Q']\n"),
            (
                {"ring": {"kind": "poly", "generators": ["2u"]}},
                "problem.ring.generators: bad generator name: '2u'\n",
            ),
        ]
        for change, start in cases:
            rc = main(["expand", "--spec", write_spec(tmp_path, dict(LINEAR_DOC, **change))])
            _, err = capsys.readouterr()
            assert rc == 2 and err.startswith(f"error: {start}"), err

    def test_divided_over_prime_field_is_domain_error(self, tmp_path, capsys):
        base = {
            "ring": {"kind": "Fp", "p": 3},
            "m": 1,
            "trunc": 5,
            "source": {"kind": "self"},
            "phi": "identity",
            "element": "2",
        }
        docs = [dict(base, morphism=m) for m in ("classical_taylor", "twisted_taylor")]
        # the refusal comes before phi runs, so a value table that covers x
        # but not the derivatives of x is still reported out of domain
        docs.append(
            dict(
                base,
                source={"kind": "diffpoly", "vars": ["x"]},
                phi={"values": [[0, [0], "1"]]},
                morphism="twisted_taylor",
                element=[{"coeff": "1", "monomial": [[0, [0], 1]]}],
            )
        )
        for doc in docs:
            rc = main(["expand", "--spec", write_spec(tmp_path, doc)])
            out, err = capsys.readouterr()
            assert rc == 3
            assert out == ""
            assert "out of domain" in err

    @pytest.mark.parametrize(
        "p, expected_rc",
        [
            (1000000000000000003, 0),
            (1000000000000000001, 2),  # 101 * 9901 * 999999000001
            (3317044064679887385961981, 2),  # composite, fools all 13 bases
        ],
    )
    def test_large_moduli_are_decided(self, tmp_path, capsys, p, expected_rc):
        doc = dict(LINEAR_DOC, ring={"kind": "Fp", "p": p}, element="2")
        rc = main(["expand", "--spec", write_spec(tmp_path, doc)])
        out, err = capsys.readouterr()
        assert rc == expected_rc
        if expected_rc == 0:
            assert json.loads(out)["ring"] == {"kind": "Fp", "p": p}
        else:
            assert out == ""
            assert "problem.ring.p" in err

    def test_nonconstant_coefficients_reject_plain_construction(self, tmp_path, capsys):
        doc = dict(LINEAR_DOC, morphism="hurwitz_morphism")
        doc["source"] = {"kind": "self", "derivations": "ring"}
        rc = main(["expand", "--spec", write_spec(tmp_path, doc)])
        _, err = capsys.readouterr()
        assert rc == 3
        assert "out of domain" in err

    def test_uncovered_symbol_is_validation_error(self, tmp_path, capsys):
        doc = {
            "ring": {"kind": "Q"},
            "m": 1,
            "trunc": 4,
            "source": {"kind": "diffpoly", "vars": ["x"]},
            "phi": {"values": [[0, [0], "1"]]},
            "morphism": "hurwitz_morphism",
            "element": [{"coeff": "1", "monomial": [[0, [0], 1]]}],
        }
        rc = main(["expand", "--spec", write_spec(tmp_path, doc)])
        out, err = capsys.readouterr()
        assert rc == 2
        assert out == ""
        assert "does not cover symbol" in err

    def test_out_of_domain_is_reported_before_an_uncovered_symbol(self, tmp_path, capsys):
        """A divided construction over F_3 whose table misses x: the refusal
        comes before any value is read, so the document exits 3, not 2."""
        doc = {
            "ring": {"kind": "Fp", "p": 3},
            "m": 1,
            "trunc": 2,
            "source": {"kind": "diffpoly", "vars": ["x"]},
            "phi": {"values": [[0, [1], "1"]]},
            "morphism": "classical_taylor",
            "element": [{"coeff": "1", "monomial": [[0, [0], 1]]}],
        }
        rc = main(["expand", "--spec", write_spec(tmp_path, doc)])
        out, err = capsys.readouterr()
        assert (rc, out) == (3, "")
        assert err == (
            "error: out of domain: divided form needs characteristic 0 coefficients,"
            " got characteristic 3\n"
        )


class TestCheck:
    def test_small_run_passes_and_is_deterministic(self, capsys):
        args = ["check", "--instances", "2", "--seed", "3"]
        rc_first = main(args)
        first, err_first = capsys.readouterr()
        rc_second = main(args)
        second, _ = capsys.readouterr()
        assert rc_first == rc_second == 0
        assert first == second
        lines = first.strip().split("\n")
        assert len(lines) == 15
        for line in lines:
            doc = json.loads(line)
            assert doc["status"] == "pass"
        assert "15" not in err_first or err_first  # summary lives on stderr

    def test_subset_and_order(self, capsys):
        rc = main(["check", "--instances", "2", "--checks", "tm2,tm1"])
        out, _ = capsys.readouterr()
        assert rc == 0
        names = [json.loads(line)["check_name"] for line in out.strip().split("\n")]
        assert names == ["tm2", "tm1"]

    def test_unknown_check_name(self, capsys):
        rc = main(["check", "--checks", "tm1,lemma"])
        out, err = capsys.readouterr()
        assert rc == 2
        assert out == ""
        assert "unknown check 'lemma'" in err

    @pytest.mark.parametrize("names", ["", ",", ",,"])
    def test_empty_check_list_is_refused(self, capsys, names):
        rc = main(["check", "--checks", names])
        out, err = capsys.readouterr()
        assert rc == 2 and out == ""
        assert err == "error: checks: must name at least one check\n"

    def test_config_file(self, tmp_path, capsys):
        cfg = tmp_path / "config.json"
        cfg.write_text(
            json.dumps(
                {
                    "seed": 11,
                    "instances": 2,
                    "m_max": 1,
                    "trunc": 4,
                    "coeff_degree": 1,
                    "checks": ["ev2", "inversion"],
                }
            )
        )
        rc = main(["check", "--config", str(cfg)])
        out, _ = capsys.readouterr()
        assert rc == 0
        names = [json.loads(line)["check_name"] for line in out.strip().split("\n")]
        assert names == ["ev2", "inversion"]

    def test_config_unknown_field(self, tmp_path, capsys):
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({"tolerance": 0.1}))
        rc = main(["check", "--config", str(cfg)])
        _, err = capsys.readouterr()
        assert rc == 2
        assert "config.tolerance" in err
        # a config file that cannot be decoded is an error naming the file
        for content, message in [
            (b'\xff\xfe{"seed": 1}', "not UTF-8"),
            (b"[" * 100000 + b"]" * 100000, "JSON nested too deeply"),
        ]:
            cfg.write_bytes(content)
            rc = main(["check", "--config", str(cfg)])
            _, err = capsys.readouterr()
            assert rc == 2, message
            assert err.startswith(f"error: {cfg}: {message}"), err

    def test_flag_overrides_config(self, tmp_path, capsys):
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({"seed": 1, "checks": ["tm1"], "instances": 2}))
        rc = main(["check", "--config", str(cfg), "--checks", "ev1"])
        out, _ = capsys.readouterr()
        assert rc == 0
        assert json.loads(out.strip())["check_name"] == "ev1"

    def test_config_file_validated_before_flags_apply(self, tmp_path, capsys):
        cfg = tmp_path / "config.json"
        for doc, message in [
            ({"instances": 0}, "error: config.instances: must be between 1 and 10000"),
            ({"checks": ["tm1", "nope"]}, "error: config.checks[1]: unknown check 'nope'; known: "),
            ({"checks": []}, "error: config.checks: must name at least one check\n"),
        ]:
            cfg.write_text(json.dumps(doc))
            rc = main(["check", "--config", str(cfg), "--instances", "1", "--checks", "tm1"])
            out, err = capsys.readouterr()
            assert rc == 2 and out == ""
            assert err.startswith(message), err

    def test_invalid_instances(self, capsys):
        rc = main(["check", "--instances", "0"])
        _, err = capsys.readouterr()
        assert rc == 2
        assert "instances" in err

    def test_out_of_range_seed(self, capsys):
        rc = main(["check", "--seed", "9223372036854775809"])
        out, err = capsys.readouterr()
        assert rc == 2
        assert out == ""
        assert err.startswith("error: seed: must be between "), err

    def test_out_file(self, tmp_path, capsys, monkeypatch):
        target = tmp_path / "report.jsonl"
        rc = main(
            ["check", "--instances", "2", "--checks", "tm1", "--out", str(target)]
        )
        out, err = capsys.readouterr()
        assert rc == 0
        assert out == ""
        assert json.loads(target.read_text())["check_name"] == "tm1"
        assert "tm1: pass" in err
        # an unwritable --out is refused before the suite runs
        runs = []
        monkeypatch.setattr(checks, "run_suite", lambda config: runs.append(config) or [])
        rc = main(
            ["check", "--instances", "1", "--checks", "tm1", "--out", "/nonexistent/x.json"]
        )
        out, err = capsys.readouterr()
        assert rc == 2
        assert out == ""
        assert err.startswith("error: cannot write /nonexistent/x.json: "), err
        assert runs == []

    def test_raising_instance_is_reported(self, capsys, monkeypatch):
        def withdrawn(self, values, default_zero=False):
            def phi(e):
                raise ValueError("value map withdrawn")

            return phi

        # every value map raises, so the five checks that draw one fail
        monkeypatch.setattr(DiffPolyRing, "value_hom", withdrawn)
        rc = main(["check", "--seed", "0", "--instances", "4"])
        out, _ = capsys.readouterr()
        assert rc == 1
        docs = [json.loads(line) for line in out.strip().split("\n")]
        assert len(docs) == 15
        failing = [d["check_name"] for d in docs if d["status"] == "fail"]
        assert failing == ["ev1", "tm1", "tm2", "divided-bridge", "morphism-laws"]
        ev1 = next(d for d in docs if d["check_name"] == "ev1")
        failure = ev1["failures"][0]
        assert failure["actual"] == "ValueError: value map withdrawn"
        assert failure["inputs"] is failure["expected"] is None
        assert failure["comparison_order"] is None

    def test_seeded_bug_yields_exit_one(self, capsys, monkeypatch):
        from test_checks import _unweighted_mul

        monkeypatch.setattr(HurwitzRing, "mul", _unweighted_mul)
        rc = main(["check", "--instances", "3", "--checks", "char-p-nilpotency"])
        out, _ = capsys.readouterr()
        assert rc == 1
        doc = json.loads(out.strip())
        assert doc["status"] == "fail"
        assert doc["failures"][0]["seed"].startswith("0/char-p-nilpotency/")


class TestSelftest:
    def test_all_examples_pass(self, capsys):
        rc = main(["selftest"])
        out, _ = capsys.readouterr()
        assert rc == 0
        lines = [json.loads(line) for line in out.strip().split("\n")]
        assert [d["example"] for d in lines] == [
            "twisted-linear",
            "divided-exponential",
            "char2-nilpotent",
            "shift-twist",
        ]
        assert all(d["status"] == "pass" for d in lines)

    def test_seeded_bug_fails_the_affected_example(self, capsys, monkeypatch):
        def cauchy_instead(self, a, b):
            return self.cauchy_mul(a, b)

        monkeypatch.setattr(HurwitzRing, "mul", cauchy_instead)
        rc = main(["selftest"])
        out, _ = capsys.readouterr()
        assert rc == 1
        lines = [json.loads(line) for line in out.strip().split("\n")]
        by_name = {d["example"]: d for d in lines}
        assert by_name["char2-nilpotent"]["status"] == "fail"
        assert by_name["char2-nilpotent"]["actual"]["coeffs"] == [[[2], "1"]]
        assert by_name["twisted-linear"]["status"] == "pass"


class TestUsage:
    def test_no_arguments_prints_usage(self, capsys):
        rc = main([])
        out, err = capsys.readouterr()
        assert rc == 2
        assert out == ""
        assert "usage" in err.lower()

    def test_missing_required_flag(self, capsys):
        rc = main(["expand"])
        assert rc == 2

    def test_unknown_subcommand(self, capsys):
        rc = main(["orbit"])
        assert rc == 2

    def test_repeated_calls_in_one_process_match_fresh_processes(self, tmp_path, capsys):
        """The parser is built once and reused: a usage error, a check and two
        expansions in one process give the bytes and codes of fresh runs."""
        spec = write_spec(tmp_path, LINEAR_DOC)
        calls = [
            ["expand"],
            ["check", "--seed", "0", "--instances", "1", "--checks", "ev1,tm1"],
            ["expand", "--spec", spec],
            ["expand", "--spec", spec],
        ]
        src = str(Path(hwtaylor.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": src}
        for argv in calls:
            rc = main(argv)
            out, err = capsys.readouterr()
            fresh = subprocess.run(
                [sys.executable, "-m", "hwtaylor", *argv],
                env=env, capture_output=True, text=True, timeout=300,
            )
            assert (rc, out, err) == (fresh.returncode, fresh.stdout, fresh.stderr), argv
        assert main(["expand"]) == 2 and main(["check", "--instances", "x"]) == 2

    def test_console_entry_raises_system_exit(self, monkeypatch, capsys):
        from hwtaylor.cli import entry

        monkeypatch.setattr("sys.argv", ["hwtaylor", "selftest"])
        with pytest.raises(SystemExit) as exc:
            entry()
        assert exc.value.code == 0


def qpoly_diffpoly_doc(trunc=4):
    """A Q[u,v] diffpoly problem with the family d/du, v*d/dv and mixed denominators."""
    values = [
        [var, [i, j], f"{i + 1}/{j + 2}*u^{var + 1} - {j}*u*v + 1/{i + j + 1}*v^2"]
        for var in range(2)
        for i in range(trunc + 2)
        for j in range(trunc + 2 - i)
    ]
    return {
        "ring": {"kind": "poly", "generators": ["u", "v"], "derivations": [{"u": "1"}, {"v": "v"}]},
        "m": 2,
        "trunc": trunc,
        "source": {"kind": "diffpoly", "vars": ["x", "y"]},
        "phi": {"values": values},
        "morphism": "twisted_hurwitz",
        "element": [
            {"coeff": "-1/2", "monomial": [[0, [0, 0], 1], [1, [0, 1], 1]]},
            {"coeff": "u", "monomial": [[0, [1, 0], 2]]},
            {"coeff": "2/3*v", "monomial": [[1, [0, 0], 1]]},
        ],
    }


QPOLY = Path(__file__).parent / "data" / "qpoly_values.json"
# sha256 of the ``expand`` stdout of the expand-qpoly-shaped document under
# each constructor; as in that benchmark workload, the twisted pair keeps the
# family d/du, v*d/dv and the untwisted pair drops it
QPOLY_DIGESTS = {
    "classical_taylor": "34a49a5a92ded16aa163cd078731e8928a2b4636a1796114fa08bd50c33950c2",
    "hurwitz_morphism": "7a3dca57eac7eff4defd94963b289358cacc087eb51fd3c056e97f131d9f1c8d",
    "twisted_taylor": "2a0cfaf3a8becd6fb84e321d13b4d9c1bacc1542463c181bf89918d0d9149b17",
    "twisted_hurwitz": "29da7162b0aa9aeef7941074a349d54da30ed731bac6ec7629176cee8c701bcf",
}


class TestQpolyDocument:
    """56 rational value rows read and four series written: the output bytes
    of the polynomial wire codec, end to end."""

    @pytest.mark.parametrize("morphism", sorted(QPOLY_DIGESTS))
    def test_output_bytes_are_pinned(self, tmp_path, capsys, morphism):
        doc = json.loads(QPOLY.read_text())
        assert len(doc["phi"]["values"]) == 56
        doc["morphism"] = morphism
        if not morphism.startswith("twisted"):
            del doc["ring"]["derivations"]
        rc = main(["expand", "--spec", write_spec(tmp_path, doc)])
        out, err = capsys.readouterr()
        assert (rc, err) == (0, "")
        assert hashlib.sha256(out.encode()).hexdigest() == QPOLY_DIGESTS[morphism]


CAPPED = Path(__file__).parent / "data" / "capped_twisted.json"


@pytest.mark.parametrize("path", [QPOLY, CAPPED], ids=["qpoly_values", "capped_twisted"])
def test_expand_forms_no_sums_or_products_in_the_source(capsys, monkeypatch, path):
    """A document's phi is a ring map by construction: ``expand`` checks
    nothing about it, so it adds and multiplies no source elements."""
    calls = []

    def counting(name):
        original = getattr(DiffPolyRing, name)
        return lambda self, a, b: calls.append(name) or original(self, a, b)

    for name in ("add", "mul"):
        monkeypatch.setattr(DiffPolyRing, name, counting(name))
    rc = main(["expand", "--spec", str(path)])
    out, err = capsys.readouterr()
    assert (rc, err) == (0, "") and out
    assert calls == []


SELF_TWISTED = Path(__file__).parent / "data" / "self_twisted.json"


def test_self_source_output_bytes_are_pinned(capsys):
    """The twisted Taylor map of an element of Q[u,v] under the identity:
    the ``self`` source branch of ``load_problem``, byte for byte."""
    rc = main(["expand", "--spec", str(SELF_TWISTED)])
    out, err = capsys.readouterr()
    assert (rc, err) == (0, "")
    assert len(out.encode()) == 632
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "8cbec521c30934242c69de3cf176ec9c4b348c38f46f96ae64310431eaab71ca"
    )


SELF_RING_TM1 = Path(__file__).parent / "data" / "self_ring_tm1.json"


def test_self_source_with_ring_derivations_is_the_constant_embedding(capsys):
    """Law tm1 in closed form at the caps' shape: for a differential phi (here
    the identity of Q[u,v,w] with d/du, v*d/dv, w*d/dw, the ring's own
    derivations) ``twisted_hurwitz`` is the constant embedding, so the output
    at m = 3, trunc 12 is one coefficient, at [0, 0, 0], equal to the element.
    The element is 10 terms c*u^a*v^b*w^e from ``random.Random(3)``, with c in
    1..9 and exponents in 0..64; its terms are compared by a parser of their
    own, not by the library's."""

    def terms(text):
        out = {}
        for term in text.split(" + "):
            c, exps = 1, dict.fromkeys("uvw", 0)
            for factor in term.split("*"):
                if factor.isdigit():
                    c = int(factor)
                else:
                    name, _, power = factor.partition("^")
                    exps[name] = int(power or 1)
            out[tuple(exps.values())] = c
        return out

    rc = main(["expand", "--spec", str(SELF_RING_TM1)])
    out, err = capsys.readouterr()
    assert (rc, err) == (0, "")
    doc = json.loads(out)
    assert (doc["m"], doc["trunc"], doc["valid"]) == (3, 12, 12)
    [(index, coefficient)] = doc["coeffs"]
    element = json.loads(SELF_RING_TM1.read_text())["element"]
    assert index == [0, 0, 0] and len(terms(element)) == 10
    assert terms(coefficient) == terms(element)


HIGH_ORDER = Path(__file__).parent / "data" / "high_order_symbols.json"


def test_high_order_symbols_expand_at_once():
    """Symbols up to order [64, 64, 64] at m = 3, byte for byte, within 10 s.

    A symbol's id comes from the graded-lex rank of its order, computed in
    O(width).  Ranking by enumerating every index up to degree 192 took 62 s
    and 1.4 GB on this document; the arithmetic rank takes about 0.1 s.  The
    run is a child process, so a regression is stopped at the bound.
    """
    src = str(Path(hwtaylor.__file__).resolve().parents[1])
    done = subprocess.run(
        [sys.executable, "-m", "hwtaylor", "expand", "--spec", str(HIGH_ORDER)],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True, timeout=10, check=True,
    )
    assert done.stderr == b"" and len(done.stdout) == 315
    assert hashlib.sha256(done.stdout).hexdigest() == (
        "0a018f21fcc9c23c3bdb00e1dbc9f89033c43590cda438dfcf221ac83a2b95f8"
    )


class TestHashSeed:
    """Output bytes do not depend on hash order: polynomial terms are stored
    in insertion order and put in graded-lex order only when rendered."""

    def run(self, args, hash_seed):
        src = str(Path(hwtaylor.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONHASHSEED": str(hash_seed), "PYTHONPATH": src}
        done = subprocess.run(
            [sys.executable, "-m", "hwtaylor", *args],
            env=env, capture_output=True, text=True, timeout=300, check=True,
        )
        return done.stdout

    def test_check_and_expand_stdout_do_not_depend_on_the_hash_seed(self, tmp_path):
        spec = write_spec(tmp_path, qpoly_diffpoly_doc())
        for args in (["check", "--seed", "0", "--instances", "4"], ["expand", "--spec", spec]):
            outputs = [self.run(args, seed) for seed in (0, 1)]
            assert outputs[0] and outputs[0] == outputs[1], args


class TestImports:
    """``import hwtaylor`` and ``expand`` do not load the check suite; its
    names resolve on first access."""

    def run(self, code):
        # -S: site-packages may import ``random`` at start-up on its own
        src = str(Path(hwtaylor.__file__).resolve().parents[1])
        done = subprocess.run(
            [sys.executable, "-S", "-c", code],
            env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True, timeout=300,
        )
        assert done.returncode == 0, done.stderr
        return done.stdout

    def test_expand_leaves_the_check_suite_unloaded(self):
        out = self.run(
            "import contextlib, io, sys\n"
            "import hwtaylor, hwtaylor.cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    rc = hwtaylor.cli.main(['expand', '--spec', {str(QPOLY)!r}])\n"
            "print(rc, 'hwtaylor.checks' in sys.modules, 'random' in sys.modules)\n"
            "print(hwtaylor.run_suite is hwtaylor.checks.run_suite)\n"
        )
        assert out == "0 False False\nTrue\n"

    def test_submodule_and_star_import_resolve_every_name(self):
        out = self.run(
            "import hwtaylor\n"
            "print(hwtaylor.checks.run_suite is hwtaylor.run_suite)\n"
            "from hwtaylor import *\n"
            "print(all(globals()[n] is getattr(hwtaylor, n) for n in hwtaylor.__all__))\n"
        )
        assert out == "True\nTrue\n"

    def test_unknown_name_raises_attribute_error(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            hwtaylor.no_such_name
