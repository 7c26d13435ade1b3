"""The command-line front end: exit codes, JSON purity, determinism."""

from __future__ import annotations

import json

import pytest

from hwtaylor.cli import main
from hwtaylor.hurwitz import HurwitzRing
from hwtaylor.multiindex import iter_dominated

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

    def test_identity_phi_required_for_self_source(self, tmp_path, capsys):
        doc = dict(LINEAR_DOC, phi={"values": []})
        rc = main(["expand", "--spec", write_spec(tmp_path, doc)])
        _, err = capsys.readouterr()
        assert rc == 2
        assert "problem.phi" in err

    def test_missing_file_is_validation_error(self, capsys):
        rc = main(["expand", "--spec", "/nonexistent/problem.json"])
        out, err = capsys.readouterr()
        assert rc == 2
        assert out == ""
        assert "cannot read" in err

    def test_unparseable_json_is_validation_error(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        rc = main(["expand", "--spec", str(path)])
        _, err = capsys.readouterr()
        assert rc == 2
        assert "not valid JSON" in err

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

    def test_flag_overrides_config(self, tmp_path, capsys):
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({"seed": 1, "checks": ["tm1"], "instances": 2}))
        rc = main(["check", "--config", str(cfg), "--checks", "ev1"])
        out, _ = capsys.readouterr()
        assert rc == 0
        assert json.loads(out.strip())["check_name"] == "ev1"

    def test_invalid_instances(self, capsys):
        rc = main(["check", "--instances", "0"])
        _, err = capsys.readouterr()
        assert rc == 2
        assert "instances" in err

    def test_out_file(self, tmp_path, capsys):
        target = tmp_path / "report.jsonl"
        rc = main(
            ["check", "--instances", "2", "--checks", "tm1", "--out", str(target)]
        )
        out, err = capsys.readouterr()
        assert rc == 0
        assert out == ""
        assert json.loads(target.read_text())["check_name"] == "tm1"
        assert "tm1: pass" in err

    def test_raising_instance_is_reported(self, capsys, monkeypatch):
        from test_checks import _drop_last_product_term

        # the lossy product makes MorphismSpec reject phi in five checks
        _drop_last_product_term(monkeypatch)
        rc = main(["check", "--seed", "0", "--instances", "4"])
        out, _ = capsys.readouterr()
        assert rc == 1
        docs = [json.loads(line) for line in out.strip().split("\n")]
        assert len(docs) == 15
        ev1 = next(d for d in docs if d["check_name"] == "ev1")
        assert ev1["status"] == "fail"
        failure = ev1["failures"][0]
        assert failure["actual"].startswith("ValueError: phi fails")
        assert failure["inputs"] is failure["expected"] is None
        assert failure["comparison_order"] is None

    def test_seeded_bug_yields_exit_one(self, capsys, monkeypatch):
        from hwtaylor.multiindex import MultiIndex

        def unweighted(self, a, b):
            self._check_pair(a, b)
            K = self.coeff_ring
            table = {}
            for alpha in self.indices:
                acc = K.zero()
                for beta in iter_dominated(alpha):
                    acc = K.add(acc, K.mul(a.coeffs[beta], b.coeffs[alpha - beta]))
                table[alpha] = acc
            return self.from_table(table, min(a.valid, b.valid))

        monkeypatch.setattr(HurwitzRing, "mul", unweighted)
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

    def test_console_entry_raises_system_exit(self, monkeypatch, capsys):
        from hwtaylor.cli import entry

        monkeypatch.setattr("sys.argv", ["hwtaylor", "selftest"])
        with pytest.raises(SystemExit) as exc:
            entry()
        assert exc.value.code == 0
