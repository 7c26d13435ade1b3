"""Command-line front end.

Three subcommands, all emitting canonical JSON on stdout (prose goes to
stderr):

``expand``
    Read a problem description from a JSON file, build the requested
    expansion, and print the resulting series as one JSON document.
    Exit 0 on success, 2 on a validation error (messages name the offending
    path inside the document), 3 when the request is mathematically out of
    domain (for example a divided construction over a prime field).

``check``
    Run the registered identity checks and print a JSON-lines report, one
    object per check.  Reports are byte-identical across runs with the same
    configuration.  Exit 0 when every check passes, 1 when any fails,
    2 on an invalid configuration or unknown check name.

``selftest``
    Rebuild a handful of frozen examples in-process and compare their
    serialized form byte for byte against expected literals stored in this
    module.  One JSON line per example; exit 0/1.
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import partial
from typing import Any, Callable

from .checks import (
    CheckConfig,
    UnknownCheckError,
    reports_to_jsonl,
    run_suite,
)
from .diffpoly import DiffPolyRing, UncoveredSymbolError
from .hurwitz import MAX_TRUNC, MAX_WIDTH, HurwitzRing, HurwitzSeries, series_to_json
from .multiindex import MultiIndex
from .rings import (
    MAX_EXPONENT,
    QQ,
    DifferentialRing,
    DomainError,
    PolynomialRing,
    PrimeField,
    Ring,
    _expect_int,
    _reject_unknown,
    constant_structure,
    ring_from_json,
)
from .taylor import (
    MorphismSpec,
    classical_taylor,
    ev_twist,
    hurwitz_morphism,
    twisted_hurwitz,
    twisted_taylor,
)

_CONSTRUCTORS: dict[str, Callable] = {
    "hurwitz_morphism": hurwitz_morphism,
    "classical_taylor": classical_taylor,
    "twisted_hurwitz": twisted_hurwitz,
    "twisted_taylor": twisted_taylor,
}


def _canonical(doc: Any) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


# ---------------------------------------------------------------------------
# problem documents


def _expect_object(doc: Any, path: str) -> dict:
    if not isinstance(doc, dict):
        raise ValueError(f"{path}: expected an object")
    return doc


def _field(doc: dict, key: str, path: str) -> Any:
    if key not in doc:
        raise ValueError(f"{path}.{key}: missing")
    return doc[key]


def _expect_string(value: Any, path: str) -> str:
    if not isinstance(value, str):
        raise ValueError(f"{path}: expected a string")
    return value


def _parse_family(ring: Ring, rows: Any, width: int, path: str) -> DifferentialRing:
    """The coefficient carrier with its derivation family."""
    if rows is None:
        return constant_structure(ring, width)
    if not isinstance(ring, PolynomialRing):
        raise ValueError(f"{path}: only polynomial rings carry derivation tables")
    if not isinstance(rows, list) or len(rows) != width:
        raise ValueError(f"{path}: expected a list of m objects")
    family = []
    for i, row in enumerate(rows):
        _expect_object(row, f"{path}[{i}]")
        for name in row:
            if name not in ring.generators:
                raise ValueError(f"{path}[{i}].{name}: unknown generator")
        images = []
        for name in ring.generators:
            text = _expect_string(row.get(name, "0"), f"{path}[{i}].{name}")
            try:
                images.append(ring.parse(text))
            except ValueError as exc:
                raise ValueError(f"{path}[{i}].{name}: {exc}") from exc
        family.append(ring.derivation(images))
    return DifferentialRing(ring, tuple(family))


def _parse_values(A: DiffPolyRing, doc: Any, path: str) -> dict:
    if not isinstance(doc, list):
        raise ValueError(f"{path}: expected a list of [variable, order, value] rows")
    K = A.base.ring
    table: dict = {}
    for i, row in enumerate(doc):
        here = f"{path}[{i}]"
        if not isinstance(row, list) or len(row) != 3:
            raise ValueError(f"{here}: expected [variable, order, value]")
        var, order, text = row
        var = _expect_int(var, f"{here}[0]", 0, len(A.variables) - 1)
        if not isinstance(order, list) or len(order) != A.width:
            raise ValueError(f"{here}[1]: expected {A.width} order entries")
        entries = [_expect_int(e, f"{here}[1]", 0, MAX_EXPONENT) for e in order]
        try:
            value = K.parse(_expect_string(text, f"{here}[2]"))
        except ValueError as exc:
            raise ValueError(f"{here}[2]: {exc}") from exc
        key = (var, MultiIndex(tuple(entries)))
        if key in table:
            raise ValueError(f"{here}: duplicate symbol")
        table[key] = value
    return table


def load_problem(
    doc: Any, trunc_override: int | None = None
) -> Callable[[], HurwitzSeries]:
    """Validate a problem document; the result runs the requested expansion."""
    _expect_object(doc, "problem")
    _reject_unknown(
        doc, {"ring", "m", "trunc", "source", "phi", "morphism", "element"}, "problem"
    )
    width = _expect_int(_field(doc, "m", "problem"), "problem.m", 1, MAX_WIDTH)
    trunc = _expect_int(_field(doc, "trunc", "problem"), "problem.trunc", 0, MAX_TRUNC)
    if trunc_override is not None:
        trunc = _expect_int(trunc_override, "trunc-override", 0, MAX_TRUNC)

    ring_doc = _expect_object(_field(doc, "ring", "problem"), "problem.ring")
    rows = ring_doc.get("derivations")
    ring = ring_from_json(
        {k: v for k, v in ring_doc.items() if k != "derivations"}, "problem.ring"
    )
    K = _parse_family(ring, rows, width, "problem.ring.derivations")

    name = _expect_string(_field(doc, "morphism", "problem"), "problem.morphism")
    if name not in _CONSTRUCTORS:
        raise ValueError(
            f"problem.morphism: unknown construction {name!r}; "
            f"known: {', '.join(_CONSTRUCTORS)}"
        )

    source_doc = _expect_object(_field(doc, "source", "problem"), "problem.source")
    kind = _expect_string(_field(source_doc, "kind", "problem.source"), "problem.source.kind")
    phi_doc = _field(doc, "phi", "problem")

    if kind == "self":
        _reject_unknown(source_doc, {"kind", "derivations"}, "problem.source")
        mode = source_doc.get("derivations", "zero")
        if mode not in ("zero", "ring"):
            raise ValueError('problem.source.derivations: expected "zero" or "ring"')
        source = K if mode == "ring" else constant_structure(ring, width)
        if phi_doc != "identity":
            raise ValueError('problem.phi: a "self" source supports only "identity"')
        phi = lambda a: a  # noqa: E731
        try:
            element = ring.parse(_expect_string(_field(doc, "element", "problem"), "problem.element"))
        except ValueError as exc:
            raise ValueError(f"problem.element: {exc}") from exc
        samples: tuple = (ring.one(), element)
    elif kind == "diffpoly":
        _reject_unknown(source_doc, {"kind", "vars"}, "problem.source")
        var_names = _field(source_doc, "vars", "problem.source")
        if (
            not isinstance(var_names, list)
            or not var_names
            or not all(isinstance(v, str) for v in var_names)
        ):
            raise ValueError("problem.source.vars: expected a nonempty list of names")
        A = DiffPolyRing(K, var_names)
        phi_obj = _expect_object(phi_doc, "problem.phi")
        _reject_unknown(phi_obj, {"values", "default_zero"}, "problem.phi")
        default_zero = phi_obj.get("default_zero", False)
        if not isinstance(default_zero, bool):
            raise ValueError("problem.phi.default_zero: expected a boolean")
        table = _parse_values(A, _field(phi_obj, "values", "problem.phi"), "problem.phi.values")
        phi = A.value_hom(table, default_zero=default_zero)
        element = A.element_from_json(_field(doc, "element", "problem"), "problem.element")
        source = A.differential_ring()
        samples = (A.one(), element)
    else:
        raise ValueError('problem.source.kind: expected "self" or "diffpoly"')

    spec = MorphismSpec(
        source=source, coefficients=K, phi=phi, trunc=trunc, samples=samples
    )
    return partial(_CONSTRUCTORS[name], spec, element)


# ---------------------------------------------------------------------------
# subcommands


def _write_output(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)


def cmd_expand(args: argparse.Namespace) -> int:
    try:
        with open(args.spec, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        print(f"error: cannot read {args.spec}: {exc}", file=sys.stderr)
        return 2
    except json.JSONDecodeError as exc:
        print(f"error: {args.spec}: not valid JSON: {exc}", file=sys.stderr)
        return 2
    try:
        series = load_problem(doc, trunc_override=args.trunc_override)()
    except DomainError as exc:
        print(f"error: out of domain: {exc}", file=sys.stderr)
        return 3
    except (UncoveredSymbolError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    _write_output(_canonical(series_to_json(series)) + "\n", args.out)
    return 0


_CONFIG_FIELDS = {"seed", "checks", "instances", "m_max", "trunc", "coeff_degree"}


def _load_check_config(args: argparse.Namespace) -> CheckConfig:
    doc: dict = {}
    if args.config is not None:
        with open(args.config, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
        _expect_object(doc, "config")
        _reject_unknown(doc, _CONFIG_FIELDS, "config")
    kwargs: dict = {}
    if "seed" in doc:
        kwargs["seed"] = _expect_int(doc["seed"], "config.seed", -(2**63), 2**63)
    if "instances" in doc:
        kwargs["instances"] = _expect_int(doc["instances"], "config.instances", 1, 10000)
    if "m_max" in doc:
        kwargs["width_max"] = _expect_int(doc["m_max"], "config.m_max", 1, MAX_WIDTH)
    if "trunc" in doc:
        kwargs["trunc"] = _expect_int(doc["trunc"], "config.trunc", 1, MAX_TRUNC)
    if "coeff_degree" in doc:
        kwargs["coeff_degree"] = _expect_int(doc["coeff_degree"], "config.coeff_degree", 0, 6)
    if "checks" in doc:
        names = doc["checks"]
        if not isinstance(names, list) or not all(isinstance(n, str) for n in names):
            raise ValueError("config.checks: expected a list of check names")
        kwargs["checks"] = tuple(names)
    if args.seed is not None:
        kwargs["seed"] = args.seed
    if args.instances is not None:
        kwargs["instances"] = _expect_int(args.instances, "instances", 1, 10000)
    if args.checks is not None:
        kwargs["checks"] = tuple(n for n in args.checks.split(",") if n)
    return CheckConfig(**kwargs)


def cmd_check(args: argparse.Namespace) -> int:
    try:
        config = _load_check_config(args)
    except OSError as exc:
        print(f"error: cannot read {args.config}: {exc}", file=sys.stderr)
        return 2
    except json.JSONDecodeError as exc:
        print(f"error: {args.config}: not valid JSON: {exc}", file=sys.stderr)
        return 2
    except (UnknownCheckError, ValueError, TypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    reports = run_suite(config)
    _write_output(reports_to_jsonl(reports), args.out)
    for report in reports:
        print(
            f"{report.check_name}: {report.status} "
            f"({report.instances} instances, {len(report.failures)} failures)",
            file=sys.stderr,
        )
    return 0 if all(r.status == "pass" for r in reports) else 1


# ---------------------------------------------------------------------------
# frozen examples for the self-test


def _example_twisted_linear():
    """Expanding u along d/du with the twisted construction gives u - t."""
    ring = PolynomialRing(QQ, ["u"])
    K = DifferentialRing(ring, (ring.derivation([ring.one()]),))
    spec = MorphismSpec(
        source=constant_structure(ring, 1),
        coefficients=K,
        phi=lambda a: a,
        trunc=8,
        samples=(ring.one(), ring.gen("u")),
    )
    return twisted_hurwitz(spec, ring.gen("u"))


def _example_divided_exponential():
    """The divided expansion of a chain variable with all values 1: 1/n!."""
    K = constant_structure(QQ, 1)
    A = DiffPolyRing(K, ["x"])
    values = {(0, MultiIndex.of(n)): QQ.one() for n in range(11)}
    spec = MorphismSpec(
        source=A.differential_ring(),
        coefficients=K,
        phi=A.value_hom(values),
        trunc=10,
        samples=(A.one(), A.gen("x")),
    )
    return classical_taylor(spec, A.gen("x"))


def _example_char2_nilpotent():
    """t*t vanishes over F2: the cross coefficient carries the weight 2."""
    H = HurwitzRing(PrimeField(2), 1, 4)
    t = H.indeterminate(0)
    return H.mul(t, t)


def _example_shift_twist():
    """Twisting the constant u by d/du produces u + t."""
    ring = PolynomialRing(QQ, ["u"])
    K = DifferentialRing(ring, (ring.derivation([ring.one()]),))
    H = HurwitzRing(ring, 1, 5)
    return ev_twist(H.embed(ring.gen("u")), K.derivations)


_EXAMPLES: tuple[tuple[str, Callable, dict], ...] = (
    (
        "twisted-linear",
        _example_twisted_linear,
        {
            "m": 1,
            "trunc": 8,
            "valid": 8,
            "ring": {"kind": "poly", "generators": ["u"]},
            "coeffs": [[[0], "u"], [[1], "-1"]],
        },
    ),
    (
        "divided-exponential",
        _example_divided_exponential,
        {
            "m": 1,
            "trunc": 10,
            "valid": 10,
            "ring": {"kind": "Q"},
            "coeffs": [
                [[0], "1"],
                [[1], "1"],
                [[2], "1/2"],
                [[3], "1/6"],
                [[4], "1/24"],
                [[5], "1/120"],
                [[6], "1/720"],
                [[7], "1/5040"],
                [[8], "1/40320"],
                [[9], "1/362880"],
                [[10], "1/3628800"],
            ],
        },
    ),
    (
        "char2-nilpotent",
        _example_char2_nilpotent,
        {
            "m": 1,
            "trunc": 4,
            "valid": 4,
            "ring": {"kind": "Fp", "p": 2},
            "coeffs": [],
        },
    ),
    (
        "shift-twist",
        _example_shift_twist,
        {
            "m": 1,
            "trunc": 5,
            "valid": 5,
            "ring": {"kind": "poly", "generators": ["u"]},
            "coeffs": [[[0], "u"], [[1], "1"]],
        },
    ),
)


def cmd_selftest(args: argparse.Namespace) -> int:
    all_ok = True
    for name, build, expected in _EXAMPLES:
        got = _canonical(series_to_json(build()))
        want = _canonical(expected)
        if got == want:
            line: dict = {"example": name, "status": "pass"}
        else:
            all_ok = False
            line = {
                "example": name,
                "status": "fail",
                "expected": expected,
                "actual": json.loads(got),
            }
        sys.stdout.write(_canonical(line) + "\n")
    return 0 if all_ok else 1


# ---------------------------------------------------------------------------
# entry points


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hwtaylor",
        description="Truncated Hurwitz series expansions and identity checks.",
    )
    sub = parser.add_subparsers(dest="command")

    expand = sub.add_parser(
        "expand", help="expand one element through a chosen construction"
    )
    expand.add_argument("--spec", required=True, metavar="FILE", help="problem JSON")
    expand.add_argument("--out", metavar="FILE", help="write the series here instead of stdout")
    expand.add_argument(
        "--trunc-override",
        type=int,
        default=None,
        metavar="N",
        help="replace the truncation order from the problem file",
    )

    check = sub.add_parser(
        "check", help="run the identity checks and write a JSON-lines report"
    )
    check.add_argument("--config", metavar="FILE", help="configuration JSON")
    check.add_argument("--out", metavar="FILE", help="write the report here instead of stdout")
    check.add_argument("--seed", type=int, default=None, help="override the seed")
    check.add_argument(
        "--instances", type=int, default=None, help="override instances per check"
    )
    check.add_argument(
        "--checks", metavar="NAMES", help="comma-separated subset of checks to run"
    )

    sub.add_parser("selftest", help="rebuild frozen examples and compare bytes")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    if args.command is None:
        parser.print_usage(sys.stderr)
        return 2
    handler = {"expand": cmd_expand, "check": cmd_check, "selftest": cmd_selftest}
    return handler[args.command](args)


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
