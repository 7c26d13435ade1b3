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
from dataclasses import replace
from functools import lru_cache, partial
from typing import TYPE_CHECKING, Any, Callable

from .diffpoly import DiffPolyRing, UncoveredSymbolError
from .hurwitz import MAX_TRUNC, MAX_WIDTH, HurwitzRing, HurwitzSeries, series_to_json
from .multiindex import MultiIndex
from .rings import (
    MAX_DIGITS,
    QQ,
    DifferentialRing,
    DomainError,
    PolynomialRing,
    PrimeField,
    Ring,
    _canonical_json,
    _echo,
    _expect_element,
    _expect_int,
    _expect_names,
    _expect_object,
    _expect_string,
    _field,
    _reject_unknown,
    constant_structure,
    differential_polynomial_carrier,
    ring_from_json,
)
from .taylor import CONSTRUCTIONS, MorphismSpec, classical_taylor, ev_twist, twisted_hurwitz

if TYPE_CHECKING:
    from .checks import CheckConfig

_CONSTRUCTORS = {name: fn for name, fn, *_ in CONSTRUCTIONS}


# ---------------------------------------------------------------------------
# problem documents


def _parse_family(ring: Ring, ring_doc: dict, width: int, path: str) -> DifferentialRing:
    """The carrier with its derivation family; ``derivations`` is read whenever present."""
    if "derivations" not in ring_doc:
        return constant_structure(ring, width)
    rows = ring_doc["derivations"]
    if not isinstance(ring, PolynomialRing):
        raise ValueError(f"{path}: only polynomial rings carry derivation tables")
    if not isinstance(rows, list) or len(rows) != width:
        raise ValueError(f"{path}: expected a list of m objects")
    images: list[list] = [[] for _ in rows]
    for i, row in enumerate(rows):
        _expect_object(row, f"{path}[{i}]")
        for name in row:
            if name not in ring.generators:
                raise ValueError(f"{path}[{i}].{name}: unknown generator")
        for name in ring.generators:
            where = f"{path}[{i}].{name}"
            images[i].append(_expect_element(ring, row.get(name, "0"), where))
    try:
        return differential_polynomial_carrier(ring.base, ring.generators, images)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc


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
    ring = ring_from_json(
        {k: v for k, v in ring_doc.items() if k != "derivations"}, "problem.ring"
    )
    K = _parse_family(ring, ring_doc, width, "problem.ring.derivations")

    name = _expect_string(_field(doc, "morphism", "problem"), "problem.morphism")
    if name not in _CONSTRUCTORS:
        raise ValueError(
            f"problem.morphism: unknown construction {_echo(name)}; "
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
        element = _expect_element(ring, _field(doc, "element", "problem"), "problem.element")
    elif kind == "diffpoly":
        _reject_unknown(source_doc, {"kind", "vars"}, "problem.source")
        var_names = _field(source_doc, "vars", "problem.source")
        _expect_names(var_names, "problem.source.vars")
        try:
            A = DiffPolyRing(K, var_names)
        except ValueError as exc:
            raise ValueError(f"problem.source.vars: {exc}") from exc
        phi_obj = _expect_object(phi_doc, "problem.phi")
        _reject_unknown(phi_obj, {"values", "default_zero"}, "problem.phi")
        default_zero = phi_obj.get("default_zero", False)
        if not isinstance(default_zero, bool):
            raise ValueError("problem.phi.default_zero: expected a boolean")
        table = A.values_from_json(_field(phi_obj, "values", "problem.phi"), "problem.phi.values")
        phi = A.value_hom(table, default_zero=default_zero)
        element = A.element_from_json(_field(doc, "element", "problem"), "problem.element")
        source = A.differential_ring()
    else:
        raise ValueError('problem.source.kind: expected "self" or "diffpoly"')

    # phi is the identity or a value_hom, a ring map by construction
    spec = MorphismSpec(source=source, coefficients=K, phi=phi, trunc=trunc)
    return partial(_CONSTRUCTORS[name], spec, element)


# ---------------------------------------------------------------------------
# subcommands


class _LongInteger(ValueError):
    """A JSON integer literal of more than ``MAX_DIGITS`` digits."""


def _json_int(text: str) -> int:
    """``int(text)`` for a JSON integer literal, refused past ``MAX_DIGITS`` digits.

    The length is checked before converting, so the refusal does not depend
    on the interpreter's own limit on converting text to integers.
    """
    if len(text) - text.startswith("-") > MAX_DIGITS:
        raise _LongInteger(f"JSON integer of more than {MAX_DIGITS} digits")
    return int(text)


def _read_json(path: str) -> Any:
    """The JSON document in ``path``; every failure is a ValueError naming it."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh, parse_int=_json_int)
    except _LongInteger as exc:
        raise ValueError(f"{path}: {exc}") from None
    except OSError as exc:
        raise ValueError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: not valid JSON: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: not UTF-8: {exc}") from exc
    except RecursionError:
        raise ValueError(f"{path}: JSON nested too deeply") from None


def _write_output(text: str, out: str | None) -> int:
    """Write ``text`` to ``out`` (stdout when None); 2 when it cannot be written."""
    if out is None:
        sys.stdout.write(text)
        return 0
    try:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        print(f"error: cannot write {out}: {exc}", file=sys.stderr)
        return 2
    return 0


def cmd_expand(args: argparse.Namespace) -> int:
    try:
        series = load_problem(_read_json(args.spec), trunc_override=args.trunc_override)()
        text = _canonical_json(series_to_json(series)) + "\n"
    except DomainError as exc:
        print(f"error: out of domain: {exc}", file=sys.stderr)
        return 3
    except UncoveredSymbolError as exc:
        print(f"error: problem.phi.values: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return _write_output(text, args.out)


def _load_check_config(args: argparse.Namespace) -> CheckConfig:
    # the check suite loads here, on first use, not when the CLI is imported
    from .checks import CheckConfig

    doc = {} if args.config is None else _read_json(args.config)
    flags = {"seed": args.seed, "instances": args.instances}
    if args.checks is not None:
        flags["checks"] = tuple(n for n in args.checks.split(",") if n)
    return replace(
        CheckConfig.from_json(doc),
        **{field: value for field, value in flags.items() if value is not None},
    )


def cmd_check(args: argparse.Namespace) -> int:
    try:
        config = _load_check_config(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    # refuse an unwritable --out before the suite runs
    if _write_output("", args.out):
        return 2
    from .checks import reports_to_jsonl, run_suite

    reports = run_suite(config)
    if _write_output(reports_to_jsonl(reports), args.out):
        return 2
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
        got = _canonical_json(series_to_json(build()))
        want = _canonical_json(expected)
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
        sys.stdout.write(_canonical_json(line) + "\n")
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


@lru_cache(maxsize=None)
def _parser() -> argparse.ArgumentParser:
    """``build_parser()``, built on first use and then reused: parsing keeps no state on it."""
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    parser = _parser()
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
