"""Machine checks for the ring, derivation, and expansion identities.

Every registered check runs a configurable number of randomized instances.
All randomness derives from a private ``random.Random`` seeded by the config
seed, the check name, and the instance ordinal, so a report is reproducible
bit for bit from its config.  A failing instance is shrunk greedily
(coefficient degree first, then truncation order, then width) for as long as
it keeps failing, and is recorded with its seed, the inputs as JSON, both
sides of the disagreement, and the order the comparison ran at.  An instance
that raises fails with the exception as its ``actual`` side.

Each check is a generator over its laws: it yields ``None`` for a law that
holds and the failure detail for one that does not, and ``_law`` does the
comparing and the rendering.

The registry covers the arithmetic substrate (ring and derivation axioms on
the generated carriers, series ring axioms, shift and lifted derivations),
the characteristic-p structure, series inversion, the divided-power bridge,
and the expansion identities: constant-embedding collapse for differential
maps (tm1), stability under differential factorizations (tm2), constant-term
recovery (ev1), expansion of a series ring over itself (ev2), twist
composition and inversion, and the homomorphism laws of all four
constructors.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, replace
from typing import Any, Callable, Iterator, Mapping, Sequence

from .diffpoly import DiffPolyRing
from .hurwitz import MAX_TRUNC, MAX_WIDTH, HurwitzRing, series_to_json
from .multiindex import enumerate_upto
from .rings import (
    QQ,
    DifferentialRing,
    Element,
    PolynomialRing,
    PrimeField,
    Ring,
    constant_structure,
)
from .taylor import (
    MorphismSpec,
    classical_taylor,
    derivative_table,
    ev_twist,
    ev_untwist,
    hurwitz_morphism,
    twisted_hurwitz,
    twisted_taylor,
)


class UnknownCheckError(ValueError):
    """A config named a check that is not registered."""


@dataclass(frozen=True)
class CheckConfig:
    """Knobs for a suite run; every field has a deterministic effect."""

    seed: int = 0
    checks: tuple[str, ...] | None = None
    instances: int = 20
    width_max: int = 2
    trunc: int = 5
    coeff_degree: int = 2

    def __post_init__(self) -> None:
        if self.instances < 1:
            raise ValueError("instances must be at least 1")
        if not 1 <= self.width_max <= MAX_WIDTH:
            raise ValueError(f"width_max must be between 1 and {MAX_WIDTH}")
        if not 1 <= self.trunc <= MAX_TRUNC:
            raise ValueError(f"trunc must be between 1 and {MAX_TRUNC}")
        if not 0 <= self.coeff_degree <= 6:
            raise ValueError("coeff_degree must be between 0 and 6")
        if self.checks is not None:
            unknown = [name for name in self.checks if name not in _CHECKS]
            if unknown:
                raise UnknownCheckError(
                    f"unknown check {unknown[0]!r}; known: {', '.join(_CHECKS)}"
                )


@dataclass(frozen=True)
class Size:
    """Instance size; shrinking reduces these one notch at a time."""

    degree: int
    trunc: int
    width: int


@dataclass(frozen=True)
class Failure:
    seed: str
    size: Size
    inputs: Any
    expected: Any
    actual: Any
    comparison_order: int | None

    def to_json(self) -> dict:
        return {
            "seed": self.seed,
            "size": {
                "coeff_degree": self.size.degree,
                "trunc": self.size.trunc,
                "width": self.size.width,
            },
            "inputs": self.inputs,
            "expected": self.expected,
            "actual": self.actual,
            "comparison_order": self.comparison_order,
        }


@dataclass(frozen=True)
class CheckReport:
    check_name: str
    instances: int
    failures: tuple[Failure, ...]

    @property
    def status(self) -> str:
        return "fail" if self.failures else "pass"

    def to_json(self) -> dict:
        return {
            "check_name": self.check_name,
            "instances": self.instances,
            "status": self.status,
            "failures": [f.to_json() for f in self.failures],
        }


# a check's laws, in order: None for one that holds, else its failure detail
Laws = Iterator[dict | None]
LawsFn = Callable[[random.Random, Size, int], Laws]
# instance builder: (rng, size, ordinal) -> None on success, detail dict on failure
InstanceFn = Callable[[random.Random, Size, int], dict | None]
_CHECKS: dict[str, InstanceFn] = {}


def _register(name: str) -> Callable[[LawsFn], LawsFn]:
    # registered as a plain function, so that a wrapper around a ``_CHECKS``
    # entry (the benchmark's tracer) times the whole instance
    def deco(laws: LawsFn) -> LawsFn:
        def instance(rng: random.Random, size: Size, ordinal: int) -> dict | None:
            return next(filter(None, laws(rng, size, ordinal)), None)

        _CHECKS[name] = instance
        return laws

    return deco


def check_names() -> tuple[str, ...]:
    return tuple(_CHECKS)


def _reductions(size: Size):
    if size.degree > 0:
        yield replace(size, degree=size.degree - 1)
    if size.trunc > 1:
        yield replace(size, trunc=size.trunc - 1)
    if size.width > 1:
        yield replace(size, width=size.width - 1)


def _first_failure(
    builder: InstanceFn, seed: str, size: Size, ordinal: int
) -> dict | None:
    """The instance's first failing law; an exception fails the instance."""
    try:
        return builder(random.Random(seed), size, ordinal)
    except Exception as exc:
        return {
            "inputs": None,
            "expected": None,
            "actual": f"{type(exc).__name__}: {exc}",
            "comparison_order": None,
        }


def _shrink(
    builder: InstanceFn, seed: str, size: Size, ordinal: int, detail: dict
) -> tuple[Size, dict]:
    while True:
        for candidate in _reductions(size):
            found = _first_failure(builder, seed, candidate, ordinal)
            if found is not None:
                size, detail = candidate, found
                break
        else:
            return size, detail


def run_check(name: str, config: CheckConfig) -> CheckReport:
    if name not in _CHECKS:
        raise UnknownCheckError(
            f"unknown check {name!r}; known: {', '.join(_CHECKS)}"
        )
    builder = _CHECKS[name]
    base_size = Size(config.coeff_degree, config.trunc, config.width_max)
    failures: list[Failure] = []
    for ordinal in range(config.instances):
        seed = f"{config.seed}/{name}/{ordinal}"
        detail = _first_failure(builder, seed, base_size, ordinal)
        if detail is not None:
            size, detail = _shrink(builder, seed, base_size, ordinal, detail)
            failures.append(Failure(seed=seed, size=size, **detail))
    return CheckReport(name, config.instances, tuple(failures))


def run_suite(config: CheckConfig) -> list[CheckReport]:
    names = config.checks if config.checks is not None else check_names()
    return [run_check(name, config) for name in names]


def reports_to_jsonl(reports: Sequence[CheckReport]) -> str:
    """One canonical JSON object per line; same reports, same bytes."""
    return "".join(
        json.dumps(r.to_json(), sort_keys=True, separators=(",", ":")) + "\n"
        for r in reports
    )


# ---------------------------------------------------------------------------
# carrier generation


_BASES: tuple[tuple[str, Ring], ...] = (
    ("Q", QQ),
    ("F2", PrimeField(2)),
    ("F3", PrimeField(3)),
    ("F5", PrimeField(5)),
)


def _pick_base(rng: random.Random, char_zero_only: bool = False) -> Ring:
    pool = [r for _, r in _BASES if not char_zero_only or r.characteristic == 0]
    return pool[rng.randrange(len(pool))]


def _structure_from_recipe(
    base: Ring, gens: Sequence[str], style: str, matrix: Sequence[Sequence[int]]
) -> tuple[DifferentialRing, dict]:
    ring = PolynomialRing(base, gens)

    def image(c: int, gen: str) -> Element:
        if style == "constant_image":
            return ring.embed_int(c)
        return ring.mul(ring.embed_int(c), ring.gen(gen))

    if style == "zero":
        structure = constant_structure(ring, len(matrix))
    else:
        family = tuple(
            ring.derivation([image(c, g) for c, g in zip(row, ring.generators)])
            for row in matrix
        )
        structure = DifferentialRing(ring, family)
    desc = {
        "ring": ring.to_json(),
        "family": {"style": style, "matrix": [list(r) for r in matrix]},
    }
    return structure, desc


def _random_structure(
    rng: random.Random,
    size: Size,
    constant: bool = False,
    char_zero_only: bool = False,
) -> tuple[DifferentialRing, dict]:
    """A polynomial or plain carrier with a commuting derivation family."""
    width = rng.randint(1, size.width)
    base = _pick_base(rng, char_zero_only)
    if constant and rng.random() < 0.5:
        desc = {"ring": base.to_json(), "family": {"style": "zero"}}
        return constant_structure(base, width), desc
    gens = ["u", "v"][: rng.randint(1, 2)]
    if constant:
        style = "zero"
        matrix = [[0] * len(gens) for _ in range(width)]
    else:
        style = ("constant_image", "diagonal")[rng.randrange(2)]
        matrix = [
            [rng.randint(-2, 2) for _ in gens] for _ in range(width)
        ]
    return _structure_from_recipe(base, gens, style, matrix)


def _random_structure_pair(
    rng: random.Random, size: Size, ordinal: int
) -> tuple[DifferentialRing, DifferentialRing, dict]:
    """Two independent commuting families of the same style on one carrier.

    The first two ordinals pin the palette the acceptance run relies on:
    constant-image pairs over the rationals, then diagonal pairs in
    characteristic 3.
    """
    if ordinal % 4 == 0:
        base, gens, style = QQ, ["u"], "constant_image"
        m1 = [[1] for _ in range(size.width)]
        m2 = [[2] for _ in range(size.width)]
    elif ordinal % 4 == 1:
        base, gens, style = PrimeField(3), ["u", "v"], "diagonal"
        m1 = [[1, 0] for _ in range(size.width)]
        m2 = [[0, 1] for _ in range(size.width)]
    else:
        base = _pick_base(rng)
        gens = ["u", "v"][: rng.randint(1, 2)]
        style = ("constant_image", "diagonal")[rng.randrange(2)]
        m1 = [[rng.randint(-2, 2) for _ in gens] for _ in range(size.width)]
        m2 = [[rng.randint(-2, 2) for _ in gens] for _ in range(size.width)]
    first, desc = _structure_from_recipe(base, gens, style, m1)
    second, second_desc = _structure_from_recipe(base, gens, style, m2)
    return first, second, {**desc, "second_family": second_desc["family"]}


def _value_table(
    rng: random.Random,
    structure: DifferentialRing,
    nvars: int,
    max_order: int,
    degree: int,
) -> dict:
    K = structure.ring
    return {
        (var, alpha): K.sample(rng, degree)
        for var in range(nvars)
        for alpha in enumerate_upto(structure.width, max_order)
    }


def _chain_value_table(
    structure: DifferentialRing, seeds: Sequence[Element], max_order: int
) -> dict:
    """Values along derivation chains: symbol (x, beta) gets family^beta(seed).

    The resulting algebra map is differential by construction.
    """
    table: dict = {}
    for var, seed_value in enumerate(seeds):
        derived = derivative_table(structure, seed_value, max_order)
        for alpha, v in derived.items():
            table[(var, alpha)] = v
    return table


def _values_to_json(A: DiffPolyRing, values: Mapping) -> list:
    K = A.base.ring
    items = sorted(values.items(), key=lambda kv: (kv[0][0], kv[0][1].entries))
    return [
        [var, list(alpha.entries), K.render(v)] for (var, alpha), v in items
    ]


_CONSTRUCTORS: tuple[tuple[str, Callable, bool, bool], ...] = (
    # (name, fn, needs constant coefficients, needs rationals)
    ("classical_taylor", classical_taylor, True, True),
    ("hurwitz_morphism", hurwitz_morphism, True, False),
    ("twisted_taylor", twisted_taylor, False, True),
    ("twisted_hurwitz", twisted_hurwitz, False, False),
)


def _law(
    ring: Ring, inputs: dict, expected: Any, actual: Any, order: int | None = None
) -> dict | None:
    """None when the two sides agree, else the failure detail.

    Without an order the sides are elements of ``ring``, compared by
    ``ring.eq`` and rendered by ``ring.render``; with one they are series of
    the Hurwitz ring ``ring``, compared up to total degree ``order`` and
    rendered as JSON.
    """
    if order is None:
        if ring.eq(expected, actual):
            return None
        render = ring.render
    else:
        if ring.agree_up_to(expected, actual, order):
            return None
        render = series_to_json
    return {
        "inputs": inputs,
        "expected": render(expected),
        "actual": render(actual),
        "comparison_order": order,
    }


# ---------------------------------------------------------------------------
# substrate checks


@_register("ring-axioms")
def _check_ring_axioms(rng: random.Random, size: Size, ordinal: int) -> Laws:
    base = _pick_base(rng)
    kind = ordinal % 3
    ring: Ring
    if kind == 0:
        ring = base
    elif kind == 1:
        ring = PolynomialRing(base, ["u", "v"][: rng.randint(1, 2)])
    else:
        ring = HurwitzRing(base, rng.randint(1, size.width), size.trunc)
    a, b, c = (ring.sample(rng, size.degree) for _ in range(3))
    inputs = {"ring": ring.to_json(), "elements": [ring.render(x) for x in (a, b, c)]}
    pairs = [
        ("add_comm", ring.add(a, b), ring.add(b, a)),
        ("add_assoc", ring.add(ring.add(a, b), c), ring.add(a, ring.add(b, c))),
        ("add_inverse", ring.add(a, ring.neg(a)), ring.zero()),
        ("add_identity", ring.add(a, ring.zero()), a),
        ("mul_comm", ring.mul(a, b), ring.mul(b, a)),
        ("mul_assoc", ring.mul(ring.mul(a, b), c), ring.mul(a, ring.mul(b, c))),
        ("mul_identity", ring.mul(a, ring.one()), a),
        (
            "distributive",
            ring.mul(a, ring.add(b, c)),
            ring.add(ring.mul(a, b), ring.mul(a, c)),
        ),
    ]
    if ring.characteristic:
        pairs.append(
            (
                "characteristic",
                ring.sum(ring.one() for _ in range(ring.characteristic)),
                ring.zero(),
            )
        )
    for law, lhs, rhs in pairs:
        yield _law(ring, {**inputs, "law": law}, lhs, rhs)


@_register("derivation-axioms")
def _check_derivation_axioms(rng: random.Random, size: Size, ordinal: int) -> Laws:
    structure, desc = _random_structure(rng, size)
    R = structure.ring
    a, b = R.sample(rng, size.degree), R.sample(rng, size.degree)
    inputs = {**desc, "elements": [R.render(a), R.render(b)]}
    for slot in range(structure.width):
        d = structure.derivations[slot]
        case = {**inputs, "slot": slot}
        yield _law(R, {**case, "law": "additive"}, d(R.add(a, b)), R.add(d(a), d(b)))
        yield _law(
            R,
            {**case, "law": "leibniz"},
            d(R.mul(a, b)),
            R.add(R.mul(d(a), b), R.mul(a, d(b))),
        )
    for i in range(structure.width):
        for j in range(i + 1, structure.width):
            yield _law(
                R,
                {**inputs, "law": "commutation", "slots": [i, j]},
                structure.derivations[i](structure.derivations[j](a)),
                structure.derivations[j](structure.derivations[i](a)),
            )


@_register("hurwitz-ring-axioms")
def _check_hurwitz_ring_axioms(rng: random.Random, size: Size, ordinal: int) -> Laws:
    base = _pick_base(rng)
    K: Ring = base
    if rng.random() < 0.5:
        K = PolynomialRing(base, ["u"])
    H = HurwitzRing(K, rng.randint(1, size.width), size.trunc)
    a, b, c = (H.sample(rng, size.degree) for _ in range(3))
    inputs = {
        "ring": H.to_json(),
        "elements": [series_to_json(x) for x in (a, b, c)],
    }
    laws = [
        ("mul_comm", H.mul(a, b), H.mul(b, a)),
        ("mul_assoc", H.mul(H.mul(a, b), c), H.mul(a, H.mul(b, c))),
        (
            "distributive",
            H.mul(a, H.add(b, c)),
            H.add(H.mul(a, b), H.mul(a, c)),
        ),
        ("mul_identity", H.mul(a, H.one()), a),
    ]
    for law, lhs, rhs in laws:
        yield _law(H, {**inputs, "law": law}, lhs, rhs, size.trunc)
    # the constant-term map is a ring map and retracts the constant embedding
    lhs_c, rhs_c = H.ev(H.mul(a, b)), K.mul(H.ev(a), H.ev(b))
    yield _law(K, {**inputs, "law": "ev_multiplicative"}, lhs_c, rhs_c)
    lhs_c, rhs_c = H.ev(H.add(a, b)), K.add(H.ev(a), H.ev(b))
    yield _law(K, {**inputs, "law": "ev_additive"}, lhs_c, rhs_c)
    k = K.sample(rng, size.degree)
    yield _law(K, {**inputs, "law": "ev_embed_identity"}, k, H.ev(H.embed(k)))


@_register("hurwitz-derivations")
def _check_hurwitz_derivations(rng: random.Random, size: Size, ordinal: int) -> Laws:
    structure, desc = _random_structure(rng, size)
    K = structure.ring
    delta = structure.derivations
    H = HurwitzRing(K, structure.width, size.trunc)
    a, b = H.sample(rng, size.degree), H.sample(rng, size.degree)
    inputs = {
        "coefficients": desc,
        "trunc": size.trunc,
        "elements": [series_to_json(a), series_to_json(b)],
    }
    for slot in range(structure.width):
        case = {**inputs, "slot": slot}
        yield _law(
            H,
            {**case, "law": "shift_leibniz"},
            H.shift_derive(H.mul(a, b), slot),
            H.add(
                H.mul(H.shift_derive(a, slot), b), H.mul(a, H.shift_derive(b, slot))
            ),
            size.trunc - 1,
        )
        yield _law(
            H,
            {**case, "law": "shift_lift_commute"},
            H.shift_derive(H.coeff_derive(a, delta, slot), slot),
            H.coeff_derive(H.shift_derive(a, slot), delta, slot),
            size.trunc - 1,
        )
        yield _law(
            H,
            {**case, "law": "lift_leibniz"},
            H.coeff_derive(H.mul(a, b), delta, slot),
            H.add(
                H.mul(H.coeff_derive(a, delta, slot), b),
                H.mul(a, H.coeff_derive(b, delta, slot)),
            ),
            size.trunc,
        )
    if size.trunc >= 2:
        for i in range(structure.width):
            for j in range(i + 1, structure.width):
                yield _law(
                    H,
                    {**inputs, "law": "shift_commute", "slots": [i, j]},
                    H.shift_derive(H.shift_derive(a, i), j),
                    H.shift_derive(H.shift_derive(a, j), i),
                    size.trunc - 2,
                )


@_register("char-p-nilpotency")
def _check_char_p(rng: random.Random, size: Size, ordinal: int) -> Laws:
    p = (2, 3, 5)[ordinal % 3]
    base: Ring = PrimeField(p)
    if rng.random() < 0.5:
        base = PolynomialRing(base, ["u"])
    trunc = max(size.trunc, p)
    width = rng.randint(1, size.width)
    H = HurwitzRing(base, width, trunc)
    inputs = {"p": p, "ring": H.to_json()}
    for slot in range(width):
        t = H.indeterminate(slot)
        case = {**inputs, "law": "variable_pth_power_vanishes", "slot": slot}
        yield _law(H, case, H.zero(), H.pow(t, p), trunc)
        below = H.pow(t, p - 1)
        if H.is_zero(below):
            yield {
                "inputs": {**inputs, "law": "lower_power_survives", "slot": slot},
                "expected": series_to_json(t),
                "actual": series_to_json(below),
                "comparison_order": trunc,
            }


@_register("inversion")
def _check_inversion(rng: random.Random, size: Size, ordinal: int) -> Laws:
    field = (QQ, PrimeField(3), PrimeField(2), PrimeField(5))[ordinal % 4]
    H = HurwitzRing(field, rng.randint(1, size.width), size.trunc)
    a = H.sample(rng, size.degree)
    if field.is_zero(H.ev(a)):
        a = H.add(a, H.one())
    if field.is_zero(H.ev(a)):  # constant term was -1 in characteristic 2
        a = H.add(a, H.one())
    inputs = {"ring": H.to_json(), "element": series_to_json(a)}
    prod = H.mul(a, H.invert(a))
    yield _law(H, {**inputs, "law": "mul_inverse"}, H.one(), prod, a.valid)
    if H.try_invert(H.sub(a, H.embed(H.ev(a)))) is not None:
        yield {
            "inputs": {**inputs, "law": "non_unit_rejected"},
            "expected": "None",
            "actual": "an inverse",
            "comparison_order": None,
        }


# ---------------------------------------------------------------------------
# expansion checks


def _applicable(
    constant_coeffs: bool, K: DifferentialRing
) -> Iterator[tuple[str, Callable, bool, bool]]:
    """Each constructor defined over K, with its two requirement flags.

    Yields (name, fn, needs constant coefficients, needs rationals).  Reads
    ``_CONSTRUCTORS`` on every call, so a replaced table takes effect.
    """
    for name, fn, needs_constant, needs_rationals in _CONSTRUCTORS:
        if needs_constant and not constant_coeffs:
            continue
        if needs_rationals and K.ring.characteristic != 0:
            continue
        yield name, fn, needs_constant, needs_rationals


def _self_spec(
    K: DifferentialRing, trunc: int, constant_source: bool, rng: random.Random, degree: int
) -> tuple[MorphismSpec, dict]:
    source = constant_structure(K.ring, K.width) if constant_source else K
    samples = tuple(K.ring.sample(rng, degree) for _ in range(3))
    spec = MorphismSpec(
        source=source, coefficients=K, phi=lambda a: a, trunc=trunc, samples=samples
    )
    return spec, {"kind": "self", "source_constant": constant_source}


def _diffpoly_spec(
    K: DifferentialRing,
    trunc: int,
    rng: random.Random,
    degree: int,
    chain: bool,
) -> tuple[MorphismSpec, DiffPolyRing, dict]:
    A = DiffPolyRing(K, ["x"])
    max_order = trunc + 2
    if chain:
        values = _chain_value_table(K, [K.ring.sample(rng, degree)], max_order)
    else:
        values = _value_table(rng, K, 1, max_order, degree)
    phi = A.value_hom(values)
    samples = tuple(A.sample(rng, degree) for _ in range(3))
    spec = MorphismSpec(
        source=A.differential_ring(),
        coefficients=K,
        phi=phi,
        trunc=trunc,
        samples=samples,
    )
    desc = {
        "kind": "diffpoly",
        "values": _values_to_json(A, values),
        "chain": chain,
    }
    return spec, A, desc


@_register("ev1")
def _check_ev1(rng: random.Random, size: Size, ordinal: int) -> Laws:
    """Constant term of every expansion is phi of the argument."""
    constant_coeffs = ordinal % 2 == 0
    K, kdesc = _random_structure(rng, size, constant=constant_coeffs)
    spec, A, sdesc = _diffpoly_spec(K, size.trunc, rng, size.degree, chain=False)
    a = A.sample(rng, size.degree)
    inputs = {"coefficients": kdesc, "source": sdesc, "argument": A.element_to_json(a)}
    expected = spec.phi(a)
    for name, fn, *_ in _applicable(constant_coeffs, K):
        got = spec.target.ev(fn(spec, a))
        yield _law(K.ring, {**inputs, "constructor": name}, expected, got)


@_register("ev2")
def _check_ev2(rng: random.Random, size: Size, ordinal: int) -> Laws:
    """Expanding a series ring over itself by the constant-term map gives it back."""
    if ordinal % 4 == 0:
        K, kdesc = _structure_from_recipe(QQ, ["u"], "constant_image", [[1]])
    elif ordinal % 4 == 1:
        K, kdesc = _structure_from_recipe(PrimeField(3), ["u"], "diagonal", [[1]])
    else:
        K, kdesc = _random_structure(rng, size)
    H = HurwitzRing(K.ring, K.width, size.trunc)
    source = H.differential_structure(K.derivations)
    samples = tuple(H.sample(rng, size.degree) for _ in range(2))
    spec = MorphismSpec(
        source=source, coefficients=K, phi=H.ev, trunc=size.trunc, samples=samples
    )
    a = H.sample(rng, size.degree)
    inputs = {"coefficients": kdesc, "argument": series_to_json(a)}
    yield _law(H, inputs, a, twisted_hurwitz(spec, a), size.trunc)


@_register("tm1")
def _check_tm1(rng: random.Random, size: Size, ordinal: int) -> Laws:
    """A differential phi makes every expansion collapse to the constant embedding."""
    constant_coeffs = ordinal % 2 == 0
    K, kdesc = _random_structure(rng, size, constant=constant_coeffs)
    route = ordinal % 4
    if route < 2:
        spec, A, sdesc = _diffpoly_spec(K, size.trunc, rng, size.degree, chain=True)
        a = A.sample(rng, size.degree)
        argument = A.element_to_json(a)
    else:
        spec, sdesc = _self_spec(
            K, size.trunc, constant_source=False, rng=rng, degree=size.degree
        )
        a = K.ring.sample(rng, size.degree)
        argument = K.ring.render(a)
    H = spec.target
    inputs = {"coefficients": kdesc, "source": sdesc, "argument": argument}
    expected = H.embed(spec.phi(a))
    for name, fn, *_ in _applicable(constant_coeffs, K):
        got = fn(spec, a)
        yield _law(H, {**inputs, "constructor": name}, expected, got, size.trunc)


@_register("tm2")
def _check_tm2(rng: random.Random, size: Size, ordinal: int) -> Laws:
    """Expansions factor through differential inclusions of sources."""
    constant_coeffs = ordinal % 2 == 0
    K, kdesc = _random_structure(rng, size, constant=constant_coeffs)
    A = DiffPolyRing(K, ["x"])
    B = DiffPolyRing(K, ["x", "y"])
    max_order = size.trunc + 2
    values = _value_table(rng, K, 2, max_order, size.degree)
    psi = B.value_hom(values)
    phi = A.value_hom({sym: v for sym, v in values.items() if sym[0] == 0})
    rngA = random.Random(rng.randrange(2**32))
    spec_a = MorphismSpec(
        source=A.differential_ring(),
        coefficients=K,
        phi=phi,
        trunc=size.trunc,
        samples=tuple(A.sample(rngA, size.degree) for _ in range(2)),
    )
    spec_b = MorphismSpec(
        source=B.differential_ring(),
        coefficients=K,
        phi=psi,
        trunc=size.trunc,
        samples=tuple(B.sample(rngA, size.degree) for _ in range(2)),
    )
    a = A.sample(rng, size.degree)
    included = type(a)(a.terms)  # symbols of A are symbols of B verbatim
    inputs = {
        "coefficients": kdesc,
        "values": _values_to_json(B, values),
        "argument": A.element_to_json(a),
    }
    H = spec_a.target
    for name, fn, *_ in _applicable(constant_coeffs, K):
        via_a, via_b = fn(spec_a, a), fn(spec_b, included)
        yield _law(H, {**inputs, "constructor": name}, via_a, via_b, size.trunc)


@_register("twist-composition")
def _check_twist_composition(rng: random.Random, size: Size, ordinal: int) -> Laws:
    first, second, desc = _random_structure_pair(rng, size, ordinal)
    K = first.ring
    H = HurwitzRing(K, first.width, size.trunc)
    a = H.sample(rng, size.degree)
    lhs = ev_twist(ev_twist(a, second.derivations), first.derivations)
    combined = tuple(
        (lambda x, d1=d1, d2=d2: K.add(d1(x), d2(x)))
        for d1, d2 in zip(first.derivations, second.derivations)
    )
    rhs = ev_twist(a, combined)
    yield _law(H, {**desc, "argument": series_to_json(a)}, rhs, lhs, a.valid)


@_register("twist-inverse")
def _check_twist_inverse(rng: random.Random, size: Size, ordinal: int) -> Laws:
    structure, desc = _random_structure(rng, size)
    K = structure.ring
    H = HurwitzRing(K, structure.width, size.trunc)
    a = H.sample(rng, size.degree)
    back = ev_untwist(ev_twist(a, structure.derivations), structure.derivations)
    yield _law(H, {**desc, "argument": series_to_json(a)}, a, back, a.valid)


@_register("divided-bridge")
def _check_divided_bridge(rng: random.Random, size: Size, ordinal: int) -> Laws:
    """Dividing the Hurwitz-side images by factorials gives the divided images."""
    constant_coeffs = ordinal % 2 == 0
    K, kdesc = _random_structure(rng, size, constant=constant_coeffs, char_zero_only=True)
    spec, A, sdesc = _diffpoly_spec(K, size.trunc, rng, size.degree, chain=False)
    a = A.sample(rng, size.degree)
    H = spec.target
    inputs = {"coefficients": kdesc, "source": sdesc, "argument": A.element_to_json(a)}
    lhs, rhs = H.to_divided(twisted_hurwitz(spec, a)), twisted_taylor(spec, a)
    pair = ["twisted_hurwitz", "twisted_taylor"]
    yield _law(H, {**inputs, "pair": pair}, rhs, lhs, size.trunc)
    if constant_coeffs:
        lhs, rhs = H.to_divided(hurwitz_morphism(spec, a)), classical_taylor(spec, a)
        pair = ["hurwitz_morphism", "classical_taylor"]
        yield _law(H, {**inputs, "pair": pair}, rhs, lhs, size.trunc)


@_register("divided-derivative")
def _check_divided_derivative(rng: random.Random, size: Size, ordinal: int) -> Laws:
    """The divided bridge turns shift derivations into formal derivatives."""
    base = _pick_base(rng, char_zero_only=True)
    K: Ring = base if rng.random() < 0.5 else PolynomialRing(base, ["u"])
    H = HurwitzRing(K, rng.randint(1, size.width), size.trunc)
    a = H.sample(rng, size.degree)
    inputs = {"ring": H.to_json(), "element": series_to_json(a)}
    back = H.from_divided(H.to_divided(a))
    yield _law(H, {**inputs, "law": "bridge_roundtrip"}, a, back, size.trunc)
    for slot in range(H.width):
        yield _law(
            H,
            {**inputs, "law": "derivative_intertwine", "slot": slot},
            H.formal_derive(H.to_divided(a), slot),
            H.to_divided(H.shift_derive(a, slot)),
            size.trunc - 1,
        )


@_register("morphism-laws")
def _check_morphism_laws(rng: random.Random, size: Size, ordinal: int) -> Laws:
    """Each constructor is additive, multiplicative, unital, and differential."""
    constant_coeffs = ordinal % 2 == 0
    K, kdesc = _random_structure(rng, size, constant=constant_coeffs)
    spec, A, sdesc = _diffpoly_spec(K, size.trunc, rng, size.degree, chain=False)
    a, b = A.sample(rng, size.degree), A.sample(rng, size.degree)
    H = spec.target
    inputs = {
        "coefficients": kdesc,
        "source": sdesc,
        "arguments": [A.element_to_json(a), A.element_to_json(b)],
    }

    for name, fn, needs_constant, needs_rationals in _applicable(constant_coeffs, K):
        Ta, Tb = fn(spec, a), fn(spec, b)
        case = {**inputs, "constructor": name}
        got = fn(spec, A.add(a, b))
        yield _law(H, {**case, "law": "additive"}, H.add(Ta, Tb), got, size.trunc)
        got = fn(spec, A.mul(a, b))
        # divided-reading outputs multiply by plain convolution
        want = (H.cauchy_mul if needs_rationals else H.mul)(Ta, Tb)
        yield _law(H, {**case, "law": "multiplicative"}, want, got, size.trunc)
        got = fn(spec, A.one())
        yield _law(H, {**case, "law": "unital"}, H.one(), got, size.trunc)
        structure = H.differential_structure(
            None if needs_constant else K.derivations, divided=needs_rationals
        )
        for slot in range(H.width):
            got = fn(spec, A.derive(a, slot))
            want = structure.derive(Ta, slot)
            slot_case = {**case, "law": "differential", "slot": slot}
            yield _law(H, slot_case, want, got, size.trunc - 1)
