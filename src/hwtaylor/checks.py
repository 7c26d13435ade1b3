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
comparing and the rendering.  A check keeps its instance's raw values and
hands ``_law`` a function that renders them, so only a failing law pays for
its inputs as JSON.

The registry covers the arithmetic substrate (ring and derivation axioms on
the generated carriers, series ring axioms, shift and lifted derivations),
the characteristic-p structure, series inversion, the divided-power bridge,
and the expansion identities: constant-embedding collapse for differential
maps and the differential value maps behind it (tm1), stability under
differential factorizations (tm2), the value maps' ring map laws and
constant-term recovery (ev1), expansion of a series ring over itself (ev2),
twist composition and inversion, and the homomorphism laws of all four
constructors.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from functools import reduce
from itertools import repeat
from typing import Any, Callable, Iterator, Sequence

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
    _canonical_json,
    _expect_int,
    _expect_object,
    _reject_unknown,
    constant_structure,
)
from .taylor import (
    CONSTRUCTIONS,
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


# Largest polynomial coefficient degree a check configuration may ask for.
MAX_COEFF_DEGREE = 6
# Largest number of instances per check a check configuration may ask for.
MAX_INSTANCES = 10000

# wire name: (CheckConfig field, lo, hi), checked in this order
_CONFIG_INTS = {
    "seed": ("seed", -(2**63), 2**63),
    "instances": ("instances", 1, MAX_INSTANCES),
    "m_max": ("width_max", 1, MAX_WIDTH),
    "trunc": ("trunc", 1, MAX_TRUNC),
    "coeff_degree": ("coeff_degree", 0, MAX_COEFF_DEGREE),
}


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
        for field, lo, hi in _CONFIG_INTS.values():
            _expect_int(getattr(self, field), field, lo, hi)
        if self.checks is not None:
            _require_known(self.checks)

    @classmethod
    def from_json(cls, doc: Any, path: str = "config") -> CheckConfig:
        """The configuration a JSON document describes; wire errors name ``path``."""
        _expect_object(doc, path)
        _reject_unknown(doc, {*_CONFIG_INTS, "checks"}, path)
        kwargs: dict = {
            field: _expect_int(doc[wire], f"{path}.{wire}", lo, hi)
            for wire, (field, lo, hi) in _CONFIG_INTS.items()
            if wire in doc
        }
        if "checks" in doc:
            names = doc["checks"]
            if not isinstance(names, list) or not all(isinstance(n, str) for n in names):
                raise ValueError(f"{path}.checks: expected a list of check names")
            _require_known(names, f"{path}.checks")
            kwargs["checks"] = tuple(names)
        return cls(**kwargs)


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
# renders an instance's inputs as JSON; called only for a failing law
Inputs = Callable[[], dict]
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


def _require_known(names: Sequence[str], path: str | None = None) -> None:
    """Refuse an empty selection, named by ``path`` (``checks`` in process),
    and the first unregistered name; a wire list names its ``path[i]``."""
    if not names:
        raise ValueError(f"{path or 'checks'}: must name at least one check")
    for i, name in enumerate(names):
        if name not in _CHECKS:
            where = "" if path is None else f"{path}[{i}]: "
            raise UnknownCheckError(
                f"{where}unknown check {name!r}; known: {', '.join(_CHECKS)}"
            )


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
    _require_known((name,))
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
    return "".join(_canonical_json(r.to_json()) + "\n" for r in reports)


# ---------------------------------------------------------------------------
# carrier generation


_BASES: tuple[Ring, ...] = (QQ, PrimeField(2), PrimeField(3), PrimeField(5))


def _pick_base(rng: random.Random, char_zero_only: bool = False) -> Ring:
    pool = [r for r in _BASES if not char_zero_only or r.characteristic == 0]
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


_CONSTRUCTORS = CONSTRUCTIONS


def _law(
    ring: Ring,
    inputs: Inputs,
    expected: Any,
    actual: Any,
    order: int | None = None,
    **case: Any,
) -> dict | None:
    """None when the two sides agree, else the failure detail.

    Without an order the sides are elements of ``ring``, compared by
    ``ring.eq`` and rendered by ``ring.render``; with one they are series of
    the Hurwitz ring ``ring``, compared up to total degree ``order`` and
    rendered as JSON.  The detail's inputs are ``inputs()`` with the law's
    own ``case`` keys (``law``, ``slot``, ``constructor``, ...) added; they
    are rendered here, and only here.
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
        "inputs": {**inputs(), **case},
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
    inputs = lambda: {"ring": ring.to_json(), "elements": [ring.render(x) for x in (a, b, c)]}
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
                reduce(ring.add, repeat(ring.one(), ring.characteristic), ring.zero()),
                ring.zero(),
            )
        )
    for law, lhs, rhs in pairs:
        yield _law(ring, inputs, lhs, rhs, law=law)
    if kind == 1:
        # a product is the sum of the products with the right factor's terms;
        # its operands come after every other draw, so the laws above see the
        # same instances as without it
        x, y = _several_terms(ring, rng, size.degree), _several_terms(ring, rng, size.degree)
        yield _law(
            ring,
            lambda: {**inputs(), "elements": [ring.render(x), ring.render(y)]},
            ring.mul(x, y),
            ring.sum(ring.mul(x, ring.monomial(e, c)) for e, c in y.terms),
            law="mul_term_split",
        )


def _several_terms(ring: PolynomialRing, rng: random.Random, degree: int) -> Element:
    """A sample of ``ring`` with at least two terms, redrawn until it has them."""
    while True:
        x = ring.sample(rng, max(degree, 1))
        if len(x.terms) > 1:
            return x


@_register("derivation-axioms")
def _check_derivation_axioms(rng: random.Random, size: Size, ordinal: int) -> Laws:
    structure, desc = _random_structure(rng, size)
    R = structure.ring
    a, b = R.sample(rng, size.degree), R.sample(rng, size.degree)
    inputs = lambda: {**desc, "elements": [R.render(a), R.render(b)]}
    for slot in range(structure.width):
        d = structure.derivations[slot]
        yield _law(R, inputs, d(R.add(a, b)), R.add(d(a), d(b)), law="additive", slot=slot)
        yield _law(
            R,
            inputs,
            d(R.mul(a, b)),
            R.add(R.mul(d(a), b), R.mul(a, d(b))),
            law="leibniz",
            slot=slot,
        )
    for i in range(structure.width):
        for j in range(i + 1, structure.width):
            yield _law(
                R,
                inputs,
                structure.derivations[i](structure.derivations[j](a)),
                structure.derivations[j](structure.derivations[i](a)),
                law="commutation",
                slots=[i, j],
            )


@_register("hurwitz-ring-axioms")
def _check_hurwitz_ring_axioms(rng: random.Random, size: Size, ordinal: int) -> Laws:
    base = _pick_base(rng)
    K: Ring = base
    if rng.random() < 0.5:
        K = PolynomialRing(base, ["u"])
    H = HurwitzRing(K, rng.randint(1, size.width), size.trunc)
    a, b, c = (H.sample(rng, size.degree) for _ in range(3))
    inputs = lambda: {
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
        yield _law(H, inputs, lhs, rhs, size.trunc, law=law)
    # the constant-term map is a ring map and retracts the constant embedding
    lhs_c, rhs_c = H.ev(H.mul(a, b)), K.mul(H.ev(a), H.ev(b))
    yield _law(K, inputs, lhs_c, rhs_c, law="ev_multiplicative")
    lhs_c, rhs_c = H.ev(H.add(a, b)), K.add(H.ev(a), H.ev(b))
    yield _law(K, inputs, lhs_c, rhs_c, law="ev_additive")
    k = K.sample(rng, size.degree)
    yield _law(K, inputs, k, H.ev(H.embed(k)), law="ev_embed_identity")


@_register("hurwitz-derivations")
def _check_hurwitz_derivations(rng: random.Random, size: Size, ordinal: int) -> Laws:
    structure, desc = _random_structure(rng, size)
    K = structure.ring
    delta = structure.derivations
    H = HurwitzRing(K, structure.width, size.trunc)
    a, b = H.sample(rng, size.degree), H.sample(rng, size.degree)
    inputs = lambda: {
        "coefficients": desc,
        "trunc": size.trunc,
        "elements": [series_to_json(a), series_to_json(b)],
    }
    for slot in range(structure.width):
        yield _law(
            H,
            inputs,
            H.shift_derive(H.mul(a, b), slot),
            H.add(
                H.mul(H.shift_derive(a, slot), b), H.mul(a, H.shift_derive(b, slot))
            ),
            size.trunc - 1,
            law="shift_leibniz",
            slot=slot,
        )
        yield _law(
            H,
            inputs,
            H.shift_derive(H.coeff_derive(a, delta, slot), slot),
            H.coeff_derive(H.shift_derive(a, slot), delta, slot),
            size.trunc - 1,
            law="shift_lift_commute",
            slot=slot,
        )
        yield _law(
            H,
            inputs,
            H.coeff_derive(H.mul(a, b), delta, slot),
            H.add(
                H.mul(H.coeff_derive(a, delta, slot), b),
                H.mul(a, H.coeff_derive(b, delta, slot)),
            ),
            size.trunc,
            law="lift_leibniz",
            slot=slot,
        )
    if size.trunc >= 2:
        for i in range(structure.width):
            for j in range(i + 1, structure.width):
                yield _law(
                    H,
                    inputs,
                    H.shift_derive(H.shift_derive(a, i), j),
                    H.shift_derive(H.shift_derive(a, j), i),
                    size.trunc - 2,
                    law="shift_commute",
                    slots=[i, j],
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
    inputs = lambda: {"p": p, "ring": H.to_json()}
    for slot in range(width):
        t = H.indeterminate(slot)
        law = "variable_pth_power_vanishes"
        yield _law(H, inputs, H.zero(), H.pow(t, p), trunc, law=law, slot=slot)
        below = H.pow(t, p - 1)
        if H.is_zero(below):
            yield {
                "inputs": {**inputs(), "law": "lower_power_survives", "slot": slot},
                "expected": series_to_json(t),
                "actual": series_to_json(below),
                "comparison_order": trunc,
            }


@_register("inversion")
def _check_inversion(rng: random.Random, size: Size, ordinal: int) -> Laws:
    K = (QQ, PrimeField(3), PrimeField(2), PrimeField(5))[ordinal % 4]
    H = HurwitzRing(K, rng.randint(1, size.width), size.trunc)
    a = H.sample(rng, size.degree)
    if K.is_zero(H.ev(a)):
        a = H.add(a, H.one())
    inputs = lambda: {"ring": H.to_json(), "element": series_to_json(a)}
    prod = H.mul(a, H.invert(a))
    yield _law(H, inputs, H.one(), prod, a.valid, law="mul_inverse")
    if H.try_invert(H.sub(a, H.embed(H.ev(a)))) is not None:
        yield {
            "inputs": {**inputs(), "law": "non_unit_rejected"},
            "expected": "None",
            "actual": "an inverse",
            "comparison_order": None,
        }


# ---------------------------------------------------------------------------
# expansion checks


def _applicable(
    constant_coeffs: bool, K: DifferentialRing
) -> Iterator[tuple[str, Callable, bool, bool]]:
    """The rows of ``_CONSTRUCTORS``, read at call time, defined over K."""
    for name, fn, needs_constant, divided in _CONSTRUCTORS:
        if needs_constant and not constant_coeffs:
            continue
        if divided and K.ring.characteristic != 0:
            continue
        yield name, fn, needs_constant, divided


def _self_spec(K: DifferentialRing, trunc: int) -> tuple[MorphismSpec, Inputs]:
    spec = MorphismSpec(source=K, coefficients=K, phi=lambda a: a, trunc=trunc)
    return spec, lambda: {"kind": "self", "source_constant": False}


def _diffpoly_spec(
    K: DifferentialRing,
    trunc: int,
    rng: random.Random,
    degree: int,
    chain: bool,
) -> tuple[MorphismSpec, DiffPolyRing, Inputs]:
    """A value map on ``K{x}`` and its source description, rendered on call."""
    A = DiffPolyRing(K, ["x"])
    max_order = trunc + 2
    if chain:
        values = _chain_value_table(K, [K.ring.sample(rng, degree)], max_order)
    else:
        values = _value_table(rng, K, 1, max_order, degree)
    spec = MorphismSpec(
        source=A.differential_ring(), coefficients=K, phi=A.value_hom(values), trunc=trunc
    )
    desc = lambda: {"kind": "diffpoly", "values": A.values_to_json(values), "chain": chain}
    return spec, A, desc


def _symbolic(A: DiffPolyRing) -> DifferentialRing:
    """``A.differential_ring()`` under another identity, so raw series derive.

    ``taylor`` evaluates raw series with ``HurwitzRing.mul`` only for the
    ring's own structure; a law whose two sides come from this twin and from
    the original compares that evaluation with an independent witness.
    """
    return DifferentialRing(A, A.differential_ring().derivations)


@_register("ev1")
def _check_ev1(rng: random.Random, size: Size, ordinal: int) -> Laws:
    """Constant term of every expansion is phi of the argument.

    The first laws state the premise of every expansion check once: the value
    map phi is a ring map.
    """
    constant_coeffs = ordinal % 2 == 0
    K, kdesc = _random_structure(rng, size, constant=constant_coeffs)
    spec, A, sdesc = _diffpoly_spec(K, size.trunc, rng, size.degree, chain=False)
    a = A.sample(rng, size.degree)
    b = A.sample(rng, size.degree)
    R, phi = K.ring, spec.phi
    pa, pb = phi(a), phi(b)
    premise = lambda: {
        "coefficients": kdesc,
        "source": sdesc(),
        "arguments": [A.element_to_json(a), A.element_to_json(b)],
    }
    yield _law(R, premise, R.one(), phi(A.one()), law="phi_unital")
    yield _law(R, premise, R.add(pa, pb), phi(A.add(a, b)), law="phi_additive")
    yield _law(R, premise, R.mul(pa, pb), phi(A.mul(a, b)), law="phi_multiplicative")
    inputs = lambda: {"coefficients": kdesc, "source": sdesc(), "argument": A.element_to_json(a)}
    for name, fn, *_ in _applicable(constant_coeffs, K):
        got = spec.target.ev(fn(spec, a))
        yield _law(R, inputs, pa, got, constructor=name)


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
    spec = MorphismSpec(source=source, coefficients=K, phi=H.ev, trunc=size.trunc)
    a = H.sample(rng, size.degree)
    inputs = lambda: {"coefficients": kdesc, "argument": series_to_json(a)}
    yield _law(H, inputs, a, twisted_hurwitz(spec, a), size.trunc)


@_register("tm1")
def _check_tm1(rng: random.Random, size: Size, ordinal: int) -> Laws:
    """A differential phi makes every expansion collapse to the constant embedding.

    The last laws check the premise itself: a value map along derivation
    chains on ``K{x, y}`` commutes with every slot.
    """
    constant_coeffs = ordinal % 2 == 0
    K, kdesc = _random_structure(rng, size, constant=constant_coeffs)
    route = ordinal % 4
    if route < 2:
        spec, A, sdesc = _diffpoly_spec(K, size.trunc, rng, size.degree, chain=True)
        a = A.sample(rng, size.degree)
        render: Callable[[Element], Any] = A.element_to_json
    else:
        spec, sdesc = _self_spec(K, size.trunc)
        a = K.ring.sample(rng, size.degree)
        render = K.ring.render
    H = spec.target
    inputs = lambda: {"coefficients": kdesc, "source": sdesc(), "argument": render(a)}
    expected = H.embed(spec.phi(a))
    for name, fn, *_ in _applicable(constant_coeffs, K):
        got = fn(spec, a)
        yield _law(H, inputs, expected, got, size.trunc, constructor=name)
    # a value map along derivation chains on two indeterminates commutes with
    # every slot, which sees DiffPolyRing.derive on its own; its draws come
    # after every other draw, so the laws above see the same instances
    B = DiffPolyRing(K, ["x", "y"])
    values = _chain_value_table(K, [K.ring.sample(rng, size.degree) for _ in range(2)], 2)
    phi = B.value_hom(values)
    e = B.sample(rng, size.degree)
    premise = lambda: {
        "coefficients": kdesc,
        "values": B.values_to_json(values),
        "element": B.element_to_json(e),
    }
    law = "value_map_differential"
    for slot in range(K.width):
        lhs, rhs = phi(B.derive(e, slot)), K.derive(phi(e), slot)
        yield _law(K.ring, premise, lhs, rhs, law=law, slot=slot)


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
    spec_a = MorphismSpec(source=A.differential_ring(), coefficients=K, phi=phi, trunc=size.trunc)
    spec_b = MorphismSpec(source=_symbolic(B), coefficients=K, phi=psi, trunc=size.trunc)
    a = A.sample(rng, size.degree)
    included = A.substitution(B, B.constant, lambda sym: B.symbol(*sym))(a)  # A in B
    inputs = lambda: {
        "coefficients": kdesc,
        "values": B.values_to_json(values),
        "argument": A.element_to_json(a),
    }
    H = spec_a.target
    for name, fn, *_ in _applicable(constant_coeffs, K):
        via_a, via_b = fn(spec_a, a), fn(spec_b, included)
        yield _law(H, inputs, via_a, via_b, size.trunc, constructor=name)


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
    yield _law(H, lambda: {**desc, "argument": series_to_json(a)}, rhs, lhs, a.valid)


@_register("twist-inverse")
def _check_twist_inverse(rng: random.Random, size: Size, ordinal: int) -> Laws:
    structure, desc = _random_structure(rng, size)
    K = structure.ring
    H = HurwitzRing(K, structure.width, size.trunc)
    a = H.sample(rng, size.degree)
    back = ev_untwist(ev_twist(a, structure.derivations), structure.derivations)
    yield _law(H, lambda: {**desc, "argument": series_to_json(a)}, a, back, a.valid)


@_register("divided-bridge")
def _check_divided_bridge(rng: random.Random, size: Size, ordinal: int) -> Laws:
    """Dividing the Hurwitz-side images by factorials gives the divided images."""
    constant_coeffs = ordinal % 2 == 0
    K, kdesc = _random_structure(rng, size, constant=constant_coeffs, char_zero_only=True)
    spec, A, sdesc = _diffpoly_spec(K, size.trunc, rng, size.degree, chain=False)
    a = A.sample(rng, size.degree)
    H = spec.target
    inputs = lambda: {"coefficients": kdesc, "source": sdesc(), "argument": A.element_to_json(a)}
    lhs, rhs = H.to_divided(twisted_hurwitz(spec, a)), twisted_taylor(spec, a)
    pair = ["twisted_hurwitz", "twisted_taylor"]
    yield _law(H, inputs, rhs, lhs, size.trunc, pair=pair)
    if constant_coeffs:
        lhs, rhs = H.to_divided(hurwitz_morphism(spec, a)), classical_taylor(spec, a)
        pair = ["hurwitz_morphism", "classical_taylor"]
        yield _law(H, inputs, rhs, lhs, size.trunc, pair=pair)


@_register("divided-derivative")
def _check_divided_derivative(rng: random.Random, size: Size, ordinal: int) -> Laws:
    """The divided bridge turns shift derivations into formal derivatives."""
    base = _pick_base(rng, char_zero_only=True)
    K: Ring = base if rng.random() < 0.5 else PolynomialRing(base, ["u"])
    H = HurwitzRing(K, rng.randint(1, size.width), size.trunc)
    a = H.sample(rng, size.degree)
    inputs = lambda: {"ring": H.to_json(), "element": series_to_json(a)}
    back = H.from_divided(H.to_divided(a))
    yield _law(H, inputs, a, back, size.trunc, law="bridge_roundtrip")
    for slot in range(H.width):
        yield _law(
            H,
            inputs,
            H.formal_derive(H.to_divided(a), slot),
            H.to_divided(H.shift_derive(a, slot)),
            size.trunc - 1,
            law="derivative_intertwine",
            slot=slot,
        )


@_register("morphism-laws")
def _check_morphism_laws(rng: random.Random, size: Size, ordinal: int) -> Laws:
    """Each constructor is additive, multiplicative, unital, and differential."""
    constant_coeffs = ordinal % 2 == 0
    K, kdesc = _random_structure(rng, size, constant=constant_coeffs)
    spec, A, sdesc = _diffpoly_spec(K, size.trunc, rng, size.degree, chain=False)
    a, b = A.sample(rng, size.degree), A.sample(rng, size.degree)
    H = spec.target
    inputs = lambda: {
        "coefficients": kdesc,
        "source": sdesc(),
        "arguments": [A.element_to_json(a), A.element_to_json(b)],
    }

    # the product side runs the derived path, which never calls H.mul
    twin = MorphismSpec(source=_symbolic(A), coefficients=K, phi=spec.phi, trunc=size.trunc)
    for name, fn, needs_constant, divided in _applicable(constant_coeffs, K):
        Ta, Tb = fn(spec, a), fn(spec, b)
        got = fn(spec, A.add(a, b))
        yield _law(H, inputs, H.add(Ta, Tb), got, size.trunc, constructor=name, law="additive")
        got = fn(twin, A.mul(a, b))
        want = (H.cauchy_mul if divided else H.mul)(Ta, Tb)
        yield _law(H, inputs, want, got, size.trunc, constructor=name, law="multiplicative")
        got = fn(spec, A.one())
        yield _law(H, inputs, H.one(), got, size.trunc, constructor=name, law="unital")
        structure = H.differential_structure(
            None if needs_constant else K.derivations, divided
        )
        for slot in range(H.width):
            got = fn(spec, A.derive(a, slot))
            want = structure.derive(Ta, slot)
            case = {"constructor": name, "law": "differential", "slot": slot}
            yield _law(H, inputs, want, got, size.trunc - 1, **case)
