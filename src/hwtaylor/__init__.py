"""Truncated Hurwitz series with exact coefficient arithmetic.

The package builds truncated multivariate Hurwitz series rings over exact
coefficient carriers (rationals, prime fields, polynomial rings), expands
ring elements into them through four Taylor-style constructions, twists
series along commuting derivation families, and machine-checks the
identities all of this rests on.

Layers, bottom up:

``multiindex``
    Exponent tuples and their graded-lex enumeration.
``rings``
    Coefficient carriers as descriptor objects over plain values, with
    derivations, differential structures, and JSON descriptors.
``hurwitz``
    The truncated series ring: binomial-convolution product, shift and
    lifted derivations, inversion, the divided-power bridge, twist maps'
    substrate, and series (de)serialization.
``diffpoly``
    Differential polynomial rings: free symbols closed under the
    derivation family, with evaluation and value-table algebra maps.
``taylor``
    The four expansion constructions and the evaluation twist maps.
``checks``
    Seeded, shrinking, byte-deterministic identity checks.  Loaded on first
    use: importing the package or running ``expand`` does not import it.
``cli``
    ``hwtaylor expand | check | selftest``.
"""

from .diffpoly import DiffPolynomial, DiffPolyRing, UncoveredSymbolError
from .hurwitz import (
    HurwitzRing,
    HurwitzSeries,
    TruncationError,
    series_from_json,
    series_to_json,
)
from .multiindex import MultiIndex, count_upto, enumerate_upto, iter_dominated
from .rings import (
    QQ,
    DifferentialRing,
    DomainError,
    MixedRingError,
    NotUnitError,
    PolynomialRing,
    PrimeField,
    RationalField,
    Ring,
    RingError,
    constant_structure,
    differential_polynomial_carrier,
    ring_from_json,
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

__version__ = "0.1.0"

__all__ = [
    "CheckConfig",
    "CheckReport",
    "DiffPolyRing",
    "DiffPolynomial",
    "DifferentialRing",
    "DomainError",
    "Failure",
    "HurwitzRing",
    "HurwitzSeries",
    "MixedRingError",
    "MorphismSpec",
    "MultiIndex",
    "NotUnitError",
    "PolynomialRing",
    "PrimeField",
    "QQ",
    "RationalField",
    "Ring",
    "RingError",
    "TruncationError",
    "UncoveredSymbolError",
    "UnknownCheckError",
    "check_names",
    "classical_taylor",
    "constant_structure",
    "count_upto",
    "derivative_table",
    "differential_polynomial_carrier",
    "enumerate_upto",
    "ev_twist",
    "ev_untwist",
    "hurwitz_morphism",
    "iter_dominated",
    "reports_to_jsonl",
    "ring_from_json",
    "run_check",
    "run_suite",
    "series_from_json",
    "series_to_json",
    "twisted_hurwitz",
    "twisted_taylor",
]

# the check suite and its names, resolved on first access (PEP 562)
_CHECK_NAMES = frozenset(
    {
        "checks",
        "CheckConfig",
        "CheckReport",
        "Failure",
        "UnknownCheckError",
        "check_names",
        "reports_to_jsonl",
        "run_check",
        "run_suite",
    }
)


def __getattr__(name: str) -> object:
    if name in _CHECK_NAMES:
        from importlib import import_module

        # ``from . import checks`` would look ``checks`` up on this module
        # and land here again
        checks = import_module(".checks", __name__)
        return checks if name == "checks" else getattr(checks, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
