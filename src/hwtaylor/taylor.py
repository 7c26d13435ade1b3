"""Expansion maps from a differential ring into truncated Hurwitz series.

Given a ring map phi from the source carrier A into the coefficient ring K,
every constructor starts from the same raw series: coefficient beta is phi of
the beta-th iterated source derivative of the argument.  The four
constructors are that series read in four ways:

* ``hurwitz_morphism``: the raw series itself.  Needs the coefficient
  derivations to vanish on it; works in any characteristic.
* ``classical_taylor``: ``to_divided`` of ``hurwitz_morphism``, so
  coefficient alpha is divided by alpha factorial.  Needs constant
  coefficients and a ring containing the rationals.
* ``twisted_hurwitz``: ``ev_untwist`` of the raw series by the coefficient
  derivations, which is the signed sum over gamma <= alpha of
  (-1)^{|gamma|} binom(alpha, gamma) delta^gamma(phi(d^{alpha-gamma} a)).
  No restrictions; the twist cancels whatever the coefficient derivations do.
* ``twisted_taylor``: ``to_divided`` of ``twisted_hurwitz``; rational
  algebras only.

The raw series is computed one of two ways.  When the source is a
``DiffPolyRing``'s own ``differential_ring()``, it is evaluated (Taylor
mode): Hurwitz series are cofree, so the raw series is the ring map into
``(H(K), mul)`` that ``DiffPolyRing.substitution`` builds from symbol and
coefficient series, the evaluator ``value_hom`` and ``evaluate`` use too;
the source is never derived.  Every other source (``self``, a series ring,
a twin structure with the same derivations) and every argument whose
evaluation meets a symbol the value table does not cover derive the
argument once per multi-index and apply phi to each derivative.  Both give
the same series; the check suite compares them.

``ev_twist`` reshuffles an existing series by a commuting family acting on
its coefficients; composing twists adds the families, and twisting by the
negated family inverts.  All of this is exact; validity orders pass through
untouched because the twist only ever reads coefficients at or below the
index it writes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterator, Sequence

from .diffpoly import DiffPolyRing, UncoveredSymbolError
from .hurwitz import HurwitzRing, HurwitzSeries, plan_for
from .multiindex import MultiIndex
from .rings import Derivation, DifferentialRing, DomainError, Element, Ring


@dataclass(frozen=True, eq=False)
class MorphismSpec:
    """A source structure, a coefficient structure, and a ring map between.

    That ``phi`` is a ring map is the caller's premise and is not checked
    here: the check suite states it once, as ``ev1``'s laws on the value maps
    it draws.  Both structures must have the same number of derivation
    slots.  ``target``, the series ring of the spec's width and truncation
    over the coefficient ring, is built once, and it checks the truncation.

    ``_raw`` maps each argument to its raw series, so the four constructors
    applied to one argument compute it once, and ``_untwisted`` maps it to
    ``ev_untwist`` of that series, so ``twisted_hurwitz`` and
    ``twisted_taylor`` untwist it once.  ``_symbols`` maps the id of each
    symbol that Taylor mode has read to ``phi`` of that symbol, so every
    argument evaluated on this spec applies ``phi`` to each symbol once.
    ``dataclasses.replace`` starts every memo fresh.
    """

    source: DifferentialRing
    coefficients: DifferentialRing
    phi: Callable[[Element], Element]
    trunc: int
    target: HurwitzRing = field(init=False, repr=False)
    _raw: dict = field(default_factory=dict, init=False, repr=False)
    _untwisted: dict = field(default_factory=dict, init=False, repr=False)
    _symbols: dict = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self) -> None:
        if self.source.width != self.coefficients.width:
            raise ValueError(
                f"width mismatch: source has {self.source.width} derivations,"
                f" coefficients have {self.coefficients.width}"
            )
        target = HurwitzRing(self.coefficients.ring, self.width, self.trunc)
        object.__setattr__(self, "target", target)

    @property
    def width(self) -> int:
        return self.source.width


def derivative_table(
    structure: DifferentialRing, a: Element, upto: int
) -> dict[MultiIndex, Element]:
    """All iterated derivatives of ``a`` with order degree <= upto."""
    plan = plan_for(structure.width, upto)
    return dict(zip(plan.indices, _derivatives(structure, a, plan.parents)))


def _stays_zero(R: Ring) -> Callable[[Element], bool]:
    """The test for a value of ``R`` whose derivatives are that value.

    The premise is that a derivation sends zero to zero, as every derivation
    does, so the family is never called on a zero.  A series is the
    exception: its derivations lower its valid order, so a zero series is a
    zero of fewer valid grades, and over a series ring every value is derived.
    """
    return (lambda _: False) if isinstance(R, HurwitzRing) else R.is_zero


def _derivatives(
    structure: DifferentialRing, a: Element, parents: Sequence[tuple[int, int]]
) -> Iterator[Element]:
    """Iterated derivatives of ``a`` by position: ``a``, then one per parent.

    Graded-lex order puts each index after its parent (the index with one
    step less in its first nonzero slot), so every value is derived exactly
    once, from an already computed one.  A value is let go once its last
    child is derived, so about two grades are held at a time, not all: the
    high derivatives of a differential polynomial are the largest values the
    check suite builds.

    It serves the derived raw series, the coefficient series of Taylor mode
    and ``derivative_table``.  Each live value carries a zero flag, and a
    zero's children are that zero, yielded without calling the derivation
    (``_stays_zero``).
    """
    is_zero = _stays_zero(structure.ring)
    last_child = {q: p for p, (q, _) in enumerate(parents, 1)}
    live = {0: (a, is_zero(a))}
    yield a
    for p, (q, slot) in enumerate(parents, 1):
        value, zero = live[q]
        if not zero:
            value = structure.derive(value, slot)
        if last_child[q] == p:
            del live[q]
        if p in last_child:
            live[p] = (value, zero or is_zero(value))
        yield value


def _taylor_raw(spec: MorphismSpec, a: Element) -> HurwitzSeries | None:
    """The raw series of a differential polynomial, evaluated instead of derived.

    The raw series is a ring map into ``(H(K), mul)`` (Hurwitz series are
    cofree), so it is the ``DiffPolyRing.substitution`` that sends symbol
    (x, o) to ``beta -> phi(x at order o + beta)`` and a coefficient c to
    ``beta -> phi(delta^beta c)``.  It runs on symbol ids: the ids of a
    symbol's derivatives come from the codec's shifts, one step from each
    parent in the plan.  Symbol images are read from the spec's
    ``_symbols`` table, which keeps only images ``phi`` returned, so a symbol
    that raised raises again for the next argument that reads it.  Only the
    source ``differential_ring()`` of a ``DiffPolyRing`` is taken.  ``None``
    means the derived path must run: another source, or a ``phi`` that
    raised ``UncoveredSymbolError``.
    Over ``F_p`` the derived path can skip a symbol this one reads
    (``D(x^p) = 0``), so it decides whether the table covers the argument
    and which error to raise.
    """
    A = spec.source.ring
    if not isinstance(A, DiffPolyRing) or spec.source is not A.differential_ring():
        return None
    H, K = spec.target, spec.coefficients.ring
    plan, phi, trunc = H.plan, spec.phi, spec.trunc
    is_zero = A.base.ring.is_zero
    images = spec._symbols

    def coefficient_series(c: Element) -> HurwitzSeries:
        derived = _derivatives(A.base, c, plan.parents)
        return H._from_entries(
            [K.zero() if is_zero(d) else phi(A.constant(d)) for d in derived], trunc
        )

    def image(i: int) -> Element:
        value = images.get(i)
        if value is None:
            value = images[i] = phi(A._symbol_of(i))
        return value

    def symbol_series(i: int) -> HurwitzSeries:
        # the ids of the symbol's derivatives, each one shift from its parent's
        ids = [i]
        for q, slot in plan.parents:
            ids.append(A._codec.shift(ids[q], slot))
        return H._from_entries([image(j) for j in ids], trunc)

    try:
        return A._substitution(H, coefficient_series, symbol_series)(a)
    except UncoveredSymbolError:
        return None


def _raw_series(spec: MorphismSpec, a: Element) -> HurwitzSeries:
    """Coefficient beta is phi of the beta-th source derivative of ``a``."""
    raw = spec._raw.get(a)
    if raw is None:
        raw = _taylor_raw(spec, a)
        if raw is None:
            H = spec.target
            derived = _derivatives(spec.source, a, H.plan.parents)
            raw = H._from_entries(map(spec.phi, derived), spec.trunc)
        spec._raw[a] = raw
    return raw


def _require_constant_coefficients(spec: MorphismSpec, raw: HurwitzSeries) -> None:
    K = spec.coefficients.ring
    for p, v in enumerate(raw.entries):
        for slot, d in enumerate(spec.coefficients.derivations):
            if not K.is_zero(d(v)):
                beta = spec.target.plan.indices[p].entries
                raise DomainError(
                    "constructor needs constant coefficients: derivation slot"
                    f" {slot} does not vanish on phi applied to the derivative"
                    f" at order {beta}"
                )


def hurwitz_morphism(spec: MorphismSpec, a: Element) -> HurwitzSeries:
    """Coefficient alpha is phi of the alpha-th source derivative of ``a``."""
    raw = _raw_series(spec, a)
    _require_constant_coefficients(spec, raw)
    return raw


def classical_taylor(spec: MorphismSpec, a: Element) -> HurwitzSeries:
    """Divided coefficients: phi of the alpha-th derivative over alpha factorial."""
    spec.target.require_divided()
    return spec.target.to_divided(hurwitz_morphism(spec, a))


def twisted_hurwitz(spec: MorphismSpec, a: Element) -> HurwitzSeries:
    """The raw series untwisted by the coefficient derivations; any characteristic."""
    untwisted = spec._untwisted.get(a)
    if untwisted is None:
        raw = _raw_series(spec, a)
        untwisted = spec._untwisted[a] = ev_untwist(raw, spec.coefficients.derivations)
    return untwisted


def twisted_taylor(spec: MorphismSpec, a: Element) -> HurwitzSeries:
    """Divided form of ``twisted_hurwitz``; rational algebras only."""
    spec.target.require_divided()
    return spec.target.to_divided(twisted_hurwitz(spec, a))


# (name, fn, needs constant coefficients, divided): the one table of the four
# constructors.  A divided entry is a ring map for ``cauchy_mul`` rather than
# ``mul``, and is defined over rational algebras only.  The order is the
# check order: a failing check instance reports its first failing constructor.
CONSTRUCTIONS: tuple[tuple[str, Callable, bool, bool], ...] = (
    ("classical_taylor", classical_taylor, True, True),
    ("hurwitz_morphism", hurwitz_morphism, True, False),
    ("twisted_taylor", twisted_taylor, False, True),
    ("twisted_hurwitz", twisted_hurwitz, False, False),
)


def ev_twist(a: HurwitzSeries, family: Sequence[Derivation]) -> HurwitzSeries:
    """Reshuffle a series by a commuting family acting on its coefficients.

    Coefficient alpha of the result is the sum over gamma <= alpha of
    binom(alpha, gamma) family^gamma of coefficient alpha - gamma, where
    family^gamma applies slot 0 last.  Both the binomial and family^gamma
    split by slot, so the twist is the one-slot twists T_0 o ... o T_{m-1},
    and this runs them as m passes, last slot first.  Pass i walks the
    plan's ``lines[i]`` (positions beta + n e_i for beta with beta_i = 0):
    entry n of a line reads the chain family[i]^k of entry n - k, and is one
    ``combine`` of the coefficient ring with the weights binom(n, k), read
    from the plan's rows of the pure powers n e_i.  So only one line's
    chains are live at a time, and the family is called m C(trunc + m,
    m + 1) times at most, not once per (index, gamma) pair.

    The valid order is preserved: index alpha only reads indices of degree
    <= alpha and coefficient derivations cost nothing.  A zero's chain is
    that zero, without a family call (``_stays_zero``).
    """
    if len(family) != a.width:
        raise ValueError(
            f"need {a.width} twisting derivations, got {len(family)}"
        )
    K = a.ring
    H = HurwitzRing(K, a.width, a.trunc)
    plan = H.plan
    is_zero = _stays_zero(K)
    combine = K.combine
    entries = list(a.entries)
    for slot in reversed(range(a.width)):
        derive = family[slot]
        lines = plan.lines[slot]
        binomials = [plan.rows[p][2] for p in lines[0]]
        for line in lines:
            # entry n feeds the line's outputs n..top, so it needs top - n steps
            top = len(line) - 1
            chains = []
            for n, p in enumerate(line):
                chain = [entries[p]]
                for _ in range(top - n):
                    last = chain[-1]
                    chain.append(last if is_zero(last) else derive(last))
                chains.append(chain)
            for n, p in enumerate(line):
                entries[p] = combine(binomials[n], [chains[n - k][k] for k in range(n + 1)])
    return H._from_entries(entries, a.valid)


def ev_untwist(a: HurwitzSeries, family: Sequence[Derivation]) -> HurwitzSeries:
    """Inverse reshuffle: twist by the negated family."""
    K = a.ring
    negated = tuple((lambda x, d=d: K.neg(d(x))) for d in family)
    return ev_twist(a, negated)
