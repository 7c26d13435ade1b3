"""Truncated Hurwitz series over an exact coefficient ring.

A series stores one coefficient per multi-index of total degree up to the
truncation order, as one tuple in graded-lex order: position p holds the
coefficient of ``HurwitzRing.indices[p]``.  The product weights convolution
terms by componentwise binomials, which keeps the shift maps (drop the
constant layer, pull every coefficient down one step in a slot) derivations
in every characteristic; no denominators ever appear.  Over rings containing
the rationals this is the familiar divided-power presentation of power
series: ``to_divided`` divides coefficient alpha by alpha factorial and turns
the shift maps into the ordinary formal partial derivatives.

Every index-shaped loop runs on a ``Plan``, the integer tables of one
(width, trunc) shape: for each output position the (beta, alpha - beta,
binomial) positions of the convolution, for each slot the shift map and the
lines of indices along it, the parent of each index, and the factorials.
Operations never build or compare a ``MultiIndex``.  Both products and the
inverse are one call of the coefficient ring's bilinear kernel ``Ring.dot``
on the plan's rows: ``mul`` with the binomials as weights, ``cauchy_mul``
with unit weights, and ``invert`` on the series it is solving for, one row
at a time.  ``taylor.ev_twist`` runs one slot at a time along the lines,
weighting by the binomials of the rows of pure powers.

Validity bookkeeping: each series carries ``valid <= trunc``, the order up
to which its coefficients are trustworthy.  A shift derivation consumes one
grade (``valid`` drops by 1), binary operations take the minimum, and the
coefficientwise lift of a base derivation is free.  Comparisons must state
the order they compare at, as ``agree_up_to`` does.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import product, repeat
from types import MappingProxyType
from typing import Any, Iterable, Mapping, Sequence

from .multiindex import MultiIndex, count_upto, enumerate_upto
# unused here: the benchmark's tracer test (perfbench/tests) watches hurwitz.iter_dominated
from .multiindex import iter_dominated
from .rings import (
    Derivation,
    DifferentialRing,
    DomainError,
    Element,
    MixedRingError,
    NotUnitError,
    Ring,
    RingError,
    _canonical_json,
    _expect_element,
    _expect_int,
    _expect_object,
    _field,
    _reject_unknown,
    ring_from_json,
)


# Largest width and truncation a series document or check config may ask for;
# a series table has C(m + trunc, m) entries.
MAX_WIDTH = 3
MAX_TRUNC = 12


class TruncationError(RingError):
    """A derivation was applied to a series with no valid grades left."""


class Plan:
    """Integer tables for every index-shaped loop at one (width, trunc).

    Positions count ``indices``, the graded-lex enumeration.

    * ``rows[p]``: for the index alpha at position p, three parallel tuples
      over beta <= alpha in ``itertools.product`` order: the positions of
      beta, the positions of alpha - beta, and binom(alpha, beta), the
      product of the componentwise binomials.
    * ``shifts[slot][p]``: ``(q, k)`` with q the position of alpha + e_slot
      and k = alpha[slot] + 1, for every position p below the top grade.
    * ``lines[slot]``: for every beta with beta[slot] = 0, in graded-lex
      order, the positions of beta, beta + e_slot, beta + 2 e_slot, ... up to
      the top grade.  ``lines[slot][0]`` is the line of the pure powers
      n e_slot, whose rows hold the binomials binom(n, k).
    * ``parents[p - 1]``: ``(q, slot)`` for every position p > 0, where slot
      is the first nonzero slot of alpha and q the position of
      alpha - e_slot.  A prefix of it serves every smaller truncation.
    * ``factorials[p]``: alpha!.

    The constructor works on entry tuples and builds no ``MultiIndex``:
    positions are keyed by ``alpha.entries``, the positions of alpha +- e_slot
    come from tuple arithmetic, and no alpha - beta is built.  The betas run
    through the box below alpha in ``itertools.product`` order, and
    beta -> alpha - beta reverses that order, so the second tuple of each row
    is the first one reversed.  The weights are fixed when the plan is built.
    """

    def __init__(self, width: int, trunc: int):
        self.indices = enumerate_upto(width, trunc)
        entries = [alpha.entries for alpha in self.indices]
        pos = {e: p for p, e in enumerate(entries)}

        def moved(e: tuple[int, ...], slot: int, step: int) -> int:
            return pos[(*e[:slot], e[slot] + step, *e[slot + 1 :])]

        rows = []
        for alpha in entries:
            betas = list(product(*(range(k + 1) for k in alpha)))
            left = tuple([pos[beta] for beta in betas])
            weights = tuple([math.prod(map(math.comb, alpha, beta)) for beta in betas])
            rows.append((left, left[::-1], weights))
        self.rows = tuple(rows)
        below_top = entries[: count_upto(width, trunc - 1)] if trunc else ()
        self.shifts = tuple(
            tuple((moved(e, slot, 1), e[slot] + 1) for e in below_top) for slot in range(width)
        )
        self.lines = tuple(
            tuple(
                tuple(pos[(*e[:slot], n, *e[slot + 1 :])] for n in range(trunc - sum(e) + 1))
                for e in entries
                if not e[slot]
            )
            for slot in range(width)
        )
        first_slots = ((e, next(s for s, k in enumerate(e) if k)) for e in entries[1:])
        self.parents = tuple((moved(e, s, -1), s) for e, s in first_slots)
        self.factorials = tuple(math.prod(map(math.factorial, e)) for e in entries)


_PLANS: dict[tuple[int, int], Plan] = {}


def plan_for(width: int, trunc: int) -> Plan:
    """The plan of shape (width, trunc), built on first use and kept.

    A plan depends on its shape alone.  Code that patches ``Plan`` (a
    seeded bug in a test) must start from an empty ``_PLANS`` to see its
    weights.
    """
    plan = _PLANS.get((width, trunc))
    if plan is None:
        plan = _PLANS[width, trunc] = Plan(width, trunc)
    return plan


@dataclass(frozen=True, eq=False)
class HurwitzSeries:
    """Dense coefficients over all indices of total degree <= trunc.

    ``entries`` holds one coefficient per index, in graded-lex order (the
    order of ``HurwitzRing.indices``); ``coeffs`` is a read-only view of it
    keyed by multi-index.  ``valid`` bounds the grades that carry
    information; the table always spans the full truncation box so
    arithmetic never branches on shape.  Use the owning ``HurwitzRing`` for
    every operation.
    """

    ring: Ring
    width: int
    trunc: int
    valid: int
    entries: tuple[Element, ...]

    def __post_init__(self) -> None:
        if not 0 <= self.valid <= self.trunc:
            raise ValueError(f"valid order {self.valid} outside [0, {self.trunc}]")
        if not isinstance(self.entries, tuple):
            raise TypeError("series entries must be a tuple in graded-lex order")
        if len(self.entries) != count_upto(self.width, self.trunc):
            raise ValueError("coefficient table does not span the truncation box")

    @cached_property
    def coeffs(self) -> Mapping[MultiIndex, Element]:
        """Coefficients keyed by multi-index, iterating in graded-lex order."""
        indices = enumerate_upto(self.width, self.trunc)
        return MappingProxyType(dict(zip(indices, self.entries)))

    def coeff(self, alpha: MultiIndex) -> Element:
        return self.coeffs[alpha]

    def constant_term(self) -> Element:
        return self.entries[0]


class HurwitzRing(Ring):
    """Descriptor for truncated Hurwitz series over ``coeff_ring``."""

    def __init__(self, coeff_ring: Ring, width: int, trunc: int):
        if width < 1:
            raise ValueError("need at least one series variable")
        if trunc < 0:
            raise ValueError("truncation order must be nonnegative")
        self.coeff_ring = coeff_ring
        self.width = width
        self.trunc = trunc
        self.characteristic = coeff_ring.characteristic

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, HurwitzRing)
            and other.coeff_ring == self.coeff_ring
            and other.width == self.width
            and other.trunc == self.trunc
        )

    def __hash__(self) -> int:
        return hash(("HurwitzRing", self.coeff_ring, self.width, self.trunc))

    def __repr__(self) -> str:
        return f"H({self.coeff_ring!r}; width={self.width}, trunc={self.trunc})"

    @property
    def indices(self) -> tuple[MultiIndex, ...]:
        return enumerate_upto(self.width, self.trunc)

    @property
    def plan(self) -> Plan:
        return plan_for(self.width, self.trunc)

    def from_table(
        self, table: Mapping[MultiIndex, Element], valid: int | None = None
    ) -> HurwitzSeries:
        """Build a series, filling unmentioned indices with zero."""
        zero = self.coeff_ring.zero()
        return self._from_entries(
            [table.get(alpha, zero) for alpha in self.indices],
            self.trunc if valid is None else valid,
        )

    def _from_entries(self, entries: Iterable[Element], valid: int) -> HurwitzSeries:
        """Build a series from its coefficients in graded-lex order."""
        return HurwitzSeries(self.coeff_ring, self.width, self.trunc, valid, tuple(entries))

    def _check(self, a: HurwitzSeries) -> None:
        if a.ring != self.coeff_ring or a.width != self.width or a.trunc != self.trunc:
            raise MixedRingError(f"series does not belong to {self!r}")

    def _check_pair(self, a: HurwitzSeries, b: HurwitzSeries) -> None:
        self._check(a)
        self._check(b)

    def zero(self) -> HurwitzSeries:
        return self.embed(self.coeff_ring.zero())

    def one(self) -> HurwitzSeries:
        return self.embed(self.coeff_ring.one())

    def embed(self, c: Element) -> HurwitzSeries:
        """Constant series: c at the zero index, zero elsewhere."""
        zero = self.coeff_ring.zero()
        size = count_upto(self.width, self.trunc)
        return self._from_entries((c,) + (zero,) * (size - 1), self.trunc)

    def indeterminate(self, slot: int) -> HurwitzSeries:
        """The series variable for ``slot``: 1 at the unit index."""
        if self.trunc < 1:
            raise DomainError("truncation order 0 has no room for a variable")
        return self.from_table(
            {MultiIndex.unit(self.width, slot): self.coeff_ring.one()}
        )

    def ev(self, a: HurwitzSeries) -> Element:
        """Constant-term map; a ring map back to the coefficients."""
        self._check(a)
        return a.constant_term()

    def add(self, a: HurwitzSeries, b: HurwitzSeries) -> HurwitzSeries:
        self._check_pair(a, b)
        return self._from_entries(
            map(self.coeff_ring.add, a.entries, b.entries), min(a.valid, b.valid)
        )

    def neg(self, a: HurwitzSeries) -> HurwitzSeries:
        self._check(a)
        return self._from_entries(map(self.coeff_ring.neg, a.entries), a.valid)

    def mul(self, a: HurwitzSeries, b: HurwitzSeries) -> HurwitzSeries:
        """Binomial-weighted convolution, the product of the Hurwitz reading."""
        self._check_pair(a, b)
        rows = self.coeff_ring.dot(a.entries, b.entries, self.plan.rows)
        return self._from_entries(rows, min(a.valid, b.valid))

    def cauchy_mul(self, a: HurwitzSeries, b: HurwitzSeries) -> HurwitzSeries:
        """Plain convolution, the product of the divided reading.

        Tables produced by ``to_divided`` multiply with this product, not
        with ``mul``: the factorial rescaling turns the binomial-weighted
        convolution into the unweighted one.  The operation itself makes
        sense over any coefficient ring.
        """
        self._check_pair(a, b)
        ones = repeat(1)
        plain = ((left, right, ones) for left, right, _ in self.plan.rows)
        rows = self.coeff_ring.dot(a.entries, b.entries, plain)
        return self._from_entries(rows, min(a.valid, b.valid))

    def eq(self, a: HurwitzSeries, b: HurwitzSeries) -> bool:
        """Exact table equality over the whole truncation box.

        Validity is bookkeeping about trustworthiness, not part of the value;
        use ``agree_up_to`` for the comparison that respects it.
        """
        self._check_pair(a, b)
        return all(map(self.coeff_ring.eq, a.entries, b.entries))

    def agree_up_to(self, a: HurwitzSeries, b: HurwitzSeries, order: int) -> bool:
        """Coefficientwise equality for all indices of total degree <= order."""
        self._check_pair(a, b)
        if order > min(a.valid, b.valid):
            raise ValueError(
                f"comparison order {order} exceeds valid orders {a.valid}, {b.valid}"
            )
        if order < 0:
            raise ValueError(f"comparison order {order} is negative")
        n = count_upto(self.width, order)
        return all(map(self.coeff_ring.eq, a.entries[:n], b.entries[:n]))

    def embed_int(self, n: int) -> HurwitzSeries:
        return self.embed(self.coeff_ring.embed_int(n))

    def is_unit(self, a: HurwitzSeries) -> bool:
        """Units are exactly the series whose constant term is a unit."""
        self._check(a)
        return self.coeff_ring.try_invert(a.constant_term()) is not None

    def try_invert(self, a: HurwitzSeries) -> HurwitzSeries | None:
        return self.invert(a) if self.is_unit(a) else None

    def invert(self, a: HurwitzSeries) -> HurwitzSeries:
        """Grade-by-grade solve of a * b = 1; needs only a unit constant term."""
        self._check(a)
        K = self.coeff_ring
        c0inv = K.try_invert(a.constant_term())
        if c0inv is None:
            raise NotUnitError("not a unit: the constant term is not invertible")
        # for alpha > 0, a * b = 1 reads a[0] * b[alpha] + (row alpha of
        # (a - a[0]) * b) = 0: with a zero at position 0, row alpha reads only
        # the entries of ``table`` already solved, and the rest are zero
        # placeholders until their own row is yielded
        zero = K.zero()
        x = (zero,) + a.entries[1:]
        table = [zero] * len(x)
        for p, acc in enumerate(K.dot(x, table, self.plan.rows)):
            table[p] = K.neg(K.mul(c0inv, acc)) if p else c0inv
        return self._from_entries(table, a.valid)

    def _shift(self, a: HurwitzSeries, slot: int, what: str) -> tuple[tuple[int, int], ...]:
        """The shift map of ``slot``, after the checks every index derivation makes."""
        self._check(a)
        if a.valid <= 0:
            raise TruncationError(f"{what} exhausts truncation: no valid grades left")
        if not 0 <= slot < self.width:
            raise ValueError(f"slot {slot} out of range for width {self.width}")
        return self.plan.shifts[slot]

    def _pad(self, entries: list[Element], valid: int) -> HurwitzSeries:
        """Complete a shifted table, which stops below the top grade, with zeros."""
        zero = self.coeff_ring.zero()
        missing = count_upto(self.width, self.trunc) - len(entries)
        return self._from_entries(entries + [zero] * missing, valid)

    def shift_derive(self, a: HurwitzSeries, slot: int) -> HurwitzSeries:
        """Pull every coefficient down one step in ``slot``; costs one grade."""
        shift = self._shift(a, slot, "shift derivation")
        x = a.entries
        return self._pad([x[q] for q, _ in shift], a.valid - 1)

    def coeff_derive(
        self, a: HurwitzSeries, delta: Sequence[Derivation], slot: int
    ) -> HurwitzSeries:
        """Apply the base derivation for ``slot`` to every coefficient."""
        self._check(a)
        if not 0 <= slot < len(delta):
            raise ValueError(f"slot {slot} out of range for {len(delta)} derivations")
        return self._from_entries(map(delta[slot], a.entries), a.valid)

    def formal_derive(self, a: HurwitzSeries, slot: int) -> HurwitzSeries:
        """Ordinary partial derivative in the divided-power reading."""
        shift = self._shift(a, slot, "formal derivative")
        K, x = self.coeff_ring, a.entries
        return self._pad([K.mul(K.embed_int(k), x[q]) for q, k in shift], a.valid - 1)

    def _factorial_inverse(self, n: int) -> Element:
        inv = self.coeff_ring.try_invert(self.coeff_ring.embed_int(n))
        if inv is None:
            raise DomainError(
                f"coefficient ring does not invert {n}; divided form needs a"
                " ring containing the rationals"
            )
        return inv

    def require_divided(self) -> None:
        """Refuse unless the divided form exists: characteristic 0 only."""
        if self.characteristic != 0:
            raise DomainError(
                "divided form needs characteristic 0 coefficients, got"
                f" characteristic {self.characteristic}"
            )

    def to_divided(self, a: HurwitzSeries) -> HurwitzSeries:
        """Divide coefficient alpha by alpha factorial (rational algebras only)."""
        self._check(a)
        self.require_divided()
        K = self.coeff_ring
        cache: dict[int, Element] = {1: K.one()}
        entries = []
        for f, c in zip(self.plan.factorials, a.entries):
            if f not in cache:
                cache[f] = self._factorial_inverse(f)
            entries.append(K.mul(cache[f], c))
        return self._from_entries(entries, a.valid)

    def from_divided(self, a: HurwitzSeries) -> HurwitzSeries:
        """Multiply coefficient alpha by alpha factorial; inverse of to_divided."""
        self._check(a)
        K = self.coeff_ring
        return self._from_entries(
            (K.mul(K.embed_int(f), c) for f, c in zip(self.plan.factorials, a.entries)),
            a.valid,
        )

    def differential_structure(
        self, delta: Sequence[Derivation] | None = None, divided: bool = False
    ) -> DifferentialRing:
        """The series ring as a differential ring.

        Slot i acts by the shift derivation, or by ``formal_derive`` when
        ``divided`` (the divided reading), plus the coefficientwise lift of
        ``delta[i]`` when given.  The two pieces commute slotwise because
        coefficient maps ignore indices.
        """
        if delta is not None and len(delta) != self.width:
            raise ValueError(
                f"need {self.width} coefficient derivations, got {len(delta)}"
            )
        index_derive = self.formal_derive if divided else self.shift_derive

        def make(slot: int) -> Derivation:
            def derive(a: HurwitzSeries) -> HurwitzSeries:
                if delta is None:
                    return index_derive(a, slot)
                return self.add(self.coeff_derive(a, delta, slot), index_derive(a, slot))

            return derive

        return DifferentialRing(self, tuple(make(i) for i in range(self.width)))

    def render(self, a: HurwitzSeries) -> str:
        return _canonical_json(series_to_json(a))

    def sample(self, rng, degree: int = 2) -> HurwitzSeries:
        K = self.coeff_ring
        return self._from_entries(
            [K.sample(rng, degree) for _ in self.indices], self.trunc
        )

    def to_json(self) -> dict:
        return {
            "kind": "hurwitz",
            "coeff": self.coeff_ring.to_json(),
            "m": self.width,
            "trunc": self.trunc,
        }


def series_to_json(a: HurwitzSeries) -> dict:
    """Wire form: graded-lex coefficient list, zero coefficients omitted."""
    coeffs = []
    for alpha, c in zip(enumerate_upto(a.width, a.trunc), a.entries):
        if not a.ring.is_zero(c):
            coeffs.append([list(alpha.entries), a.ring.render(c)])
    return {
        "m": a.width,
        "trunc": a.trunc,
        "valid": a.valid,
        "ring": a.ring.to_json(),
        "coeffs": coeffs,
    }


def series_from_json(doc: Any, path: str = "series") -> HurwitzSeries:
    _expect_object(doc, path)
    _reject_unknown(doc, {"m", "trunc", "valid", "ring", "coeffs"}, path)
    for key in ("m", "trunc", "valid", "ring", "coeffs"):
        _field(doc, key, path)
    width = _expect_int(doc["m"], f"{path}.m", 1, MAX_WIDTH)
    trunc = _expect_int(doc["trunc"], f"{path}.trunc", 0, MAX_TRUNC)
    valid = _expect_int(doc["valid"], f"{path}.valid", 0, trunc)
    ring = ring_from_json(doc["ring"], f"{path}.ring")
    if not isinstance(doc["coeffs"], list):
        raise ValueError(f"{path}.coeffs: expected a list")
    H = HurwitzRing(ring, width, trunc)
    table: dict[MultiIndex, Element] = {}
    for pos, entry in enumerate(doc["coeffs"]):
        where = f"{path}.coeffs[{pos}]"
        if (
            not isinstance(entry, list)
            or len(entry) != 2
            or not isinstance(entry[0], list)
            or not isinstance(entry[1], str)
        ):
            raise ValueError(f"{where}: expected [index list, element string]")
        idx, text = entry
        if len(idx) != width:
            raise ValueError(f"{where}: index must be {width} nonnegative integers")
        alpha = MultiIndex(tuple(_expect_int(e, f"{where}[0]", 0, math.inf) for e in idx))
        if alpha.degree > trunc:
            raise ValueError(f"{where}: index degree {alpha.degree} exceeds trunc {trunc}")
        if alpha in table:
            raise ValueError(f"{where}: duplicate index {tuple(idx)}")
        table[alpha] = _expect_element(ring, text, where)
    return H.from_table(table, valid)
