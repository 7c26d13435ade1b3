"""Truncated Hurwitz series over an exact coefficient ring.

A series stores one coefficient per multi-index of total degree up to the
truncation order.  The product weights convolution terms by componentwise
binomials, which keeps the shift maps (drop the constant layer, pull every
coefficient down one step in a slot) derivations in every characteristic;
no denominators ever appear.  Over rings containing the rationals this is
the familiar divided-power presentation of power series: ``to_divided``
divides coefficient alpha by alpha factorial and turns the shift maps into
the ordinary formal partial derivatives.

One kernel, ``HurwitzRing.convolve``, owns the summation order and the
binomial weighting: ``mul`` and ``cauchy_mul`` are its weighted and
unweighted forms, ``invert`` solves it grade by grade, and
``taylor.ev_twist`` feeds it iterated coefficient derivatives.

Validity bookkeeping: each series carries ``valid <= trunc``, the order up
to which its coefficients are trustworthy.  A shift derivation consumes one
grade (``valid`` drops by 1), binary operations take the minimum, and the
coefficientwise lift of a base derivation is free.  Comparisons must state
the order they compare at; ``agree`` uses the shared valid order.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Any, Callable, Iterator, Mapping, Sequence

from .multiindex import MultiIndex, count_upto, enumerate_upto, iter_dominated
from .rings import (
    Derivation,
    DifferentialRing,
    DomainError,
    Element,
    MixedRingError,
    NotUnitError,
    Ring,
    RingError,
    _expect_int,
    _reject_unknown,
    ring_from_json,
)


class TruncationError(RingError):
    """A derivation was applied to a series with no valid grades left."""


@dataclass(frozen=True, eq=False)
class HurwitzSeries:
    """Dense coefficient table over all indices of total degree <= trunc.

    ``valid`` bounds the grades that carry information; the table always
    spans the full truncation box so arithmetic never branches on shape.
    Use the owning ``HurwitzRing`` for every operation.
    """

    ring: Ring
    width: int
    trunc: int
    valid: int
    coeffs: Mapping[MultiIndex, Element]

    def __post_init__(self) -> None:
        if not 0 <= self.valid <= self.trunc:
            raise ValueError(f"valid order {self.valid} outside [0, {self.trunc}]")
        if len(self.coeffs) != count_upto(self.width, self.trunc):
            raise ValueError("coefficient table does not span the truncation box")

    def coeff(self, alpha: MultiIndex) -> Element:
        return self.coeffs[alpha]

    def constant_term(self) -> Element:
        return self.coeffs[MultiIndex.zero(self.width)]


class HurwitzRing(Ring):
    """Descriptor for truncated Hurwitz series over ``coeff_ring``."""

    is_field = False

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

    def from_table(
        self, table: Mapping[MultiIndex, Element], valid: int | None = None
    ) -> HurwitzSeries:
        """Build a series, filling unmentioned indices with zero."""
        full = {
            alpha: table.get(alpha, self.coeff_ring.zero()) for alpha in self.indices
        }
        return HurwitzSeries(
            self.coeff_ring, self.width, self.trunc,
            self.trunc if valid is None else valid, full,
        )

    def _check(self, a: HurwitzSeries) -> None:
        if a.ring != self.coeff_ring or a.width != self.width or a.trunc != self.trunc:
            raise MixedRingError(f"series does not belong to {self!r}")

    def _check_pair(self, a: HurwitzSeries, b: HurwitzSeries) -> None:
        self._check(a)
        self._check(b)

    def zero(self) -> HurwitzSeries:
        return self.from_table({})

    def one(self) -> HurwitzSeries:
        return self.embed(self.coeff_ring.one())

    def embed(self, c: Element) -> HurwitzSeries:
        """Constant series: c at the zero index, zero elsewhere."""
        return self.from_table({MultiIndex.zero(self.width): c})

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
        K = self.coeff_ring
        table = {alpha: K.add(a.coeffs[alpha], b.coeffs[alpha]) for alpha in self.indices}
        return self.from_table(table, min(a.valid, b.valid))

    def neg(self, a: HurwitzSeries) -> HurwitzSeries:
        self._check(a)
        K = self.coeff_ring
        return self.from_table(
            {alpha: K.neg(a.coeffs[alpha]) for alpha in self.indices}, a.valid
        )

    def convolve(
        self, term: Callable[[MultiIndex, MultiIndex], Element], weighted: bool = True
    ) -> Iterator[tuple[MultiIndex, Element]]:
        """Rows of the convolution whose (beta, alpha - beta) entry is ``term``.

        Yields ``(alpha, sum over beta <= alpha of binom(alpha, beta) *
        term(beta, alpha - beta))`` in graded-lex order; ``weighted=False``
        drops the binomials.  Each row is computed only when it is asked for,
        so ``term`` may read rows the caller stored from earlier yields.
        Every product, the inverse and the evaluation twist are this loop.
        """
        K = self.coeff_ring
        add, mul = K.add, K.mul
        for alpha in self.indices:
            acc = K.zero()
            for beta in iter_dominated(alpha):
                value = term(beta, alpha - beta)
                if weighted:
                    w = alpha.binomial(beta)
                    if w != 1:
                        value = mul(K.embed_int(w), value)
                acc = add(acc, value)
            yield alpha, acc

    def mul(self, a: HurwitzSeries, b: HurwitzSeries) -> HurwitzSeries:
        self._check_pair(a, b)
        mul, x, y = self.coeff_ring.mul, a.coeffs, b.coeffs
        rows = self.convolve(lambda beta, rest: mul(x[beta], y[rest]))
        return self.from_table(dict(rows), min(a.valid, b.valid))

    def cauchy_mul(self, a: HurwitzSeries, b: HurwitzSeries) -> HurwitzSeries:
        """Plain convolution, the product of the divided reading.

        Tables produced by ``to_divided`` multiply with this product, not
        with ``mul``: the factorial rescaling turns the binomial-weighted
        convolution into the unweighted one.  The operation itself makes
        sense over any coefficient ring.
        """
        self._check_pair(a, b)
        mul, x, y = self.coeff_ring.mul, a.coeffs, b.coeffs
        rows = self.convolve(lambda beta, rest: mul(x[beta], y[rest]), weighted=False)
        return self.from_table(dict(rows), min(a.valid, b.valid))

    def eq(self, a: HurwitzSeries, b: HurwitzSeries) -> bool:
        """Exact table equality over the whole truncation box.

        Validity is bookkeeping about trustworthiness, not part of the value;
        use ``agree`` for the comparison that respects it.
        """
        self._check_pair(a, b)
        K = self.coeff_ring
        return all(K.eq(a.coeffs[alpha], b.coeffs[alpha]) for alpha in self.indices)

    def agree(self, a: HurwitzSeries, b: HurwitzSeries) -> bool:
        return self.agree_up_to(a, b, min(a.valid, b.valid))

    def agree_up_to(self, a: HurwitzSeries, b: HurwitzSeries, order: int) -> bool:
        """Coefficientwise equality for all indices of total degree <= order."""
        self._check_pair(a, b)
        if order > min(a.valid, b.valid):
            raise ValueError(
                f"comparison order {order} exceeds valid orders {a.valid}, {b.valid}"
            )
        K = self.coeff_ring
        return all(
            K.eq(a.coeffs[alpha], b.coeffs[alpha])
            for alpha in enumerate_upto(self.width, order)
        )

    def embed_int(self, n: int) -> HurwitzSeries:
        return self.embed(self.coeff_ring.embed_int(n))

    def is_unit(self, a: HurwitzSeries) -> bool:
        """Units are exactly the series whose constant term is a unit."""
        self._check(a)
        return self.coeff_ring.try_invert(a.constant_term()) is not None

    def is_nilpotent(self, a: HurwitzSeries) -> bool:
        """In the truncated ring: nilpotent iff the constant term is.

        Over a field this means constant term zero.  The untruncated
        characteristic-p statement matches: everything above the constant
        layer is killed by the p-th power.
        """
        self._check(a)
        c = a.constant_term()
        if self.coeff_ring.is_field:
            return self.coeff_ring.is_zero(c)
        raise DomainError("nilpotency test supported over field coefficients only")

    def try_invert(self, a: HurwitzSeries) -> HurwitzSeries | None:
        if not self.coeff_ring.is_field:
            return None
        if not self.is_unit(a):
            return None
        return self.invert(a)

    def invert(self, a: HurwitzSeries) -> HurwitzSeries:
        """Grade-by-grade solve of the convolution equation a * b = 1."""
        self._check(a)
        if not self.coeff_ring.is_field:
            raise DomainError("series inversion supported over field coefficients only")
        K = self.coeff_ring
        c0inv = K.try_invert(a.constant_term())
        if c0inv is None:
            raise NotUnitError("not a unit: constant term is zero")

        def term(beta: MultiIndex, rest: MultiIndex) -> Element:
            # the beta = 0 term pairs a's constant with the unknown itself
            return K.zero() if beta.is_zero() else K.mul(a.coeffs[beta], table[rest])

        table: dict[MultiIndex, Element] = {}
        for alpha, acc in self.convolve(term):
            table[alpha] = c0inv if alpha.is_zero() else K.neg(K.mul(c0inv, acc))
        return self.from_table(table, a.valid)

    def shift_derive(self, a: HurwitzSeries, slot: int) -> HurwitzSeries:
        """Pull every coefficient down one step in ``slot``; costs one grade."""
        self._check(a)
        if a.valid <= 0:
            raise TruncationError(
                "shift derivation exhausts truncation: no valid grades left"
            )
        unit = MultiIndex.unit(self.width, slot)
        K = self.coeff_ring
        table = {
            alpha: a.coeffs[alpha + unit] if alpha.degree < self.trunc else K.zero()
            for alpha in self.indices
        }
        return self.from_table(table, a.valid - 1)

    def coeff_derive(
        self, a: HurwitzSeries, delta: Sequence[Derivation], slot: int
    ) -> HurwitzSeries:
        """Apply the base derivation for ``slot`` to every coefficient."""
        self._check(a)
        if not 0 <= slot < len(delta):
            raise ValueError(f"slot {slot} out of range for {len(delta)} derivations")
        d = delta[slot]
        return self.from_table(
            {alpha: d(a.coeffs[alpha]) for alpha in self.indices}, a.valid
        )

    def formal_derive(self, a: HurwitzSeries, slot: int) -> HurwitzSeries:
        """Ordinary partial derivative in the divided-power reading."""
        self._check(a)
        if a.valid <= 0:
            raise TruncationError(
                "formal derivative exhausts truncation: no valid grades left"
            )
        unit = MultiIndex.unit(self.width, slot)
        K = self.coeff_ring
        table = {
            alpha: (
                K.mul(K.embed_int(alpha[slot] + 1), a.coeffs[alpha + unit])
                if alpha.degree < self.trunc
                else K.zero()
            )
            for alpha in self.indices
        }
        return self.from_table(table, a.valid - 1)

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
        table: dict[MultiIndex, Element] = {}
        for alpha in self.indices:
            f = alpha.factorial()
            if f not in cache:
                cache[f] = self._factorial_inverse(f)
            table[alpha] = K.mul(cache[f], a.coeffs[alpha])
        return self.from_table(table, a.valid)

    def from_divided(self, a: HurwitzSeries) -> HurwitzSeries:
        """Multiply coefficient alpha by alpha factorial; inverse of to_divided."""
        self._check(a)
        K = self.coeff_ring
        table = {
            alpha: K.mul(K.embed_int(alpha.factorial()), a.coeffs[alpha])
            for alpha in self.indices
        }
        return self.from_table(table, a.valid)

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
        return json.dumps(series_to_json(a), sort_keys=True, separators=(",", ":"))

    def parse(self, text: str) -> HurwitzSeries:
        a = series_from_json(json.loads(text))
        self._check(a)
        return a

    def sample(self, rng, degree: int = 2) -> HurwitzSeries:
        return self.from_table(
            {alpha: self.coeff_ring.sample(rng, degree) for alpha in self.indices}
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
    for alpha in enumerate_upto(a.width, a.trunc):
        c = a.coeffs[alpha]
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
    if not isinstance(doc, dict):
        raise ValueError(f"{path}: expected an object")
    _reject_unknown(doc, {"m", "trunc", "valid", "ring", "coeffs"}, path)
    for key in ("m", "trunc", "valid", "ring", "coeffs"):
        if key not in doc:
            raise ValueError(f"{path}.{key}: missing")
    width = _expect_int(doc["m"], f"{path}.m", 1, math.inf)
    trunc = _expect_int(doc["trunc"], f"{path}.trunc", 0, math.inf)
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
        try:
            table[alpha] = ring.parse(text)
        except ValueError as exc:
            raise ValueError(f"{where}: {exc}") from exc
    return H.from_table(table, valid)
