"""Differential polynomial rings over a differential coefficient ring.

The carrier is the free commutative algebra on symbols (variable, order):
one symbol per formal mixed derivative of each indeterminate.  Slot i of the
derivation family sends symbol (x, order) to (x, order + unit_i), acts on
coefficients through the base family, and extends by the Leibniz rule, so
the result is again a differential ring of the same width.

The carrier is free on its symbols, so a ring map out of it is fixed by
where coefficients and symbols go: ``substitution`` is that map, the one
evaluator of this module.  ``value_hom`` sends symbols to the entries of a
value table (a test point, differential when the values follow a derivation
chain), ``evaluate`` to derivatives of a point, and ``taylor`` to series.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import starmap
from typing import Any, Callable, Mapping, Sequence

from .multiindex import MultiIndex, grlex_key
from .rings import (
    MAX_EXPONENT,
    MAX_TERMS,
    DifferentialRing,
    DomainError,
    Element,
    Ring,
    RingError,
    _expect_element,
    _expect_int,
    _expect_object,
    _reject_unknown,
)

# (variable slot, derivative order); the order width is the derivation width
Symbol = tuple[int, MultiIndex]
# sorted ((symbol, power), ...) with positive powers
Monomial = tuple[tuple[Symbol, int], ...]


class UncoveredSymbolError(RingError):
    """A value table was asked for a symbol it does not cover."""


@lru_cache(maxsize=None)
def _symbol_key(sym: Symbol) -> tuple:
    var, order = sym
    return (grlex_key(order), var)


def _monomial_key(mon: Monomial) -> tuple:
    return (sum(p for _, p in mon), tuple((_symbol_key(s), p) for s, p in mon))


@dataclass(frozen=True)
class DiffPolynomial:
    """Normalized term list; equality is structural on the canonical form."""

    terms: tuple[tuple[Monomial, Element], ...]


class DiffPolyRing(Ring):
    """Free differential polynomial algebra on named indeterminates."""

    is_field = False

    def __init__(self, base: DifferentialRing, variables: Sequence[str]):
        names = tuple(variables)
        if not names:
            raise ValueError("need at least one indeterminate")
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate indeterminate names: {names}")
        self.base = base
        self.variables = names
        self.characteristic = base.ring.characteristic
        # per slot, symbol -> the symbol one order step up in that slot
        self._shifts: tuple[dict[Symbol, Symbol], ...] = tuple({} for _ in range(base.width))
        # one structure per ring, so that ``taylor`` can recognise it by identity;
        # each slot looks ``derive`` up at call time
        self._structure = DifferentialRing(
            self, tuple((lambda a, s=slot: self.derive(a, s)) for slot in range(base.width))
        )

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, DiffPolyRing)
            and other.base is self.base
            and other.variables == self.variables
        )

    def __hash__(self) -> int:
        return hash(("DiffPolyRing", id(self.base), self.variables))

    def __repr__(self) -> str:
        return f"{self.base.ring!r}{{{', '.join(self.variables)}}}"

    @property
    def width(self) -> int:
        return self.base.width

    def _make(self, table: Mapping[Monomial, Element]) -> DiffPolynomial:
        K = self.base.ring
        items = [(m, c) for m, c in table.items() if not K.is_zero(c)]
        items.sort(key=lambda t: _monomial_key(t[0]))
        return DiffPolynomial(tuple(items))

    def _normalize_monomial(self, counts: Mapping[Symbol, int]) -> Monomial:
        items = [(s, p) for s, p in counts.items() if p]
        items.sort(key=lambda t: _symbol_key(t[0]))
        return tuple(items)

    def symbol(self, var: int | str, order: MultiIndex | Sequence[int]) -> DiffPolynomial:
        """The single symbol for the given variable at the given order."""
        slot = self.variables.index(var) if isinstance(var, str) else var
        if not 0 <= slot < len(self.variables):
            raise ValueError(f"variable slot {slot} out of range")
        idx = order if isinstance(order, MultiIndex) else MultiIndex(tuple(order))
        if idx.width != self.width:
            raise ValueError(
                f"order width {idx.width} does not match {self.width} derivations"
            )
        return DiffPolynomial(
            (((((slot, idx), 1),), self.base.ring.one()),)
        )

    def gen(self, var: int | str) -> DiffPolynomial:
        return self.symbol(var, MultiIndex.zero(self.width))

    def constant(self, c: Element) -> DiffPolynomial:
        if self.base.ring.is_zero(c):
            return DiffPolynomial(())
        return DiffPolynomial((((), c),))

    def zero(self) -> DiffPolynomial:
        return DiffPolynomial(())

    def one(self) -> DiffPolynomial:
        return self.constant(self.base.ring.one())

    def add(self, a: DiffPolynomial, b: DiffPolynomial) -> DiffPolynomial:
        K = self.base.ring
        table: dict[Monomial, Element] = dict(a.terms)
        for mon, c in b.terms:
            table[mon] = K.add(table[mon], c) if mon in table else c
        return self._make(table)

    def neg(self, a: DiffPolynomial) -> DiffPolynomial:
        K = self.base.ring
        return DiffPolynomial(tuple((m, K.neg(c)) for m, c in a.terms))

    def mul(self, a: DiffPolynomial, b: DiffPolynomial) -> DiffPolynomial:
        K = self.base.ring
        table: dict[Monomial, Element] = {}
        for ma, ca in a.terms:
            for mb, cb in b.terms:
                counts = dict(ma)
                for sym, p in mb:
                    counts[sym] = counts.get(sym, 0) + p
                key = self._normalize_monomial(counts)
                prod = K.mul(ca, cb)
                table[key] = K.add(table[key], prod) if key in table else prod
        return self._make(table)

    def eq(self, a: DiffPolynomial, b: DiffPolynomial) -> bool:
        return a == b

    def embed_int(self, n: int) -> DiffPolynomial:
        return self.constant(self.base.ring.embed_int(n))

    def try_invert(self, a: DiffPolynomial) -> DiffPolynomial | None:
        if len(a.terms) != 1 or a.terms[0][0] != ():
            return None
        inv = self.base.ring.try_invert(a.terms[0][1])
        return None if inv is None else self.constant(inv)

    def derive(self, a: DiffPolynomial, slot: int) -> DiffPolynomial:
        """Slot derivation: base family on coefficients, shift on symbols."""
        if not 0 <= slot < self.width:
            raise ValueError(f"slot {slot} out of range for width {self.width}")
        K = self.base.ring
        shift = self._shifts[slot]
        table: dict[Monomial, Element] = {}
        for mon, c in a.terms:
            dc = self.base.derive(c, slot)
            if not K.is_zero(dc):
                table[mon] = K.add(table[mon], dc) if mon in table else dc
            for sym, power in mon:
                shifted = shift.get(sym)
                if shifted is None:
                    var, order = sym
                    shifted = shift[sym] = (var, order + MultiIndex.unit(self.width, slot))
                counts = dict(mon)
                counts[sym] -= 1
                counts[shifted] = counts.get(shifted, 0) + 1
                key = self._normalize_monomial(counts)
                term = K.mul(c, K.embed_int(power)) if power > 1 else c
                table[key] = K.add(table[key], term) if key in table else term
        return self._make(table)

    def differential_ring(self) -> DifferentialRing:
        """The ring with its slot derivations; the same object on every call."""
        return self._structure

    def substitution(
        self,
        target: Ring,
        coefficient: Callable[[Element], Element],
        symbol: Callable[[Symbol], Element],
    ) -> Callable[[DiffPolynomial], Element]:
        """The algebra map ``c * prod s^p -> coefficient(c) * prod symbol(s)^p``.

        ``coefficient`` must be a ring map from the base coefficients into
        ``target``; terms are summed with ``target.sum``.  Across every
        element the map is applied to, each symbol image and each
        (symbol, power) power is computed at most once.  Each term is the
        left fold ``coefficient(c) * f1 * f2 ...`` of its factors, except
        that a term with a factor and the coefficient one starts from
        ``f1``: a ring map sends one to one.
        """
        mul, pow_ = target.mul, target.pow
        one, eq = self.base.ring.one(), self.base.ring.eq
        # (symbol, power) -> symbol(symbol)^power; (symbol, 1) holds the image
        powers: dict[tuple[Symbol, int], Element] = {}
        get = powers.get

        def power(key: tuple[Symbol, int]) -> Element:
            sym, p = key
            unit = key if p == 1 else (sym, 1)
            value = get(unit)
            if value is None:
                value = powers[unit] = symbol(sym)
            if p != 1:
                value = powers[key] = pow_(value, p)
            return value

        def image(mon: Monomial, c: Element) -> Element:
            v = None if mon and eq(c, one) else coefficient(c)
            for key in mon:
                known = get(key)
                factor = power(key) if known is None else known
                v = factor if v is None else mul(v, factor)
            return v

        return lambda a: target.sum(starmap(image, a.terms))

    def evaluate(
        self,
        a: DiffPolynomial,
        target: DifferentialRing,
        point: Sequence[Element],
        embed: Callable[[Element], Element],
    ) -> Element:
        """Substitute target elements for the indeterminates.

        Symbol (x, order) goes to the iterated target derivative of
        ``point[x]``; coefficients go through ``embed``, which must be a ring
        map from the base coefficients into the target carrier.
        """
        if embed is None:
            raise DomainError("evaluate needs a structure map for the coefficients")
        if len(point) != len(self.variables):
            raise ValueError(
                f"need {len(self.variables)} point values, got {len(point)}"
            )
        if target.width != self.width:
            raise ValueError(
                f"target width {target.width} does not match {self.width}"
            )

        def symbol_value(sym: Symbol) -> Element:
            return target.derive_iter(point[sym[0]], sym[1])

        return self.substitution(target.ring, embed, symbol_value)(a)

    def value_hom(
        self,
        values: Mapping[Symbol, Element],
        default_zero: bool = False,
    ) -> Callable[[DiffPolynomial], Element]:
        """Algebra map to the coefficients given a value for every symbol."""
        K = self.base.ring

        def lookup(sym: Symbol) -> Element:
            if sym in values:
                return values[sym]
            if default_zero:
                return K.zero()
            raise UncoveredSymbolError(
                f"value table does not cover symbol {self.render_symbol(sym)}"
            )

        return self.substitution(K, lambda c: c, lookup)

    def render_symbol(self, sym: Symbol) -> str:
        var, order = sym
        name = self.variables[var]
        if order.is_zero():
            return name
        if self.width == 1 and order.degree <= 3:
            return name + "'" * order.degree
        return f"D{list(order.entries)}{name}"

    def render(self, a: DiffPolynomial) -> str:
        if not a.terms:
            return "0"
        K = self.base.ring
        parts = []
        for mon, c in a.terms:
            factors = [
                self.render_symbol(s) if p == 1 else f"{self.render_symbol(s)}^{p}"
                for s, p in mon
            ]
            cs = K.render(c)
            if factors and cs == "1":
                body = "*".join(factors)
            elif factors:
                body = "*".join([f"({cs})"] + factors)
            else:
                body = f"({cs})"
            parts.append(body)
        return " + ".join(parts)

    def sample(self, rng, degree: int = 2) -> DiffPolynomial:
        """Random small element: few terms, symbol orders of degree <= 1."""
        K = self.base.ring
        orders = [MultiIndex.zero(self.width)] + [
            MultiIndex.unit(self.width, i) for i in range(self.width)
        ]
        table: dict[Monomial, Element] = {}
        for _ in range(rng.randint(1, 3)):
            counts: dict[Symbol, int] = {}
            for _ in range(rng.randint(0, 2)):
                sym = (rng.randrange(len(self.variables)), rng.choice(orders))
                counts[sym] = counts.get(sym, 0) + 1
            mon = self._normalize_monomial(counts)
            c = K.sample(rng, degree)
            if K.is_zero(c):
                c = K.one()
            table[mon] = K.add(table[mon], c) if mon in table else c
        return self._make(table)

    def values_to_json(self, values: Mapping[Symbol, Element]) -> list:
        """A value table as sorted ``[variable, order, value]`` rows."""
        K = self.base.ring
        items = sorted(values.items(), key=lambda kv: (kv[0][0], kv[0][1].entries))
        return [
            [var, list(alpha.entries), K.render(v)] for (var, alpha), v in items
        ]

    def values_from_json(self, doc: Any, path: str = "values") -> dict[Symbol, Element]:
        """The value table that ``values_to_json`` rows describe; errors name ``path``."""
        if not isinstance(doc, list):
            raise ValueError(f"{path}: expected a list of [variable, order, value] rows")
        if len(doc) > MAX_TERMS:
            raise ValueError(f"{path}: more than {MAX_TERMS} rows")
        K = self.base.ring
        table: dict = {}
        for i, row in enumerate(doc):
            here = f"{path}[{i}]"
            if not isinstance(row, list) or len(row) != 3:
                raise ValueError(f"{here}: expected [variable, order, value]")
            var, order, text = row
            var = _expect_int(var, f"{here}[0]", 0, len(self.variables) - 1)
            if not isinstance(order, list) or len(order) != self.width:
                raise ValueError(f"{here}[1]: expected {self.width} order entries")
            entries = [_expect_int(e, f"{here}[1]", 0, MAX_EXPONENT) for e in order]
            value = _expect_element(K, text, f"{here}[2]")
            key = (var, MultiIndex(tuple(entries)))
            if key in table:
                raise ValueError(f"{here}: duplicate symbol")
            table[key] = value
        return table

    def element_to_json(self, a: DiffPolynomial) -> list:
        K = self.base.ring
        return [
            {
                "coeff": K.render(c),
                "monomial": [
                    [var, list(order.entries), power] for (var, order), power in mon
                ],
            }
            for mon, c in a.terms
        ]

    def element_from_json(self, doc: Any, path: str = "element") -> DiffPolynomial:
        if not isinstance(doc, list):
            raise ValueError(f"{path}: expected a list of terms")
        if len(doc) > MAX_TERMS:
            raise ValueError(f"{path}: more than {MAX_TERMS} terms")
        K = self.base.ring
        table: dict[Monomial, Element] = {}
        for pos, item in enumerate(doc):
            where = f"{path}[{pos}]"
            _expect_object(item, where)
            _reject_unknown(item, {"coeff", "monomial"}, where)
            if "coeff" not in item or "monomial" not in item:
                raise ValueError(f"{where}: needs coeff and monomial")
            c = _expect_element(K, item["coeff"], f"{where}.coeff")
            if not isinstance(item["monomial"], list):
                raise ValueError(f"{where}.monomial: expected a list")
            counts: dict[Symbol, int] = {}
            for spos, entry in enumerate(item["monomial"]):
                spath = f"{where}.monomial[{spos}]"
                if not isinstance(entry, list) or len(entry) != 3:
                    raise ValueError(f"{spath}: expected [var, order, power]")
                var, order, power = entry
                var = _expect_int(
                    var, f"{spath}[0] variable index", 0, len(self.variables) - 1
                )
                if not isinstance(order, list) or len(order) != self.width:
                    raise ValueError(
                        f"{spath}: order must be {self.width} nonnegative integers"
                    )
                order = [_expect_int(e, f"{spath}[1] order", 0, MAX_EXPONENT) for e in order]
                power = _expect_int(power, f"{spath}[2] power", 1, MAX_EXPONENT)
                sym = (var, MultiIndex(tuple(order)))
                if sym in counts:
                    raise ValueError(f"{spath}: duplicate symbol in monomial")
                counts[sym] = power
            mon = self._normalize_monomial(counts)
            table[mon] = K.add(table[mon], c) if mon in table else c
        return self._make(table)
