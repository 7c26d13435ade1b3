"""Differential polynomial rings over a differential coefficient ring.

The carrier is the free commutative algebra on symbols (variable, order):
one symbol per formal mixed derivative of each indeterminate.  Slot i of the
derivation family sends symbol (x, order) to (x, order + unit_i), acts on
coefficients through the base family, and extends by the Leibniz rule, so
the result is again a differential ring of the same width.

Inside the ring a symbol is one int, its id: ``grlex_rank(order)`` times the
number of indeterminates, plus the variable slot.  Ids sort like
``(grlex_rank(order), var)``: by degree, then with larger leading entries
first, then by variable.  So a monomial is its sorted ``(id, power)`` pairs
and terms sort by total degree, then by monomial, in plain tuple order; only
``_make`` merges like terms.  ``SymbolCodec`` turns ids into symbols and
back; it depends on the width and the number of indeterminates only, so
equal rings read each other's elements.  Each ring keeps a shift table per
derivation slot, from an id to the id one order step up, which is all that
``derive`` and Taylor mode need of orders.  The public symbol stays
``(var, MultiIndex)``: it is what ``symbol``, the callback of
``substitution``, value tables, ``DiffPolynomial.terms``, ``render`` and
the JSON forms take and give.

The carrier is free on its symbols, so a ring map out of it is fixed by
where coefficients and symbols go: ``substitution`` is that map, the one
evaluator of this module.  ``value_hom`` sends symbols to the entries of a
value table (a test point, differential when the values follow a derivation
chain), ``evaluate`` to derivatives of a point, and ``taylor`` to series.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import starmap
from typing import Any, Callable, Iterable, Mapping, Sequence

from .multiindex import MultiIndex, grlex_rank, grlex_unrank
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
# sorted ((symbol id, power), ...) with positive powers
Monomial = tuple[tuple[int, int], ...]


class UncoveredSymbolError(RingError):
    """A value table was asked for a symbol it does not cover."""


@dataclass(frozen=True)
class SymbolCodec:
    """Symbol ids for ``count`` indeterminates and orders of width ``width``.

    Symbol (var, order) has id ``grlex_rank(order) * count + var``; both ways
    cost O(width) binomials plus, for decoding, a walk over the degree.  The
    codec keeps the symbol of each id it has decoded, so that walk runs once
    per id; equality and hashing ignore that table, so equal rings still read
    each other's elements.
    """

    width: int
    count: int
    _decoded: dict[int, Symbol] = field(
        default_factory=dict, init=False, compare=False, repr=False
    )

    def encode(self, var: int, entries: Sequence[int]) -> int:
        return grlex_rank(entries) * self.count + var

    def decode(self, i: int) -> Symbol:
        sym = self._decoded.get(i)
        if sym is None:
            rank, var = divmod(i, self.count)
            sym = self._decoded[i] = (var, MultiIndex(grlex_unrank(self.width, rank)))
        return sym

    def shift(self, i: int, slot: int) -> int:
        """The id of symbol ``i`` one order step up in ``slot``."""
        var, order = self.decode(i)
        entries = list(order.entries)
        entries[slot] += 1
        return self.encode(var, entries)


def _term_key(term: tuple[Monomial, Element]) -> tuple:
    mon = term[0]
    return (sum(p for _, p in mon), mon)


def _normalize_monomial(counts: Mapping[int, int]) -> Monomial:
    return tuple(sorted((i, p) for i, p in counts.items() if p))


@dataclass(frozen=True)
class DiffPolynomial:
    """Normalized term list; equality is structural on the canonical form.

    ``id_terms`` are the ``(monomial, coefficient)`` pairs over symbol ids,
    which ``codec`` reads; ``terms`` is the same list over ``(var, order)``
    symbols.
    """

    id_terms: tuple[tuple[Monomial, Element], ...]
    codec: SymbolCodec

    @property
    def terms(self) -> tuple[tuple[tuple[tuple[Symbol, int], ...], Element], ...]:
        decode = self.codec.decode
        return tuple(
            (tuple((decode(i), p) for i, p in mon), c) for mon, c in self.id_terms
        )


class DiffPolyRing(Ring):
    """Free differential polynomial algebra on named indeterminates."""

    def __init__(self, base: DifferentialRing, variables: Sequence[str]):
        names = tuple(variables)
        if not names:
            raise ValueError("need at least one indeterminate")
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate indeterminate names: {names}")
        self.base = base
        self.variables = names
        self.characteristic = base.ring.characteristic
        self._codec = SymbolCodec(base.width, len(names))
        self._one = base.ring.one()
        # per slot, symbol id -> the id one order step up in that slot
        self._shifts: tuple[dict[int, int], ...] = tuple({} for _ in range(base.width))
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

    def _make(self, terms: Iterable[tuple[Monomial, Element]]) -> DiffPolynomial:
        """The sum of ``(monomial, coefficient)`` terms: one ``K.sum`` per monomial."""
        K = self.base.ring
        groups: dict[Monomial, list[Element]] = {}
        for m, c in terms:
            groups.setdefault(m, []).append(c)
        items = []
        for m, cs in groups.items():
            c = cs[0] if len(cs) == 1 else K.sum(cs)
            if not K.is_zero(c):
                items.append((m, c))
        items.sort(key=_term_key)
        return DiffPolynomial(tuple(items), self._codec)

    def _shift(self, i: int, slot: int) -> int:
        """The id one order step up from ``i`` in ``slot``, from the slot's table."""
        table = self._shifts[slot]
        shifted = table.get(i)
        if shifted is None:
            shifted = table[i] = self._codec.shift(i, slot)
        return shifted

    def _symbol_of(self, i: int) -> DiffPolynomial:
        """The single symbol with id ``i``."""
        return DiffPolynomial(((((i, 1),), self._one),), self._codec)

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
        return self._symbol_of(self._codec.encode(slot, idx.entries))

    def gen(self, var: int | str) -> DiffPolynomial:
        return self.symbol(var, MultiIndex.zero(self.width))

    def constant(self, c: Element) -> DiffPolynomial:
        return self._make((((), c),))

    def zero(self) -> DiffPolynomial:
        return DiffPolynomial((), self._codec)

    def one(self) -> DiffPolynomial:
        return self.constant(self._one)

    def add(self, a: DiffPolynomial, b: DiffPolynomial) -> DiffPolynomial:
        return self._make(a.id_terms + b.id_terms)

    def neg(self, a: DiffPolynomial) -> DiffPolynomial:
        K = self.base.ring
        return DiffPolynomial(tuple((m, K.neg(c)) for m, c in a.id_terms), self._codec)

    def mul(self, a: DiffPolynomial, b: DiffPolynomial) -> DiffPolynomial:
        K = self.base.ring
        terms = []
        for ma, ca in a.id_terms:
            for mb, cb in b.id_terms:
                counts = dict(ma)
                for i, p in mb:
                    counts[i] = counts.get(i, 0) + p
                terms.append((_normalize_monomial(counts), K.mul(ca, cb)))
        return self._make(terms)

    def eq(self, a: DiffPolynomial, b: DiffPolynomial) -> bool:
        return a == b

    def is_zero(self, a: DiffPolynomial) -> bool:
        return not a.id_terms

    def embed_int(self, n: int) -> DiffPolynomial:
        return self.constant(self.base.ring.embed_int(n))

    def try_invert(self, a: DiffPolynomial) -> DiffPolynomial | None:
        if len(a.id_terms) != 1 or a.id_terms[0][0] != ():
            return None
        inv = self.base.ring.try_invert(a.id_terms[0][1])
        return None if inv is None else self.constant(inv)

    def derive(self, a: DiffPolynomial, slot: int) -> DiffPolynomial:
        """Slot derivation: base family on coefficients, shift on symbols.

        A shifted id is larger than its source (one order step up raises the
        degree, and ``grlex_rank`` grows with it), so factor k's new symbol
        is merged into, or inserted at, the first position after k whose id
        is not smaller; the monomial stays sorted without a sort.
        """
        if not 0 <= slot < self.width:
            raise ValueError(f"slot {slot} out of range for width {self.width}")
        K = self.base.ring
        terms = []
        for mon, c in a.id_terms:
            dc = self.base.derive(c, slot)
            if not K.is_zero(dc):
                terms.append((mon, dc))
            n = len(mon)
            for k, (i, power) in enumerate(mon):
                shifted = self._shift(i, slot)
                j = k + 1
                while j < n and mon[j][0] < shifted:
                    j += 1
                head = mon[:k] + ((i, power - 1),) if power > 1 else mon[:k]
                if j < n and mon[j][0] == shifted:
                    tail = ((shifted, mon[j][1] + 1),) + mon[j + 1 :]
                else:
                    tail = ((shifted, 1),) + mon[j:]
                term = K.mul(c, K.embed_int(power)) if power > 1 else c
                terms.append((head + mon[k + 1 : j] + tail, term))
        return self._make(terms)

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
        decode = self._codec.decode
        return self._substitution(target, coefficient, lambda i: symbol(decode(i)))

    def _substitution(
        self,
        target: Ring,
        coefficient: Callable[[Element], Element],
        symbol: Callable[[int], Element],
    ) -> Callable[[DiffPolynomial], Element]:
        """``substitution`` with ``symbol`` called on symbol ids."""
        mul, pow_ = target.mul, target.pow
        one, eq = self._one, self.base.ring.eq
        # (id, power) -> symbol(id)^power; (id, 1) holds the image
        powers: dict[tuple[int, int], Element] = {}
        get = powers.get

        def power(key: tuple[int, int]) -> Element:
            i, p = key
            unit = key if p == 1 else (i, 1)
            value = get(unit)
            if value is None:
                value = powers[unit] = symbol(i)
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

        return lambda a: target.sum(starmap(image, a.id_terms))

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
        if not a.id_terms:
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
        count = len(self.variables)
        # the zero order and the units have graded-lex ranks 0, 1, ..., width
        ranks = range(self.width + 1)
        terms = []
        for _ in range(rng.randint(1, 3)):
            counts: dict[int, int] = {}
            for _ in range(rng.randint(0, 2)):
                var = rng.randrange(count)
                i = rng.choice(ranks) * count + var
                counts[i] = counts.get(i, 0) + 1
            c = K.sample(rng, degree)
            if K.is_zero(c):
                c = K.one()
            terms.append((_normalize_monomial(counts), c))
        return self._make(terms)

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
        terms = []
        for pos, item in enumerate(doc):
            where = f"{path}[{pos}]"
            _expect_object(item, where)
            _reject_unknown(item, {"coeff", "monomial"}, where)
            if "coeff" not in item or "monomial" not in item:
                raise ValueError(f"{where}: needs coeff and monomial")
            c = _expect_element(K, item["coeff"], f"{where}.coeff")
            if not isinstance(item["monomial"], list):
                raise ValueError(f"{where}.monomial: expected a list")
            counts: dict[int, int] = {}
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
                i = self._codec.encode(var, order)
                if i in counts:
                    raise ValueError(f"{spath}: duplicate symbol in monomial")
                counts[i] = power
            terms.append((_normalize_monomial(counts), c))
        return self._make(terms)
