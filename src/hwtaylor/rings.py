"""Commutative ring and differential ring descriptors with exact elements.

Elements are plain immutable values (``fractions.Fraction`` for rationals,
canonical residues for prime fields, and for polynomials a table of terms in
insertion order: over ``Q`` integer numerators over one shared denominator,
over ``F_p`` residues) and all arithmetic goes through the descriptor that
owns them.  Descriptors never coerce between carriers: mixing elements of
different rings is a caller bug.  Equality of elements is exact and
decidable; there are no floats anywhere and no tolerance parameters.

Sums of many terms go through ``Ring.combine(weights, values)``, the sum of
``w * v`` for integer weights: the generic form adds term by term, and
``F_p`` and the polynomial rings accumulate the whole sum and normalise
once (one ``% p``, one polynomial ``_reduce``).  ``sum``, every row of the
evaluation twist and every value-table image are such sums.

Series products and inversion go through ``Ring.dot(x, y, rows)``, which
yields ``sum of w * x[i] * y[j]`` for each ``(left, right, weights)`` row of
index pairs: the generic form is one ``mul`` per pair and one ``combine``
per row, ``Q`` sums a row's products as one integer over the lcm of their
denominators, and the polynomial rings put a whole row's products into one
integer table and reduce it once.

Integers cross the wire as decimal text of at most ``MAX_DIGITS`` digits,
Python's default conversion limit.  A longer literal is a parse error that
gives its offset; a longer coefficient in a result is a ``DomainError``.

A ``DifferentialRing`` pairs a carrier descriptor with a tuple of commuting
derivations.  Commutation of user-supplied polynomial derivation families is
validated on the generators at construction time; the checker module
additionally property-tests it on random elements.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from fractions import Fraction
from itertools import repeat
from math import gcd, lcm
from operator import add as _add
from operator import mul as _mul
from typing import Any, Callable, Iterable, Iterator, Mapping, Sequence

from .multiindex import MultiIndex

# Ring elements are heterogeneous by design (Fraction | int | Poly | series);
# the descriptor owning them is the source of truth for their type.
Element = Any
Derivation = Callable[[Element], Element]


class RingError(Exception):
    """Base class for ring-domain failures."""


class MixedRingError(RingError):
    """Elements of different carriers were combined."""


class NotUnitError(RingError):
    """Inversion was requested for a non-unit."""


class DomainError(RingError):
    """The operation falls outside the ring's supported domain."""


class Ring:
    """Descriptor for a commutative unital ring with exact elements.

    ``characteristic`` is 0 or a prime p (p * 1 == 0).  ``try_invert`` is
    the one question asked about units, series inversion included: it
    returns None when the element is not a unit or when deciding that is
    unsupported; it never guesses.
    """

    characteristic: int

    def zero(self) -> Element:
        raise NotImplementedError

    def one(self) -> Element:
        raise NotImplementedError

    def add(self, a: Element, b: Element) -> Element:
        raise NotImplementedError

    def neg(self, a: Element) -> Element:
        raise NotImplementedError

    def mul(self, a: Element, b: Element) -> Element:
        raise NotImplementedError

    def eq(self, a: Element, b: Element) -> bool:
        raise NotImplementedError

    def embed_int(self, n: int) -> Element:
        raise NotImplementedError

    def render(self, a: Element) -> str:
        raise NotImplementedError

    def parse(self, text: str) -> Element:
        raise DomainError(f"{self!r} does not support parsing")

    def sample(self, rng, degree: int = 2) -> Element:
        raise NotImplementedError

    def to_json(self) -> dict:
        raise DomainError(f"{self!r} has no JSON descriptor")

    # defaults layered on the primitives

    def sub(self, a: Element, b: Element) -> Element:
        return self.add(a, self.neg(b))

    def try_invert(self, a: Element) -> Element | None:
        return None

    def is_zero(self, a: Element) -> bool:
        return self.eq(a, self.zero())

    def combine(self, weights: Iterable[int], values: Iterable[Element]) -> Element:
        """``sum of w * v`` over the pairs of integer ``weights`` and ``values``.

        The pairs are zipped, so ``weights`` may be longer than ``values``.
        This generic form starts from the first term, adds the rest one at a
        time and scales by ``embed_int(w)`` when w is not 1, so one term
        costs no ``add`` and none gives ``zero()``; ``F_p`` and the
        polynomial rings override it to accumulate the whole sum and
        normalise once.
        """
        acc = None
        for w, v in zip(weights, values):
            if w != 1:
                v = self.mul(self.embed_int(w), v)
            acc = v if acc is None else self.add(acc, v)
        return self.zero() if acc is None else acc

    def sum(self, items: Iterable[Element]) -> Element:
        return self.combine(repeat(1), items)

    def dot(
        self,
        x: Sequence[Element],
        y: Sequence[Element],
        rows: Iterable[tuple[Sequence[int], Sequence[int], Iterable[int]]],
    ) -> Iterator[Element]:
        """``sum of w * x[i] * y[j]`` for each ``(left, right, weights)`` row.

        The triples are zipped from ``left``, ``right`` and ``weights``, so
        ``weights`` may be longer (``repeat(1)`` for unit weights).  Rows
        are yielded one at a time and each is computed only when pulled, so
        ``x`` and ``y`` may be lists the caller fills from earlier yields.
        This generic form is one ``mul`` per pair and one ``combine`` per
        row; ``Q`` overrides it to make one ``Fraction`` per row, and the
        polynomial rings to reduce each row once.
        """
        mul, combine = self.mul, self.combine

        def term(i: int, j: int) -> Element:
            return mul(x[i], y[j])

        for left, right, weights in rows:
            yield combine(weights, map(term, left, right))

    def pow(self, a: Element, n: int) -> Element:
        """Square-and-multiply: at most 2 log2(n) products, never by one."""
        if n < 0:
            raise ValueError("negative power")
        acc = None
        while n:
            if n & 1:
                acc = a if acc is None else self.mul(acc, a)
            n >>= 1
            if n:
                a = self.mul(a, a)
        return self.one() if acc is None else acc


# A denominator on the wire starts with a digit 1-9: it is never zero and has
# no leading zeros.  Scalar rationals and the ratio tokens of polynomial
# strings share this rule.
_DENOMINATOR = r"[1-9]\d*"
# groups 1 and 2 hold the digits of the numerator and of the denominator
_RATIONAL_RE = re.compile(rf"-?(\d+)(?:/({_DENOMINATOR}))?")
# the syntax ``int(text, 10)`` reads, a scalar ``F_p`` literal; group 1
# holds the digits, with any underscores between them
_INTEGER_RE = re.compile(r"[+-]?(\d+(?:_\d+)*)")

# Most decimal digits of one integer that a literal may spell or a result may
# render: Python's default limit on converting between ``int`` and ``str``
# (``sys.int_max_str_digits``).  Lengths are checked before converting, so an
# integer past it is refused by a text naming where it is.
MAX_DIGITS = 4300
_DIGITS_BOUND = 10**MAX_DIGITS

# Texts and tokens up to this length are echoed whole in a parse error;
# longer ones are shown by an excerpt of ``_EXCERPT`` characters (and an
# element string by the offset of the error), so an error stays one line.
_ECHO_MAX = 80
_EXCERPT = 20


def _echo(token: str, show: Callable[[str], str] = repr) -> str:
    """``show(token)``, or past ``_ECHO_MAX`` characters ``show`` of its start and its length."""
    if len(token) <= _ECHO_MAX:
        return show(token)
    return f"{show(token[:_EXCERPT])}... ({len(token)} characters)"


def _where(text: str, at: int) -> str:
    """Where a parse error sits in ``text``: ``at`` is its character offset."""
    if len(text) <= _ECHO_MAX:
        return f"in {text!r}"
    return f"at offset {at} near {text[max(0, at - _EXCERPT) : at + _EXCERPT]!r}"


def _too_long(text: str, at: int) -> ValueError:
    """The error for a literal at offset ``at`` of ``text`` past ``MAX_DIGITS``."""
    return ValueError(f"literal of more than {MAX_DIGITS} digits {_where(text, at)}")


def _integer(text: str, token: re.Match, group: int) -> int:
    """The integer spelled by ``token[group]``, refused past ``MAX_DIGITS``."""
    digits = token[group]
    if len(digits) > MAX_DIGITS:
        raise _too_long(text, token.start(group))
    return int(digits)


def _decimal(n: int) -> str:
    """``str(n)``; an integer past ``MAX_DIGITS`` digits is out of domain."""
    if -_DIGITS_BOUND < n < _DIGITS_BOUND:
        return str(n)
    raise DomainError(f"coefficient of more than {MAX_DIGITS} digits")


class RationalField(Ring):
    """The rationals; elements are ``fractions.Fraction``."""

    characteristic = 0

    def __eq__(self, other: object) -> bool:
        return isinstance(other, RationalField)

    def __hash__(self) -> int:
        return hash("RationalField")

    def __repr__(self) -> str:
        return "QQ"

    def zero(self) -> Fraction:
        return Fraction(0)

    def one(self) -> Fraction:
        return Fraction(1)

    def add(self, a: Fraction, b: Fraction) -> Fraction:
        return a + b

    def neg(self, a: Fraction) -> Fraction:
        return -a

    def mul(self, a: Fraction, b: Fraction) -> Fraction:
        return a * b

    def eq(self, a: Fraction, b: Fraction) -> bool:
        return a == b

    def is_zero(self, a: Fraction) -> bool:
        return a == 0

    def embed_int(self, n: int) -> Fraction:
        return Fraction(n)

    def dot(
        self,
        x: Sequence[Fraction],
        y: Sequence[Fraction],
        rows: Iterable[tuple[Sequence[int], Sequence[int], Iterable[int]]],
    ) -> Iterator[Fraction]:
        """Each row's products as one integer sum, made a ``Fraction`` once.

        Pairs with a zero operand are skipped; the rest are summed over the
        lcm of their denominators ``a.denominator * b.denominator``.
        Operands are read when their row is pulled, as ``Ring.dot`` does.
        """
        for left, right, weights in rows:
            products = [
                (w * a.numerator * b.numerator, a.denominator * b.denominator)
                for w, i, j in zip(weights, left, right)
                if (a := x[i]) and (b := y[j])
            ]
            den = lcm(*[d for _, d in products])
            yield Fraction(sum([n * (den // d) for n, d in products]), den)

    def try_invert(self, a: Fraction) -> Fraction | None:
        return None if a == 0 else 1 / Fraction(a)

    def render(self, a: Fraction) -> str:
        if a.denominator == 1:
            return _decimal(a.numerator)
        return f"{_decimal(a.numerator)}/{_decimal(a.denominator)}"

    def parse(self, text: str) -> Fraction:
        # strict integer-ratio syntax; no decimal points on the wire
        match = _RATIONAL_RE.fullmatch(text, len(text) - len(text.lstrip()), len(text.rstrip()))
        if not match:
            raise ValueError(f"not a rational literal: {_echo(text)}")
        num = _integer(text, match, 1)
        den = 1 if match[2] is None else _integer(text, match, 2)
        return Fraction(-num if match[0][0] == "-" else num, den)

    def sample(self, rng, degree: int = 2) -> Fraction:
        return Fraction(rng.randint(-4, 4), rng.randint(1, 3))

    def to_json(self) -> dict:
        return {"kind": "Q"}


QQ = RationalField()


_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
# The smallest strong pseudoprime to every base in _MR_BASES (it is composite);
# below it the Miller-Rabin test over those bases decides primality exactly.
_PRIME_BOUND = 3317044064679887385961981


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, exact for every n below ``_PRIME_BOUND``."""
    if n >= _PRIME_BOUND:
        raise ValueError(f"primality of {n} is not decided: moduli must be below {_PRIME_BOUND}")
    if n < 2:
        return False
    for q in _MR_BASES:
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for q in _MR_BASES:
        x = pow(q, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class PrimeField(Ring):
    """Integers mod a prime p; elements are canonical residues in [0, p)."""

    def __init__(self, p: int):
        if not _is_prime(p):
            raise ValueError(f"modulus must be prime: {p}")
        self.p = p
        self.characteristic = p

    def __eq__(self, other: object) -> bool:
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self) -> int:
        return hash(("PrimeField", self.p))

    def __repr__(self) -> str:
        return f"GF({self.p})"

    def zero(self) -> int:
        return 0

    def one(self) -> int:
        return 1 % self.p

    def add(self, a: int, b: int) -> int:
        return (a + b) % self.p

    def neg(self, a: int) -> int:
        return (-a) % self.p

    def mul(self, a: int, b: int) -> int:
        return (a * b) % self.p

    def eq(self, a: int, b: int) -> bool:
        return (a - b) % self.p == 0

    def is_zero(self, a: int) -> bool:
        return a % self.p == 0

    def combine(self, weights: Iterable[int], values: Iterable[int]) -> int:
        return sum(map(_mul, weights, values)) % self.p

    def embed_int(self, n: int) -> int:
        return n % self.p

    def try_invert(self, a: int) -> int | None:
        a %= self.p
        return None if a == 0 else pow(a, -1, self.p)

    def render(self, a: int) -> str:
        return str(a % self.p)

    def parse(self, text: str) -> int:
        match = _INTEGER_RE.fullmatch(text, len(text) - len(text.lstrip()), len(text.rstrip()))
        if not match:
            raise ValueError(f"not an integer literal: {_echo(text)}")
        digits = match[1]
        if len(digits) - digits.count("_") > MAX_DIGITS:
            raise _too_long(text, match.start(1))
        return int(match[0], 10) % self.p

    def sample(self, rng, degree: int = 2) -> int:
        return rng.randrange(self.p)

    def to_json(self) -> dict:
        return {"kind": "Fp", "p": self.p}


class Poly:
    """Polynomial value: a table from exponent tuples to nonzero coefficients.

    The table keeps its terms in the order they were inserted; no operation
    sorts them, and graded-lex order is applied only by
    ``PolynomialRing.render``.  Equality and hashing ignore the order.  What
    the table holds is fixed by the ring that built the value:

    * over ``Q``, integer numerators over the one positive shared
      denominator ``den``, with no common factor among them and ``den``;
    * over ``F_p``, residues in [1, p), and ``den`` is None.

    Values are immutable by convention: no operation changes a table after
    building the value around it, and callers must not either.  ``terms`` is
    the public view, ``(exponent tuple, base element)`` pairs with
    ``Fraction`` coefficients over ``Q``.
    """

    __slots__ = ("table", "den", "_hash")

    def __init__(self, table: dict[tuple[int, ...], Any], den: int | None = None):
        self.table = table
        self.den = den
        self._hash: int | None = None

    @property
    def terms(self) -> tuple[tuple[tuple[int, ...], Element], ...]:
        den = self.den
        if den is None:
            return tuple(self.table.items())
        return tuple((e, Fraction(n, den)) for e, n in self.table.items())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Poly):
            return NotImplemented
        return self.den == other.den and self.table == other.table

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((self.den, frozenset(self.table.items())))
        return self._hash

    def __repr__(self) -> str:
        return f"Poly(terms={self.terms!r})"


_NAME = r"[A-Za-z_][A-Za-z0-9_]*"
_NAME_RE = re.compile(_NAME)

# The tokens of a polynomial element string, tried in this order at each
# character that is not whitespace.  Each kind has its own group, so
# ``Match.lastindex`` names the kind: 2 for a ratio (groups 1 and 2 hold its
# numerator and denominator), then the constants below.  ``\d`` takes every
# Unicode decimal digit, as ``int`` does.
_TOKEN_RE = re.compile(
    rf"(\d+)/({_DENOMINATOR})"
    r"|(\d+/\d+)"  # a ratio whose denominator breaks the rule: 1/0, 1/02
    r"|(\d+)"
    rf"|({_NAME})"
    r"|([-+*^])"
    r"|(\S)"  # any other character
)
_BAD_RATIO, _INTEGER, _GENERATOR, _OPERATOR, _BAD = 3, 4, 5, 6, 7

# Largest exponent or derivative order a wire document may ask for: element
# strings (``u^N``), diffpoly monomial powers and orders, value-table orders.
MAX_EXPONENT = 64
# Most terms of one polynomial element string or diffpoly element, and most
# rows of a value table, that a wire document may hold.
MAX_TERMS = 10000

# Exponent sums ``ea + eb`` by number of generators: written out for one, two
# and three, each costs a quarter to a third of ``tuple(map(_add, ea, eb))``.
_EXPONENT_ADDERS: dict[int, Callable[[tuple[int, ...], tuple[int, ...]], tuple[int, ...]]] = {
    1: lambda ea, eb: (ea[0] + eb[0],),
    2: lambda ea, eb: (ea[0] + eb[0], ea[1] + eb[1]),
    3: lambda ea, eb: (ea[0] + eb[0], ea[1] + eb[1], ea[2] + eb[2]),
}


def _add_exponents(ea: tuple[int, ...], eb: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(map(_add, ea, eb))


class PolynomialRing(Ring):
    """Multivariate polynomials over ``Q`` or ``F_p``, named generators.

    Every operation accumulates plain integers and normalises once per
    result: one gcd pass over ``Q``, one reduction mod p per term over
    ``F_p``; ``combine`` does the same for a whole weighted sum, and ``dot``
    for a whole row of weighted products.  ``mul`` and ``dot`` share one
    monomial-product loop and skip zero factors.
    """

    def __init__(self, base: Ring, generators: Sequence[str]):
        if not isinstance(base, (RationalField, PrimeField)):
            raise DomainError(f"polynomial coefficients must be Q or Fp, got {base!r}")
        names = tuple(generators)
        if not names:
            raise ValueError("polynomial ring needs at least one generator")
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate generator names: {names}")
        for n in names:
            if not _NAME_RE.fullmatch(n):
                raise ValueError(f"bad generator name: {_echo(n)}")
        self.base = base
        self.generators = names
        self._slots = {name: i for i, name in enumerate(names)}
        self.characteristic = base.characteristic
        self._rational = isinstance(base, RationalField)
        self._modulus = base.p if isinstance(base, PrimeField) else None
        self._unit_den = 1 if self._rational else None
        self._exponent_sum = _EXPONENT_ADDERS.get(len(names), _add_exponents)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, PolynomialRing)
            and other.base == self.base
            and other.generators == self.generators
        )

    def __hash__(self) -> int:
        return hash(("PolynomialRing", self.base, self.generators))

    def __repr__(self) -> str:
        return f"{self.base!r}[{', '.join(self.generators)}]"

    def _reduce(self, table: Mapping[tuple[int, ...], int], den: int | None) -> Poly:
        """The value of integers accumulated over ``den`` (``Q``) or mod p."""
        p = self._modulus
        if p is not None:
            return Poly({e: r for e, n in table.items() if (r := n % p)})
        if 0 in table.values():
            table = {e: n for e, n in table.items() if n}
        if den != 1:
            g = gcd(den, *table.values())
            if g != 1:
                table = {e: n // g for e, n in table.items()}
                den //= g
        return Poly(table, den)

    def _sum_terms(self, terms: Sequence[tuple[tuple[int, ...], int, int]]) -> Poly:
        """The sum of ``(exponents, numerator, denominator)`` terms.

        The one place that merges like terms of a polynomial: one integer
        table over the lcm of the denominators (all 1 over ``F_p``), reduced
        once.
        """
        den = lcm(*[d for _, _, d in terms]) if self._rational else 1
        table: dict[tuple[int, ...], int] = {}
        get = table.get
        for e, n, d in terms:
            table[e] = get(e, 0) + n * (den // d)
        return self._reduce(table, den)

    def _make(self, terms: Iterable[tuple[tuple[int, ...], Element]]) -> Poly:
        """The sum of ``(exponents, base element)`` terms; ints have a denominator too."""
        return self._sum_terms([(e, c.numerator, c.denominator) for e, c in terms])

    def monomial(self, exps: tuple[int, ...], c: Element) -> Poly:
        """The single term ``c * u^exps`` for a base element ``c``."""
        if len(exps) != len(self.generators):
            raise ValueError(f"need {len(self.generators)} exponents, got {len(exps)}")
        return self._make(((tuple(exps), c),))

    def constant(self, c: Element) -> Poly:
        return self.monomial((0,) * len(self.generators), c)

    def gen(self, name: str) -> Poly:
        slot = self.generators.index(name)
        exps = tuple(1 if i == slot else 0 for i in range(len(self.generators)))
        return self.monomial(exps, self.base.one())

    def zero(self) -> Poly:
        return Poly({}, self._unit_den)

    def one(self) -> Poly:
        return self.constant(self.base.one())

    # The value of ``combine((1, 1), (a, b))``, written out: through
    # ``combine`` a sum costs about 1 us more, 4% of a ``check`` run.
    def add(self, a: Poly, b: Poly) -> Poly:
        if not b.table:
            return a
        if not a.table:
            return b
        da, db = a.den, b.den
        if da == db:
            table = dict(a.table)
            get = table.get
            for e, n in b.table.items():
                table[e] = get(e, 0) + n
            return self._reduce(table, da)
        g = gcd(da, db)
        sa, sb = db // g, da // g
        table = {e: n * sa for e, n in a.table.items()}
        get = table.get
        for e, n in b.table.items():
            table[e] = get(e, 0) + n * sb
        return self._reduce(table, da * sa)

    def neg(self, a: Poly) -> Poly:
        if self._rational:
            return Poly({e: -n for e, n in a.table.items()}, a.den)
        p = self._modulus
        return Poly({e: p - n for e, n in a.table.items()})

    def combine(self, weights: Iterable[int], values: Iterable[Poly]) -> Poly:
        """One integer table over the lcm of the denominators, reduced once."""
        pairs = [(w, v) for w, v in zip(weights, values) if v.table]
        if len(pairs) == 1 and pairs[0][0] == 1:
            return pairs[0][1]
        table: dict[tuple[int, ...], int] = {}
        get = table.get
        den = lcm(*[v.den for _, v in pairs]) if self._rational else None
        for w, v in pairs:
            if den is not None:
                w *= den // v.den
            for e, n in v.table.items():
                table[e] = get(e, 0) + w * n
        return self._reduce(table, den)

    def _multiply_into(
        self, table: dict[tuple[int, ...], int], a: Poly, b: Poly, scale: int
    ) -> None:
        """Add ``scale * a * b`` to an integer table: the one monomial-product loop."""
        get, add = table.get, self._exponent_sum
        right = b.table.items()
        for ea, ca in a.table.items():
            ca *= scale
            for eb, cb in right:
                key = add(ea, eb)
                table[key] = get(key, 0) + ca * cb

    def mul(self, a: Poly, b: Poly) -> Poly:
        if not a.table or not b.table:
            return self.zero()
        table: dict[tuple[int, ...], int] = {}
        self._multiply_into(table, a, b, 1)
        return self._reduce(table, a.den * b.den if self._rational else None)

    def dot(
        self,
        x: Sequence[Poly],
        y: Sequence[Poly],
        rows: Iterable[tuple[Sequence[int], Sequence[int], Iterable[int]]],
    ) -> Iterator[Poly]:
        """Each row's products in one integer table, reduced once.

        Pairs with a zero operand are skipped.  Over ``Q`` the table is over
        the lcm of the products' denominators ``a.den * b.den``; over
        ``F_p`` it holds residues times weights.
        """
        multiply_into, rational = self._multiply_into, self._rational
        for left, right, weights in rows:
            pairs = [
                (w, a, b)
                for w, i, j in zip(weights, left, right)
                if (a := x[i]).table and (b := y[j]).table
            ]
            table: dict[tuple[int, ...], int] = {}
            if rational:
                dens = [a.den * b.den for _, a, b in pairs]
                den = lcm(*dens)
                for (w, a, b), d in zip(pairs, dens):
                    multiply_into(table, a, b, w * (den // d))
            else:
                den = None
                for w, a, b in pairs:
                    multiply_into(table, a, b, w)
            yield self._reduce(table, den)

    def eq(self, a: Poly, b: Poly) -> bool:
        return a == b

    def is_zero(self, a: Poly) -> bool:
        return not a.table

    def embed_int(self, n: int) -> Poly:
        return self._reduce({(0,) * len(self.generators): n}, self._unit_den)

    def try_invert(self, a: Poly) -> Poly | None:
        terms = a.terms
        if len(terms) != 1 or any(terms[0][0]):
            return None
        inv = self.base.try_invert(terms[0][1])
        return None if inv is None else self.constant(inv)

    def degree(self, a: Poly) -> int:
        """Total degree; -1 for the zero polynomial."""
        return max(map(sum, a.table), default=-1)

    def render(self, a: Poly) -> str:
        """Terms by descending degree, and within a degree ascending exponents."""
        if not a.table:
            return "0"
        den = a.den
        parts: list[str] = []
        for exps, n in sorted(a.table.items(), key=lambda t: (-sum(t[0]), t[0])):
            factors = [
                name if e == 1 else f"{name}^{e}"
                for name, e in zip(self.generators, exps)
                if e
            ]
            neg = n < 0
            if neg:
                n = -n
            if den is None or den == 1:
                cs = _decimal(n)
            else:
                g = gcd(n, den)
                cs = _decimal(n // g) if g == den else f"{_decimal(n // g)}/{_decimal(den // g)}"
            if factors and cs == "1":
                body = "*".join(factors)
            elif factors:
                body = "*".join([cs] + factors)
            else:
                body = cs
            if not parts:
                parts.append(f"-{body}" if neg else body)
            else:
                parts.append(f"- {body}" if neg else f"+ {body}")
        return " ".join(parts)

    def parse(self, text: str) -> Poly:
        return _parse_poly(self, text)

    def sample(self, rng, degree: int = 2) -> Poly:
        terms = []
        for _ in range(rng.randint(1, 3)):
            exps = [0] * len(self.generators)
            for _ in range(rng.randint(0, degree)):
                exps[rng.randrange(len(self.generators))] += 1
            c = self.base.sample(rng, degree)
            terms.append((tuple(exps), self.base.one() if self.base.is_zero(c) else c))
        return self._make(terms)

    def to_json(self) -> dict:
        doc: dict = {"kind": "poly", "generators": list(self.generators)}
        if self._modulus is not None:
            doc["p"] = self._modulus
        return doc

    def derivation(self, gen_images: Sequence[Poly | str]) -> Derivation:
        """Derivation sending generator j to ``gen_images[j]``, by Leibniz.

        Coefficients are constants: every derivation of ``Q`` or ``F_p`` is
        zero, since ``d(1) = d(1 * 1) = 2 d(1)`` gives ``d(1) = 0`` and every
        element is built from 1 by sums, negation and inverses.
        """
        if len(gen_images) != len(self.generators):
            raise ValueError(
                f"need {len(self.generators)} generator images, got {len(gen_images)}"
            )
        images = tuple(self.parse(g) if isinstance(g, str) else g for g in gen_images)

        # d(c * u^e) = sum over j of c * e_j * u^(e - unit_j) * images[j]: per
        # generator, the exponent steps (image exponents minus unit_j) and
        # numerators over the images' common denominator
        common = lcm(*(g.den for g in images)) if self._rational else None
        steps = tuple(
            tuple(
                (
                    tuple(x - 1 if i == j else x for i, x in enumerate(e)),
                    n * (common // g.den) if self._rational else n,
                )
                for e, n in g.table.items()
            )
            for j, g in enumerate(images)
        )

        add = self._exponent_sum

        def derive(a: Poly) -> Poly:
            table: dict[tuple[int, ...], int] = {}
            get = table.get
            for exps, n in a.table.items():
                for j, e in enumerate(exps):
                    if e:
                        f = n * e
                        for step, m in steps[j]:
                            key = add(exps, step)
                            table[key] = get(key, 0) + f * m
            return self._reduce(table, a.den * common if self._rational else None)

        return derive


def _parse_poly(ring: PolynomialRing, text: str) -> Poly:
    """Parse ``2*u^2*v - 1/3*u + 4`` style strings into normalized polynomials.

    One scan makes every token, and the first bad one is reported before any
    grammar error.  Without parentheses every term is a monomial: its numeric
    factors multiply into one integer numerator and denominator over ``Q``, or
    one residue over ``F_p``, and ``PolynomialRing._sum_terms`` sums the terms.
    """
    tokens = list(_TOKEN_RE.finditer(text))
    kinds = [t.lastindex for t in tokens]
    if _BAD in kinds:
        bad = tokens[kinds.index(_BAD)]
        raise ValueError(f"bad token {bad[0]!r} {_where(text, bad.start())}")
    p, slots, width = ring._modulus, ring._slots, len(ring.generators)
    terms: list[tuple[tuple[int, ...], int, int]] = []
    end = len(tokens)
    sign = tokens[0][_OPERATOR] if tokens else None
    pos = 1 if sign == "+" or sign == "-" else 0
    while True:
        num = den = 1
        exps = [0] * width
        while True:
            if pos == end:
                raise ValueError(f"unexpected end of input {_where(text, len(text))}")
            tok, kind = tokens[pos], kinds[pos]
            pos += 1
            if kind == _GENERATOR:
                slot = slots.get(tok[0])
                if slot is None:
                    at = tok.start()
                    raise ValueError(f"unknown generator {_echo(tok[0])} {_where(text, at)}")
                e = 1
                if pos < end and tokens[pos][_OPERATOR] == "^":
                    pos += 1
                    if pos == end or kinds[pos] != _INTEGER:
                        at = len(text) if pos == end else tokens[pos].start()
                        raise ValueError(f"expected integer exponent {_where(text, at)}")
                    power = tokens[pos]
                    e = _integer(text, power, 0)
                    pos += 1
                    if e > MAX_EXPONENT:
                        shown = e if len(power[0]) <= _ECHO_MAX else _echo(power[0])
                        raise ValueError(
                            f"exponent {shown} exceeds {MAX_EXPONENT} {_where(text, power.start())}"
                        )
                exps[slot] += e
            elif kind == _INTEGER:
                n = _integer(text, tok, 0)
                num = num * n if p is None else num * n % p
            elif kind == _OPERATOR:
                raise ValueError(f"unexpected token {tok[0]!r} {_where(text, tok.start())}")
            elif p is not None:
                raise ValueError(f"not an integer literal: {_echo(tok[0])}")
            elif kind == _BAD_RATIO:
                raise ValueError(f"not a rational literal: {_echo(tok[0])}")
            else:
                num *= _integer(text, tok, 1)
                den *= _integer(text, tok, 2)
            if pos < end and tokens[pos][_OPERATOR] == "*":
                pos += 1
            else:
                break
        terms.append((tuple(exps), -num if sign == "-" else num, den))
        if pos == end:
            break
        sign = tokens[pos][0]
        pos += 1
        if sign != "+" and sign != "-":
            at = tokens[pos - 1].start()
            raise ValueError(f"expected + or - but found {_echo(sign)} {_where(text, at)}")
        if len(terms) == MAX_TERMS:
            raise ValueError(f"more than {MAX_TERMS} terms")
    return ring._sum_terms(terms)


@dataclass(frozen=True, eq=False)
class DifferentialRing:
    """A carrier ring with a tuple of pairwise commuting derivations."""

    ring: Ring
    derivations: tuple[Derivation, ...]

    @property
    def width(self) -> int:
        return len(self.derivations)

    def derive(self, a: Element, slot: int) -> Element:
        return self.derivations[slot](a)

    def derive_iter(self, a: Element, alpha: MultiIndex) -> Element:
        """Apply the family alpha[i] times in slot i (order immaterial)."""
        if alpha.width != self.width:
            raise ValueError(
                f"order width {alpha.width} does not match {self.width} derivations"
            )
        for slot, count in enumerate(alpha):
            for _ in range(count):
                a = self.derivations[slot](a)
        return a


def constant_structure(ring: Ring, width: int) -> DifferentialRing:
    """The carrier with the zero derivation in every slot."""
    if width < 1:
        raise ValueError("need at least one derivation slot")
    return DifferentialRing(ring, tuple(lambda a: ring.zero() for _ in range(width)))


def differential_polynomial_carrier(
    base: Ring,
    generators: Sequence[str],
    images: Sequence[Sequence[Poly | str]],
) -> DifferentialRing:
    """Polynomial carrier with one derivation per row of ``images``.

    ``images[i][j]`` is the image of generator j under derivation i.  The
    family is validated to commute on the generators at construction; this is
    a necessary condition and, for derivations of a polynomial ring over a
    constant base, a sufficient one.
    """
    ring = PolynomialRing(base, generators)
    family = tuple(ring.derivation(row) for row in images)
    for i in range(len(family)):
        for j in range(i + 1, len(family)):
            for name in generators:
                g = ring.gen(name)
                if not ring.eq(family[i](family[j](g)), family[j](family[i](g))):
                    raise ValueError(
                        f"derivations {i} and {j} do not commute on generator {name!r}"
                    )
    return DifferentialRing(ring, family)


def ring_from_json(doc: Any, path: str = "ring") -> Ring:
    """Rebuild a coefficient ring descriptor from its JSON form."""
    _expect_object(doc, path)
    kind = doc.get("kind")
    if kind == "Q":
        _reject_unknown(doc, {"kind"}, path)
        return QQ
    if kind == "Fp":
        _reject_unknown(doc, {"kind", "p"}, path)
        p = doc.get("p")
        if isinstance(p, int):
            try:
                return PrimeField(p)
            except ValueError:
                pass
        raise ValueError(f"{path}.p: expected a prime integer below {_PRIME_BOUND}")
    if kind == "poly":
        _reject_unknown(doc, {"kind", "p", "base", "generators"}, path)
        gens = _expect_names(doc.get("generators"), f"{path}.generators")
        if "base" in doc:
            base = ring_from_json(doc["base"], f"{path}.base")
            if not isinstance(base, (RationalField, PrimeField)):
                raise ValueError(f"{path}.base: expected a Q or Fp descriptor, got {base!r}")
        elif "p" in doc:
            base = ring_from_json({"kind": "Fp", "p": doc["p"]}, path)
        else:
            base = QQ
        try:
            return PolynomialRing(base, gens)
        except ValueError as exc:
            raise ValueError(f"{path}.generators: {exc}") from exc
    # a JSON number, list or object is shown as Python prints it
    got = _echo(kind) if isinstance(kind, str) else _echo(repr(kind), str)
    raise ValueError(f"{path}.kind: expected one of Q, Fp, poly, got {got}")


def _canonical_json(doc: Any) -> str:
    """The canonical text of a JSON document: sorted keys, no spaces."""
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


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


def _expect_names(value: Any, path: str) -> list[str]:
    """A nonempty JSON list of strings."""
    if not isinstance(value, list) or not value or not all(isinstance(v, str) for v in value):
        raise ValueError(f"{path}: expected a nonempty list of names")
    return value


def _expect_element(ring: Ring, value: Any, path: str) -> Element:
    """A JSON string that ``ring`` parses; a parse error names ``path``."""
    text = _expect_string(value, path)
    try:
        return ring.parse(text)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc


def _expect_int(value: Any, path: str, lo: int, hi: int | float) -> int:
    """A JSON integer in [lo, hi]; booleans are not integers."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{path}: expected an integer")
    if not lo <= value <= hi:
        raise ValueError(f"{path}: must be between {lo} and {hi}")
    return value


def _reject_unknown(doc: Mapping[str, Any], allowed: set[str], path: str) -> None:
    """Name the first field of ``doc`` outside ``allowed``, in sorted order."""
    unknown = sorted(set(doc) - allowed)
    if unknown:
        raise ValueError(f"{path}.{unknown[0]}: unknown field")
