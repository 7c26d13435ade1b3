"""Independent reference implementations used to pin expected values.

Everything here is deliberately naive and self-contained: binomials come from
Pascal's triangle, enumeration from itertools, convolutions and signed double
sums from direct loops over exponent tuples.  Nothing imports the library, so
a bug in the package cannot hide inside its own oracle.  Where a check needs
coefficient arithmetic fancier than Fraction/int, the ops are passed in as
plain callables; the combinatorial skeleton (weights, signs, iteration) stays
independent of the code under test.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import Any, Callable, Mapping, Sequence


def pascal_binomial(n: int, k: int) -> int:
    if k < 0 or k > n:
        return 0
    row = [1]
    for _ in range(n):
        row = [1] + [row[i] + row[i + 1] for i in range(len(row) - 1)] + [1]
    return row[k]


def tuple_binomial(upper: Sequence[int], lower: Sequence[int]) -> int:
    out = 1
    for n, k in zip(upper, lower):
        out *= pascal_binomial(n, k)
    return out


def tuple_factorial(alpha: Sequence[int]) -> int:
    out = 1
    for e in alpha:
        for k in range(2, e + 1):
            out *= k
    return out


def tuples_upto(width: int, bound: int) -> list[tuple[int, ...]]:
    """All exponent tuples of total degree <= bound (set oracle, any order)."""
    return [t for t in product(range(bound + 1), repeat=width) if sum(t) <= bound]


def dominated(alpha: Sequence[int]) -> list[tuple[int, ...]]:
    return list(product(*(range(e + 1) for e in alpha)))


def tuple_sub(a: Sequence[int], b: Sequence[int]) -> tuple[int, ...]:
    return tuple(x - y for x, y in zip(a, b))


def grlex_key(alpha: Sequence[int]) -> tuple[int, tuple[int, ...]]:
    """Sort key for graded-lex order: by total degree, then lexicographically
    descending, so the leading slots weigh most."""
    entries = tuple(alpha)
    return (sum(entries), tuple(-e for e in entries))


def grlex_tuples(width: int, bound: int) -> list[tuple[int, ...]]:
    """``tuples_upto`` in graded-lex order: lexicographically descending, then
    stably sorted by degree."""
    return sorted(sorted(tuples_upto(width, bound), reverse=True), key=sum)


def naive_plan(width: int, trunc: int) -> dict[str, Any]:
    """The tables of a convolution plan, by list lookups over ``grlex_tuples``.

    ``rows[p]`` runs over ``dominated(alpha)``: the positions of beta and of
    alpha - beta, and the binomial; ``shifts[slot]`` pairs each index below
    the top grade with the position of its step up in ``slot`` and the new
    entry there; ``lines[slot]`` gives, for each index alpha with
    ``alpha[slot] == 0``, the positions of alpha + n e_slot up to the top
    grade; ``parents`` pairs each nonzero index with the position of its
    step down in its first nonzero slot, and that slot.
    """
    indices = grlex_tuples(width, trunc)

    def step(alpha: tuple[int, ...], slot: int, by: int) -> int:
        return indices.index(tuple(e + by if i == slot else e for i, e in enumerate(alpha)))

    rows = []
    for alpha in indices:
        betas = dominated(alpha)
        rows.append((
            tuple(indices.index(beta) for beta in betas),
            tuple(indices.index(tuple_sub(alpha, beta)) for beta in betas),
            tuple(tuple_binomial(alpha, beta) for beta in betas),
        ))
    below_top = [alpha for alpha in indices if sum(alpha) < trunc]
    shifts = tuple(
        tuple((step(alpha, slot, 1), alpha[slot] + 1) for alpha in below_top)
        for slot in range(width)
    )
    lines = tuple(
        tuple(
            tuple(step(alpha, slot, n) for n in range(trunc - sum(alpha) + 1))
            for alpha in indices
            if alpha[slot] == 0
        )
        for slot in range(width)
    )
    parents = []
    for alpha in indices[1:]:
        slot = min(i for i, e in enumerate(alpha) if e > 0)
        parents.append((step(alpha, slot, -1), slot))
    return {
        "indices": indices,
        "rows": tuple(rows),
        "shifts": shifts,
        "lines": lines,
        "parents": tuple(parents),
        "factorials": tuple(tuple_factorial(alpha) for alpha in indices),
    }


@dataclass(frozen=True)
class Ops:
    """Minimal coefficient arithmetic handed to the oracle loops."""

    zero: Any
    add: Callable[[Any, Any], Any]
    mul: Callable[[Any, Any], Any]
    neg: Callable[[Any], Any]
    embed: Callable[[int], Any]


FRACTION_OPS = Ops(
    zero=Fraction(0),
    add=lambda a, b: a + b,
    mul=lambda a, b: a * b,
    neg=lambda a: -a,
    embed=Fraction,
)


def fp_ops(p: int) -> Ops:
    return Ops(
        zero=0,
        add=lambda a, b: (a + b) % p,
        mul=lambda a, b: (a * b) % p,
        neg=lambda a: (-a) % p,
        embed=lambda n: n % p,
    )


def hurwitz_product(
    a: Mapping[tuple[int, ...], Any],
    b: Mapping[tuple[int, ...], Any],
    width: int,
    bound: int,
    ops: Ops,
    weighted: bool = True,
) -> dict[tuple[int, ...], Any]:
    """Binomial-weighted convolution, computed by the literal triple loop.

    ``weighted=False`` drops the binomials: the plain (Cauchy) convolution.
    """
    out: dict[tuple[int, ...], Any] = {}
    for alpha in tuples_upto(width, bound):
        acc = ops.zero
        for beta in dominated(alpha):
            gamma = tuple_sub(alpha, beta)
            w = ops.embed(tuple_binomial(alpha, beta) if weighted else 1)
            acc = ops.add(acc, ops.mul(w, ops.mul(a.get(beta, ops.zero), b.get(gamma, ops.zero))))
        out[alpha] = acc
    return out


def series_ops(base: Ops, width: int, bound: int) -> Ops:
    """Arithmetic on dense series tables over ``base``, for series of series."""
    indices = tuples_upto(width, bound)
    zero = dict.fromkeys(indices, base.zero)
    return Ops(
        zero=zero,
        add=lambda a, b: {i: base.add(a[i], b[i]) for i in indices},
        mul=lambda a, b: hurwitz_product(a, b, width, bound, base),
        neg=lambda a: {i: base.neg(a[i]) for i in indices},
        embed=lambda n: {**zero, indices[0]: base.embed(n)},
    )


def apply_family(value: Any, family: Sequence[Callable[[Any], Any]], gamma: Sequence[int]) -> Any:
    """Apply family[i] gamma[i] times, slots in reverse order.

    The library walks slots in ascending order; commuting families make both
    walks equal, so the reversed order is a genuinely different code path.
    """
    for i in reversed(range(len(gamma))):
        for _ in range(gamma[i]):
            value = family[i](value)
    return value


def ev_twist_coeff(
    table: Mapping[tuple[int, ...], Any],
    alpha: Sequence[int],
    family: Sequence[Callable[[Any], Any]],
    ops: Ops,
) -> Any:
    """Coefficient Sum_{gamma <= alpha} binom(alpha, gamma) family^gamma(a_{alpha-gamma})."""
    acc = ops.zero
    for gamma in dominated(alpha):
        rest = tuple_sub(alpha, gamma)
        v = apply_family(table.get(rest, ops.zero), family, gamma)
        acc = ops.add(acc, ops.mul(ops.embed(tuple_binomial(alpha, gamma)), v))
    return acc


def twisted_hurwitz_coeff(
    a: Any,
    alpha: Sequence[int],
    source_family: Sequence[Callable[[Any], Any]],
    coeff_family: Sequence[Callable[[Any], Any]],
    phi: Callable[[Any], Any],
    ops: Ops,
) -> Any:
    """Signed double sum, gamma-form: no caching, reversed derivation order."""
    acc = ops.zero
    for gamma in dominated(alpha):
        beta = tuple_sub(alpha, gamma)
        v = apply_family(phi(apply_family(a, source_family, beta)), coeff_family, gamma)
        t = ops.mul(ops.embed(tuple_binomial(alpha, gamma)), v)
        if sum(gamma) % 2:
            t = ops.neg(t)
        acc = ops.add(acc, t)
    return acc


def twisted_divided_coeff(
    a: Any,
    alpha: Sequence[int],
    source_family: Sequence[Callable[[Any], Any]],
    coeff_family: Sequence[Callable[[Any], Any]],
    phi: Callable[[Any], Any],
    ops: Ops,
    divide: Callable[[Any, int], Any],
) -> Any:
    """Signed double sum in the beta-form, then divided by alpha factorial."""
    acc = ops.zero
    for beta in dominated(alpha):
        gamma = tuple_sub(alpha, beta)
        v = apply_family(phi(apply_family(a, source_family, beta)), coeff_family, gamma)
        t = ops.mul(ops.embed(tuple_binomial(alpha, beta)), v)
        if sum(gamma) % 2:
            t = ops.neg(t)
        acc = ops.add(acc, t)
    return divide(acc, tuple_factorial(alpha))


# Polynomials as plain dicts from exponent tuples to coefficients (Fraction or
# residue, per ``ops``), zero coefficients dropped.


def _nonzero(table: Mapping[tuple, Any], ops: Ops) -> dict[tuple, Any]:
    return {e: c for e, c in table.items() if c != ops.zero}


def poly_add(a: Mapping, b: Mapping, ops: Ops) -> dict:
    out = dict(a)
    for e, c in b.items():
        out[e] = ops.add(out.get(e, ops.zero), c)
    return _nonzero(out, ops)


def poly_neg(a: Mapping, ops: Ops) -> dict:
    return {e: ops.neg(c) for e, c in a.items()}


def poly_mul(a: Mapping, b: Mapping, ops: Ops) -> dict:
    out: dict = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = tuple(x + y for x, y in zip(ea, eb))
            out[e] = ops.add(out.get(e, ops.zero), ops.mul(ca, cb))
    return _nonzero(out, ops)


def poly_from_terms(terms: Sequence[tuple[tuple[int, ...], Any]], ops: Ops) -> dict:
    """The sum of ``(exponents, coefficient)`` terms, added in turn; a key keeps
    the place of its first term."""
    out: dict = {}
    for e, c in terms:
        out[e] = ops.add(out.get(e, ops.zero), c)
    return _nonzero(out, ops)


def poly_sample(rng, width: int, degree: int, p: int | None) -> dict:
    """``PolynomialRing.sample`` over ``Q`` (``p`` None) or ``F_p``, replayed.

    The same draws in the same order: the number of terms, then per term its
    exponent steps and its coefficient (``Fraction(randint(-4, 4),
    randint(1, 3))`` or ``randrange(p)``), a zero coefficient made 1.
    """
    ops = FRACTION_OPS if p is None else fp_ops(p)
    terms = []
    for _ in range(rng.randint(1, 3)):
        exps = [0] * width
        for _ in range(rng.randint(0, degree)):
            exps[rng.randrange(width)] += 1
        c = Fraction(rng.randint(-4, 4), rng.randint(1, 3)) if p is None else rng.randrange(p)
        terms.append((tuple(exps), c or ops.embed(1)))
    return poly_from_terms(terms, ops)


def poly_combine(weights: Sequence[int], values: Sequence[Mapping], width: int, ops: Ops) -> dict:
    """Sum of w * v, each value scaled by the constant w and added in turn."""
    out: dict = {}
    for w, v in zip(weights, values):
        out = poly_add(out, poly_mul(_nonzero({(0,) * width: ops.embed(w)}, ops), v, ops), ops)
    return out


def poly_pow(a: Mapping, n: int, width: int, ops: Ops) -> dict:
    out = _nonzero({(0,) * width: ops.embed(1)}, ops)
    for _ in range(n):
        out = poly_mul(out, a, ops)
    return out


def poly_derive(a: Mapping, images: Sequence[Mapping], ops: Ops) -> dict:
    """The derivation sending generator j to ``images[j]``, term by term.

    Each monomial u^e is written as a product of single generators and
    differentiated one factor at a time, without the power rule.
    """
    out: dict = {}
    for e, c in a.items():
        factors = [j for j, k in enumerate(e) for _ in range(k)]
        for pos, j in enumerate(factors):
            rest = [0] * len(e)
            for other in factors[:pos] + factors[pos + 1 :]:
                rest[other] += 1
            for ie, ic in images[j].items():
                key = tuple(x + y for x, y in zip(rest, ie))
                out[key] = ops.add(out.get(key, ops.zero), ops.mul(c, ic))
    return _nonzero(out, ops)


def poly_invert(a: Mapping, width: int, inverse: Callable[[Any], Any]) -> dict | None:
    """Units of a polynomial ring over a field are the nonzero constants."""
    zero_exps = (0,) * width
    if list(a) != [zero_exps]:
        return None
    return {zero_exps: inverse(a[zero_exps])}


def poly_ops(base: Ops, width: int) -> Ops:
    """Arithmetic on dict polynomials over ``base``, for the series oracles."""
    return Ops(
        zero={},
        add=lambda a, b: poly_add(a, b, base),
        mul=lambda a, b: poly_mul(a, b, base),
        neg=lambda a: poly_neg(a, base),
        embed=lambda n: _nonzero({(0,) * width: base.embed(n)}, base),
    )


# Differential polynomials as plain dicts from monomials to coefficients (per
# ``ops``), zero coefficients dropped.  A monomial is the sorted tuple of its
# ``((var, order), power)`` factors, with ``order`` a tuple and every power
# positive.


def _monomial(factors: Mapping[tuple[int, tuple[int, ...]], int]) -> tuple:
    return tuple(sorted((s, p) for s, p in factors.items() if p))


def diffpoly_from_terms(terms: Sequence[tuple[Sequence, Any]], ops: Ops) -> dict:
    """The sum of ``([var, order, power] factors, coefficient)`` terms, added in turn."""
    out: dict = {}
    for factors, c in terms:
        key = _monomial({(var, tuple(order)): power for var, order, power in factors})
        out[key] = ops.add(out.get(key, ops.zero), c)
    return _nonzero(out, ops)


def diffpoly_add(a: Mapping, b: Mapping, ops: Ops) -> dict:
    out = dict(a)
    for m, c in b.items():
        out[m] = ops.add(out.get(m, ops.zero), c)
    return _nonzero(out, ops)


def diffpoly_mul(a: Mapping, b: Mapping, ops: Ops) -> dict:
    out: dict = {}
    for ma, ca in a.items():
        for mb, cb in b.items():
            factors = dict(ma)
            for s, p in mb:
                factors[s] = factors.get(s, 0) + p
            key = _monomial(factors)
            out[key] = ops.add(out.get(key, ops.zero), ops.mul(ca, cb))
    return _nonzero(out, ops)


def diffpoly_derive(
    a: Mapping, slot: int, derive_coefficient: Callable[[Any], Any], ops: Ops
) -> dict:
    """Leibniz: ``c' m`` plus, for each factor ``s^p``, ``p c s^(p-1) s' (rest)``,
    where ``s'`` is ``s`` with its order one higher in ``slot``."""
    out: dict = {}

    def put(key: tuple, c: Any) -> None:
        out[key] = ops.add(out.get(key, ops.zero), c)

    for m, c in a.items():
        put(m, derive_coefficient(c))
        for (var, order), p in m:
            factors = dict(m)
            factors[(var, order)] -= 1
            up = (var, tuple(e + 1 if i == slot else e for i, e in enumerate(order)))
            factors[up] = factors.get(up, 0) + 1
            put(_monomial(factors), ops.mul(ops.embed(p), c))
    return _nonzero(out, ops)


def diffpoly_json_canonical(terms: Sequence[Mapping]) -> list[dict]:
    """A differential polynomial's JSON terms in the canonical order.

    A symbol ``[var, order]`` sorts by the degree of its order, then by the
    order with larger leading entries first, then by variable.  A monomial
    lists its factors in symbol order; terms sort by total power, then by
    their ``(symbol, power)`` factor sequences.
    """

    def symbol_key(factor: Sequence) -> tuple:
        var, order, _ = factor
        return (sum(order), [-e for e in order], var)

    out = [
        {"coeff": term["coeff"], "monomial": sorted(term["monomial"], key=symbol_key)}
        for term in terms
    ]
    out.sort(
        key=lambda term: (
            sum(f[2] for f in term["monomial"]),
            [(symbol_key(f), f[2]) for f in term["monomial"]],
        )
    )
    return out
