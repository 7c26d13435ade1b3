"""Computations made apart from the library, used to check its outputs.

Nothing here imports ``hwtaylor``.  Binomials come from Pascal's triangle,
exponent tuples from ``itertools``, convolutions and the twisted double sum
from direct loops.  Where coefficient arithmetic is needed beyond plain ints
mod p, it is passed in as callables (``Ops``), so the combinatorial skeleton
(weights, signs, iteration) stays independent of the code under test.
Polynomial coefficients over ``Q[u, v]`` are handled by sympy.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import product
from typing import Any, Callable, Mapping, Sequence

Index = tuple[int, ...]


@lru_cache(maxsize=None)
def pascal(n: int, k: int) -> int:
    if k < 0 or k > n:
        return 0
    if k in (0, n):
        return 1
    return pascal(n - 1, k - 1) + pascal(n - 1, k)


def binom(upper: Sequence[int], lower: Sequence[int]) -> int:
    out = 1
    for n, k in zip(upper, lower):
        out *= pascal(n, k)
    return out


def factorial(alpha: Sequence[int]) -> int:
    out = 1
    for e in alpha:
        for k in range(2, e + 1):
            out *= k
    return out


def box(width: int, bound: int) -> list[Index]:
    """All exponent tuples of total degree <= bound (any order)."""
    return [t for t in product(range(bound + 1), repeat=width) if sum(t) <= bound]


def below(alpha: Sequence[int]) -> list[Index]:
    return list(product(*(range(e + 1) for e in alpha)))


def minus(a: Sequence[int], b: Sequence[int]) -> Index:
    return tuple(x - y for x, y in zip(a, b))


# ---------------------------------------------------------------------------
# series over F_p, coefficients as plain ints


def convolve_mod(
    a: Mapping[Index, int], b: Mapping[Index, int], width: int, bound: int, p: int,
    weighted: bool,
) -> dict[Index, int]:
    """Binomial-weighted (Hurwitz) or plain (Cauchy) product mod p."""
    out: dict[Index, int] = {}
    for alpha in box(width, bound):
        acc = 0
        for beta in below(alpha):
            term = a[beta] * b[minus(alpha, beta)]
            if weighted:
                term *= binom(alpha, beta)
            acc += term
        out[alpha] = acc % p
    return out


def shift_mod(a: Mapping[Index, int], width: int, bound: int, slot: int) -> dict[Index, int]:
    """Coefficient alpha of the shift derivative is a[alpha + e_slot]."""
    out: dict[Index, int] = {}
    for alpha in box(width, bound):
        up = tuple(e + 1 if i == slot else e for i, e in enumerate(alpha))
        out[alpha] = a[up] if sum(alpha) < bound else 0
    return out


def one_mod(width: int, bound: int) -> dict[Index, int]:
    return {alpha: int(not any(alpha)) for alpha in box(width, bound)}


# ---------------------------------------------------------------------------
# the twisted double sum with ring arithmetic passed in


@dataclass(frozen=True)
class Ops:
    """Minimal coefficient arithmetic handed to the oracle loops."""

    zero: Any
    add: Callable[[Any, Any], Any]
    mul: Callable[[Any, Any], Any]
    neg: Callable[[Any], Any]
    embed: Callable[[int], Any]


def apply_family(value: Any, family: Sequence[Callable[[Any], Any]], gamma: Sequence[int]) -> Any:
    """Apply family[i] gamma[i] times, last slot first.

    The library walks slots in ascending order; for commuting families both
    walks agree, so walking them in reverse is a separate code path.
    """
    for i in reversed(range(len(gamma))):
        for _ in range(gamma[i]):
            value = family[i](value)
    return value


def twisted_coeff(
    a: Any,
    alpha: Sequence[int],
    source_family: Sequence[Callable[[Any], Any]],
    coeff_family: Sequence[Callable[[Any], Any]],
    phi: Callable[[Any], Any],
    ops: Ops,
) -> Any:
    """Sum over gamma <= alpha of (-1)^|gamma| C(alpha, gamma) delta^gamma phi(d^(alpha-gamma) a)."""
    acc = ops.zero
    for gamma in below(alpha):
        beta = minus(alpha, gamma)
        v = apply_family(phi(apply_family(a, source_family, beta)), coeff_family, gamma)
        term = ops.mul(ops.embed(binom(alpha, gamma)), v)
        if sum(gamma) % 2:
            term = ops.neg(term)
        acc = ops.add(acc, term)
    return acc


def hurwitz_coeff(
    a: Any, alpha: Sequence[int], source_family: Sequence[Callable[[Any], Any]],
    phi: Callable[[Any], Any],
) -> Any:
    """phi of the alpha-th source derivative."""
    return phi(apply_family(a, source_family, alpha))


# ---------------------------------------------------------------------------
# differential polynomials in the benchmark's own representation
#
# An element is a dict {monomial: coefficient}; a monomial is a sorted tuple
# of ((variable, order), power) with positive powers; coefficients are
# whatever the passed-in ops work on.


def _normal(counts: Mapping[tuple[int, Index], int]) -> tuple:
    return tuple(sorted((sym, p) for sym, p in counts.items() if p))


def diffpoly_derive(
    a: Mapping[tuple, Any], slot: int, coeff_derive: Callable[[Any], Any], ops: Ops,
    is_zero: Callable[[Any], bool],
) -> dict[tuple, Any]:
    """Leibniz rule: derive each coefficient, and raise each symbol's order."""
    out: dict[tuple, Any] = {}

    def put(mon: tuple, c: Any) -> None:
        out[mon] = ops.add(out[mon], c) if mon in out else c

    for mon, c in a.items():
        dc = coeff_derive(c)
        if not is_zero(dc):
            put(mon, dc)
        for (var, order), power in mon:
            counts = dict(mon)
            counts[(var, order)] -= 1
            raised = (var, tuple(e + 1 if i == slot else e for i, e in enumerate(order)))
            counts[raised] = counts.get(raised, 0) + 1
            put(_normal(counts), ops.mul(c, ops.embed(power)))
    return {m: c for m, c in out.items() if not is_zero(c)}


def diffpoly_value(
    a: Mapping[tuple, Any], values: Mapping[tuple[int, Index], Any], ops: Ops,
    power: Callable[[Any, int], Any],
) -> Any:
    """The value map: every symbol goes to its table entry."""
    acc = ops.zero
    for mon, c in a.items():
        v = c
        for sym, p in mon:
            v = ops.mul(v, power(values[sym], p))
        acc = ops.add(acc, v)
    return acc
