"""Exact multi-index arithmetic and graded-lexicographic enumeration.

A multi-index is a fixed-width tuple of nonnegative integers.  The width is
the number of derivation slots of the ambient structure and never changes
under arithmetic; mixing widths is a caller bug and raises.  All counting
functions return exact Python ints.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import product, repeat
from typing import Iterator, Sequence


@dataclass(frozen=True)
class MultiIndex:
    """Exponent tuple naming one coefficient of a series or one derivative order."""

    entries: tuple[int, ...]

    def __post_init__(self) -> None:
        entries = self.entries
        if not entries:
            raise ValueError("multi-index needs at least one slot")
        if not all(map(isinstance, entries, repeat(int))) or min(entries) < 0:
            raise ValueError(f"multi-index entries must be nonnegative ints: {entries!r}")

    @classmethod
    def of(cls, *entries: int) -> MultiIndex:
        return cls(tuple(entries))

    @classmethod
    def zero(cls, width: int) -> MultiIndex:
        return cls((0,) * width)

    @classmethod
    def unit(cls, width: int, slot: int) -> MultiIndex:
        """The index with a single 1 in ``slot`` (0-based)."""
        if not 0 <= slot < width:
            raise ValueError(f"slot {slot} out of range for width {width}")
        return cls(tuple(1 if i == slot else 0 for i in range(width)))

    @property
    def width(self) -> int:
        return len(self.entries)

    @cached_property
    def degree(self) -> int:
        """Total degree, the sum of all entries."""
        return sum(self.entries)

    def is_zero(self) -> bool:
        return all(e == 0 for e in self.entries)

    def __sub__(self, other: MultiIndex) -> MultiIndex:
        if self.width != other.width:
            raise ValueError(f"width mismatch: {self.entries} vs {other.entries}")
        entries = tuple(a - b for a, b in zip(self.entries, other.entries))
        if min(entries) < 0:
            raise ValueError(f"{other.entries} is not componentwise <= {self.entries}")
        return MultiIndex(entries)

    def __getitem__(self, slot: int) -> int:
        return self.entries[slot]

    def __iter__(self) -> Iterator[int]:
        return iter(self.entries)

    def __repr__(self) -> str:
        return f"MultiIndex{self.entries!r}"


def grlex_rank(entries: Sequence[int]) -> int:
    """Position of the index with these entries in graded-lex order, in O(width).

    Graded-lex order sorts indices by total degree, and within a degree by
    their entries in descending lexicographic order, so the leading slots
    weigh most: for width 2 the grade-1 indices come as (1,0) then (0,1).
    For an index of degree d, before it come the binom(d - 1 + w, w)
    indices of lower degree, then, for each slot i but the last, the
    indices of degree d that agree with it before slot i and are larger at
    i.  Their entries after i sum to less than s, the sum of its own entries
    after i, so there are binom(s - 1 + k, k) of them for the k = w - 1 - i
    slots after i.
    """
    width = len(entries)
    suffix = sum(entries)
    rank = math.comb(suffix - 1 + width, width)
    for i in range(width - 1):
        suffix -= entries[i]
        k = width - 1 - i
        rank += math.comb(suffix - 1 + k, k)
    return rank


def grlex_unrank(width: int, rank: int) -> tuple[int, ...]:
    """The entries of the index at position ``rank``: ``grlex_rank`` inverted."""
    if width < 1:
        raise ValueError("width must be at least 1")
    if rank < 0:
        raise ValueError("rank must be nonnegative")
    degree = 0
    while math.comb(degree + width, width) <= rank:
        degree += 1
    rank -= math.comb(degree - 1 + width, width)
    entries = []
    suffix = degree  # the sum of the entries from slot i on
    for i in range(width - 1):
        k = width - 1 - i
        # the largest sum after slot i whose count of larger indices fits
        after = suffix
        while math.comb(after - 1 + k, k) > rank:
            after -= 1
        rank -= math.comb(after - 1 + k, k)
        entries.append(suffix - after)
        suffix = after
    entries.append(suffix)
    return tuple(entries)


@lru_cache(maxsize=None)
def enumerate_upto(width: int, bound: int) -> tuple[MultiIndex, ...]:
    """All indices of total degree <= bound in graded-lex order, by unranking."""
    if width < 1:
        raise ValueError("width must be at least 1")
    if bound < 0:
        raise ValueError("bound must be nonnegative")
    return tuple(MultiIndex(grlex_unrank(width, r)) for r in range(count_upto(width, bound)))


def count_upto(width: int, bound: int) -> int:
    """Number of indices of total degree <= bound: binom(bound + width, width)."""
    return math.comb(bound + width, width)


def iter_dominated(alpha: MultiIndex) -> tuple[MultiIndex, ...]:
    """All beta componentwise <= alpha, in a fixed deterministic order."""
    return tuple(
        MultiIndex(entries)
        for entries in product(*(range(e + 1) for e in alpha.entries))
    )
