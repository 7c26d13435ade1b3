from __future__ import annotations

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from hwtaylor.multiindex import (
    MultiIndex,
    count_upto,
    enumerate_upto,
    iter_dominated,
)

from oracles import dominated, grlex_key, pascal_binomial, tuples_upto


indices = st.integers(min_value=0, max_value=6)


def multiindices(width: int | None = None):
    widths = st.just(width) if width else st.integers(min_value=1, max_value=3)
    return widths.flatmap(
        lambda w: st.tuples(*([indices] * w)).map(MultiIndex)
    )


class TestBasics:
    def test_zero_and_unit(self):
        assert MultiIndex.zero(3).entries == (0, 0, 0)
        assert MultiIndex.unit(3, 1).entries == (0, 1, 0)
        assert MultiIndex.of(2, 0, 1).degree == 3

    def test_validation(self):
        with pytest.raises(ValueError, match=r"^multi-index needs at least one slot$"):
            MultiIndex(())
        for entries in [(1.5,), ("1",), (None,), (1, -1)]:
            message = f"multi-index entries must be nonnegative ints: {entries!r}"
            with pytest.raises(ValueError) as exc:
                MultiIndex(entries)
            assert str(exc.value) == message
        with pytest.raises(ValueError):
            MultiIndex.unit(2, 2)
        # bool is an int subclass, and always was accepted
        assert MultiIndex((True, 0)).entries == (True, 0)

    @given(multiindices())
    def test_hash_and_equality_follow_the_entries(self, alpha):
        # the generated dataclass hash, so set and dict order follow the entries
        twin = MultiIndex(tuple(alpha.entries))
        assert twin is not alpha
        assert twin == alpha and not twin != alpha
        assert hash(twin) == hash(alpha) == hash((alpha.entries,))

    def test_not_equal_to_other_types_or_entries(self):
        assert MultiIndex((1, 2)) != (1, 2)
        assert MultiIndex.of(1, 2) != MultiIndex.of(2, 1)
        assert MultiIndex.of(1, 2) != MultiIndex.of(1, 2, 0)

    def test_width_mismatch(self):
        with pytest.raises(ValueError, match="width mismatch"):
            MultiIndex.of(1, 2) - MultiIndex.of(1)
        with pytest.raises(ValueError, match="width mismatch"):
            MultiIndex.of(1, 2) - MultiIndex.of(1, 2, 0)

    def test_sub_needs_domination(self):
        with pytest.raises(ValueError):
            MultiIndex.of(1, 0) - MultiIndex.of(0, 1)
        assert (MultiIndex.of(3, 2) - MultiIndex.of(1, 2)).entries == (2, 0)


class TestEnumeration:
    def test_grlex_prefix(self):
        got = [a.entries for a in enumerate_upto(2, 2)]
        assert got == [(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)]

    def test_frozen_count(self):
        # stars and bars: binom(6 + 2, 2) = 28
        assert len(enumerate_upto(2, 6)) == 28
        assert count_upto(2, 6) == 28

    @given(st.integers(min_value=1, max_value=3), st.integers(min_value=0, max_value=5))
    def test_count_and_membership(self, width, bound):
        got = enumerate_upto(width, bound)
        assert len(got) == count_upto(width, bound) == math.comb(bound + width, width)
        assert sorted(a.entries for a in got) == sorted(tuples_upto(width, bound))

    @given(st.integers(min_value=1, max_value=3), st.integers(min_value=0, max_value=5))
    def test_strictly_increasing(self, width, bound):
        got = enumerate_upto(width, bound)
        keys = [grlex_key(a) for a in got]
        assert all(x < y for x, y in zip(keys, keys[1:]))


class TestDominated:
    def test_box(self):
        got = [b.entries for b in iter_dominated(MultiIndex.of(1, 2))]
        assert sorted(got) == [(0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (1, 2)]

    @given(multiindices())
    def test_count(self, alpha):
        n = 1
        for e in alpha:
            n *= e + 1
        got = [b.entries for b in iter_dominated(alpha)]
        assert len(got) == n
        assert sorted(got) == sorted(dominated(alpha.entries))


def test_pascal_oracle_sanity():
    assert [pascal_binomial(4, k) for k in range(5)] == [1, 4, 6, 4, 1]
