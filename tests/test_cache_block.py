"""Block-organized controller cache (FOR's organization)."""

import pytest
from hypothesis import given, strategies as st

from repro.cache.block import BlockCache
from repro.config import BlockPolicy
from repro.errors import CacheError


def test_capacity_must_be_positive():
    with pytest.raises(CacheError):
        BlockCache(0)


def test_fill_and_hit():
    cache = BlockCache(8)
    cache.fill([1, 2, 3])
    assert cache.missing([1, 2, 3]) == []
    assert cache.missing([4]) == [4]


def test_capacity_is_respected():
    cache = BlockCache(4)
    cache.fill(list(range(10)))
    assert len(cache) == 4


def test_mru_evicts_most_recently_consumed_first():
    """The block just delivered to the host is the best victim (§4)."""
    cache = BlockCache(4, policy=BlockPolicy.MRU)
    cache.fill([0, 1, 2, 3])
    cache.access([0, 1])  # 1 is now the most recently consumed
    cache.fill([10])
    assert not cache.contains(1)
    assert cache.contains(0)
    assert cache.contains(2) and cache.contains(3)  # unread read-ahead kept


def test_mru_preserves_unconsumed_readahead():
    cache = BlockCache(4, policy=BlockPolicy.MRU)
    cache.fill([0, 1, 2, 3])
    cache.access([0, 1, 2, 3])
    cache.fill([10, 11])
    # evictions hit consumed blocks; fresh read-ahead arrives intact
    assert cache.contains(10) and cache.contains(11)


def test_mru_falls_back_to_oldest_unconsumed():
    cache = BlockCache(4, policy=BlockPolicy.MRU)
    cache.fill([0, 1, 2, 3])  # nothing consumed
    cache.fill([10])
    assert not cache.contains(0)  # oldest unconsumed evicted
    assert cache.stats.useless_evictions == 1


def test_lru_evicts_oldest_unconsumed_first():
    cache = BlockCache(4, policy=BlockPolicy.LRU)
    cache.fill([0, 1, 2, 3])
    cache.access([0])
    cache.fill([10])
    assert not cache.contains(1)
    assert cache.contains(0)


def test_lru_falls_back_to_least_recent_consumed():
    cache = BlockCache(2, policy=BlockPolicy.LRU)
    cache.fill([0, 1])
    cache.access([0, 1])
    cache.fill([2])
    assert not cache.contains(0)
    assert cache.contains(1)


def test_access_moves_between_pools():
    cache = BlockCache(4)
    cache.fill([5])
    cache.access([5])
    cache.access([5])  # re-access of consumed block must not crash
    assert cache.contains(5)


def test_access_unknown_block_is_noop():
    cache = BlockCache(4)
    cache.access([99])
    assert len(cache) == 0


def test_invalidate():
    cache = BlockCache(4)
    cache.fill([1, 2])
    cache.access([1])
    cache.invalidate(1)
    cache.invalidate(2)
    cache.invalidate(3)  # absent: no-op
    assert len(cache) == 0


def test_free_blocks_property():
    cache = BlockCache(8)
    cache.fill([1, 2, 3])
    assert cache.free_blocks == 5


def test_duplicate_fill_not_double_counted():
    cache = BlockCache(8)
    cache.fill([1])
    cache.fill([1])
    assert len(cache) == 1
    assert cache.stats.blocks_filled == 1


def test_stats_hit_rate():
    cache = BlockCache(8)
    cache.fill([1, 2])
    cache.missing([1, 2, 3, 4])
    assert cache.stats.hit_rate == pytest.approx(0.5)


@given(
    st.lists(st.integers(min_value=0, max_value=100), min_size=1, max_size=200),
    st.sampled_from([BlockPolicy.MRU, BlockPolicy.LRU]),
)
def test_never_exceeds_capacity(blocks, policy):
    cache = BlockCache(16, policy=policy)
    for b in blocks:
        cache.fill([b])
        if b % 3 == 0:
            cache.access([b])
    assert len(cache) <= 16


@given(st.lists(st.integers(min_value=0, max_value=50), min_size=1, max_size=100))
def test_contains_consistent_with_missing(blocks):
    cache = BlockCache(8)
    cache.fill(blocks)
    for b in set(blocks):
        assert cache.contains(b) == (b not in cache.peek([b]))


# -- regression: an oversized fill must not evict its own head ---------


def test_oversized_fill_keeps_head_drops_tail():
    """A read-ahead run larger than the pool keeps its *head*.

    Regression: ``fill`` used to evict its own just-inserted blocks to
    make room for the run's tail, leaving the cache holding the end of
    the run while the host consumes from the start — every oversized
    fill became guaranteed misses.
    """
    cache = BlockCache(4, policy=BlockPolicy.MRU)
    cache.fill(list(range(10)))
    assert [b for b in range(10) if cache.contains(b)] == [0, 1, 2, 3]
    assert cache.stats.fill_overflow_blocks == 6
    assert len(cache) == 4


def test_oversized_fill_evicts_older_blocks_before_dropping_tail():
    cache = BlockCache(4, policy=BlockPolicy.MRU)
    cache.fill([100, 101])
    cache.access([100, 101])
    cache.fill(list(range(10)))
    # older consumed blocks make room for the run's head...
    assert not cache.contains(100) and not cache.contains(101)
    assert [b for b in range(10) if cache.contains(b)] == [0, 1, 2, 3]
    # ...and only the tail that cannot fit is sacrificed
    assert cache.stats.fill_overflow_blocks == 6


def test_oversized_fill_lru_policy_also_protected():
    cache = BlockCache(3, policy=BlockPolicy.LRU)
    cache.fill(list(range(8)))
    assert [b for b in range(8) if cache.contains(b)] == [0, 1, 2]
    assert cache.stats.fill_overflow_blocks == 5


def test_fill_overflow_counter_merges():
    a = BlockCache(2)
    a.fill([0, 1, 2])
    b = BlockCache(2)
    b.fill([5, 6, 7, 8])
    merged = a.stats.merge(b.stats)
    assert merged.fill_overflow_blocks == 3


def test_fill_access_cycle_stays_full():
    cache = BlockCache(1024)
    for base in range(0, 32_000, 32):
        cache.fill(range(base, base + 32))
        cache.access(range(base, base + 4))
    assert len(cache) == 1024
