"""Segment-organized controller cache."""

import numpy as np
import pytest

from repro.cache.segment import SegmentCache
from repro.config import SegmentPolicy
from repro.errors import CacheError


@pytest.fixture
def cache():
    return SegmentCache(n_segments=3, segment_blocks=4)


def test_rejects_degenerate_sizes():
    with pytest.raises(CacheError):
        SegmentCache(n_segments=0, segment_blocks=4)
    with pytest.raises(CacheError):
        SegmentCache(n_segments=2, segment_blocks=0)


def test_fill_then_hit(cache):
    cache.fill([10, 11, 12, 13], stream_hint=0)
    assert cache.missing([10, 11, 12, 13]) == []
    assert cache.stats.block_hits == 4


def test_missing_reports_absent_blocks(cache):
    cache.fill([10, 11], stream_hint=0)
    assert cache.missing([10, 11, 12]) == [12]
    assert cache.stats.block_misses == 1


def test_whole_segment_replacement(cache):
    """Evicting drops every block of the victim segment at once."""
    for stream, base in enumerate((0, 100, 200)):
        cache.fill([base, base + 1], stream_hint=stream)
    assert cache.segments_in_use == 3
    cache.fill([300, 301], stream_hint=9)
    # Segment of stream 0 (LRU) is fully gone.
    assert cache.peek([0, 1]) == [0, 1]
    assert cache.peek([300, 301]) == []
    assert cache.stats.evictions == 1


def test_lru_victim_is_least_recently_touched(cache):
    cache.fill([0, 1], stream_hint=0)
    cache.fill([100, 101], stream_hint=1)
    cache.fill([200, 201], stream_hint=2)
    cache.access([0])  # refresh stream 0's segment
    cache.fill([300], stream_hint=3)
    assert cache.contains(0)  # refreshed survives
    assert not cache.contains(100)  # stream 1 was the LRU victim


def test_stream_reuses_its_own_segment(cache):
    cache.fill([0, 1], stream_hint=5)
    cache.fill([50, 51], stream_hint=5)
    assert cache.segments_in_use == 1
    assert not cache.contains(0)
    assert cache.contains(50)


def test_long_fill_splits_across_segments(cache):
    run = list(range(10))  # 10 blocks > segment_blocks=4
    cache.fill(run, stream_hint=-1)
    # 3 chunks of <=4 blocks; all fit in 3 segments.
    assert cache.segments_in_use == 3
    assert cache.missing(run) == []


def test_fifo_policy_evicts_oldest_created():
    cache = SegmentCache(2, 2, policy=SegmentPolicy.FIFO)
    cache.fill([0], stream_hint=0)
    cache.fill([10], stream_hint=1)
    cache.access([0])  # touching does NOT save a FIFO victim
    cache.fill([20], stream_hint=2)
    assert not cache.contains(0)
    assert cache.contains(10)


def test_round_robin_policy_cycles():
    cache = SegmentCache(2, 2, policy=SegmentPolicy.ROUND_ROBIN)
    cache.fill([0], stream_hint=0)
    cache.fill([10], stream_hint=1)
    cache.fill([20], stream_hint=2)
    cache.fill([30], stream_hint=3)
    # two evictions happened; both original segments cycled out
    assert not cache.contains(0)
    assert not cache.contains(10)


def test_random_policy_uses_rng():
    rng = np.random.default_rng(0)
    cache = SegmentCache(2, 2, policy=SegmentPolicy.RANDOM, rng=rng)
    cache.fill([0], stream_hint=0)
    cache.fill([10], stream_hint=1)
    cache.fill([20], stream_hint=2)
    assert cache.segments_in_use == 2


def test_useless_eviction_accounting(cache):
    cache.fill([0, 1, 2, 3], stream_hint=0)
    cache.access([0, 1])  # two of four consumed
    cache.fill([100], stream_hint=1)
    cache.fill([200], stream_hint=2)
    cache.fill([300], stream_hint=3)  # evicts stream 0's segment
    assert cache.stats.useless_evictions == 2


def test_invalidate_removes_single_block(cache):
    cache.fill([0, 1, 2], stream_hint=0)
    cache.invalidate(1)
    assert not cache.contains(1)
    assert cache.contains(0)
    assert cache.contains(2)


def test_invalidate_last_block_drops_segment(cache):
    cache.fill([7], stream_hint=0)
    cache.invalidate(7)
    assert cache.segments_in_use == 0


def test_invalidate_emptied_segment_accounts_eviction(cache):
    """Regression: draining a segment via invalidate() must route
    through the normal drop path — eviction stats and the
    ``cache.evict`` tracer instant used to be silently skipped."""
    from repro.obs.tracer import Tracer

    tracer = Tracer()
    cache.attach_tracer(tracer, "t")
    cache.fill([7, 8], stream_hint=0)
    cache.access([7])
    cache.invalidate(7)
    assert cache.stats.evictions == 0  # segment still holds block 8
    cache.invalidate(8)
    assert cache.segments_in_use == 0
    assert cache.stats.evictions == 1
    # Invalidated blocks left one at a time are not *evicted* unused —
    # pollution accounting stays clean, but the drop itself is visible.
    assert cache.stats.useless_evictions == 0
    evicts = [e for e in tracer.events if e[3] == "cache.evict"]
    assert len(evicts) == 1
    assert evicts[0][7]["stream"] == 0


def test_invalidate_emptied_segment_frees_slot_and_stream(cache):
    """The drained segment's slot and stream binding are fully
    released: the stream gets a fresh segment and no stale slot keeps
    a later victim search alive."""
    cache.fill([7], stream_hint=0)
    cache.invalidate(7)
    # The stream's binding is gone: a new fill allocates cleanly ...
    cache.fill([20, 21], stream_hint=0)
    assert cache.segments_in_use == 1
    assert cache.contains(20)
    # ... and capacity accounting is exact: three more streams force
    # exactly one replacement eviction (the cache has 3 segments; the
    # earlier invalidate-drop already counted one eviction).
    cache.fill([30], stream_hint=1)
    cache.fill([40], stream_hint=2)
    cache.fill([50], stream_hint=3)
    assert cache.segments_in_use == 3
    assert cache.stats.evictions == 2


def test_duplicate_fill_is_idempotent(cache):
    cache.fill([1, 2], stream_hint=0)
    cache.fill([1, 2], stream_hint=1)
    assert len(cache) == 2


def test_len_counts_blocks(cache):
    cache.fill([0, 1, 2], stream_hint=0)
    assert len(cache) == 3


def test_fill_access_cycle_uses_every_segment():
    cache = SegmentCache(27, 32)
    for i, base in enumerate(range(0, 32_000, 32)):
        cache.fill(list(range(base, base + 32)), stream_hint=i % 128)
        cache.access(range(base, base + 4))
    assert cache.segments_in_use == 27
