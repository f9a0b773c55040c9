"""Read-ahead policies and the FOR sequentiality bitmap."""

import pytest
from hypothesis import given, strategies as st

from repro.errors import AddressError, ConfigError
from repro.readahead.bitmap import SequentialityBitmap
from repro.readahead.blind import BlindReadAhead
from repro.readahead.file_oriented import FileOrientedReadAhead
from repro.readahead.none import NoReadAhead


class TestBitmap:
    def test_needs_positive_size(self):
        with pytest.raises(AddressError):
            SequentialityBitmap(0)

    def test_set_and_query(self):
        bitmap = SequentialityBitmap(16)
        bitmap.set_continuation(3)
        assert bitmap.is_continuation(3)
        assert not bitmap.is_continuation(4)
        bitmap.set_continuation(3, value=False)
        assert not bitmap.is_continuation(3)

    def test_out_of_range_query_is_false(self):
        bitmap = SequentialityBitmap(8)
        assert not bitmap.is_continuation(-1)
        assert not bitmap.is_continuation(8)

    def test_out_of_range_set_raises(self):
        bitmap = SequentialityBitmap(8)
        with pytest.raises(AddressError):
            bitmap.set_continuation(8)
        with pytest.raises(AddressError):
            bitmap.set_many([2, 9])

    def test_run_length_counts_to_first_zero(self):
        bitmap = SequentialityBitmap(16)
        bitmap.set_many([5, 6, 7])  # blocks 4..7 form a run
        assert bitmap.run_length_from(4, limit=16) == 4
        assert bitmap.run_length_from(5, limit=16) == 3
        assert bitmap.run_length_from(8, limit=16) == 1

    def test_run_length_respects_limit(self):
        bitmap = SequentialityBitmap(16)
        bitmap.set_many(range(1, 16))
        assert bitmap.run_length_from(0, limit=4) == 4

    def test_run_length_scan_over_a_large_bitmap(self):
        bitmap = SequentialityBitmap(1_000_000)
        bitmap.set_many(range(1, 1_000_000, 2))
        total = sum(
            bitmap.run_length_from(start, 32) for start in range(0, 1_000_000, 1000)
        )
        assert total > 0

    def test_run_length_clamps_at_end(self):
        bitmap = SequentialityBitmap(8)
        bitmap.set_many(range(1, 8))
        assert bitmap.run_length_from(5, limit=32) == 3

    def test_overhead_matches_one_bit_per_block(self):
        assert SequentialityBitmap(4096 * 8).overhead_bytes() == 4096
        assert SequentialityBitmap(9).overhead_bytes() == 2

    def test_clear_and_ones(self):
        bitmap = SequentialityBitmap(16)
        bitmap.set_many([1, 2, 3])
        assert bitmap.ones() == 3
        bitmap.clear()
        assert bitmap.ones() == 0

    def test_set_many_empty_ok(self):
        SequentialityBitmap(8).set_many([])


class TestBlind:
    def test_reads_full_segment(self):
        policy = BlindReadAhead(32)
        assert policy.read_size(0, 4, 10_000) == 32

    def test_never_shrinks_request(self):
        policy = BlindReadAhead(8)
        assert policy.read_size(0, 16, 10_000) == 16

    def test_clamps_at_disk_end(self):
        policy = BlindReadAhead(32)
        assert policy.read_size(9_990, 4, 10_000) == 10

    def test_rejects_zero_readahead(self):
        with pytest.raises(ConfigError):
            BlindReadAhead(0)


class TestNone:
    def test_exact_request(self):
        policy = NoReadAhead()
        assert policy.read_size(100, 7, 10_000) == 7

    def test_clamped(self):
        assert NoReadAhead().read_size(9_998, 7, 10_000) == 2


class TestFileOriented:
    def make(self, run_start, run_len, n_blocks=1000, max_ra=32):
        bitmap = SequentialityBitmap(n_blocks)
        end = min(run_start + run_len, n_blocks)
        bitmap.set_many(range(run_start + 1, end))
        return FileOrientedReadAhead(bitmap, max_ra)

    def test_stops_at_file_boundary(self):
        # file occupies blocks 10..17 (8 blocks)
        policy = self.make(10, 8)
        assert policy.read_size(10, 2, 1000) == 8

    def test_no_extension_when_next_block_is_other_file(self):
        policy = self.make(10, 8)
        assert policy.read_size(10, 8, 1000) == 8

    def test_capped_by_max_readahead(self):
        policy = self.make(0, 100, max_ra=32)
        assert policy.read_size(0, 4, 1000) == 32

    def test_mid_file_extension(self):
        policy = self.make(10, 8)
        assert policy.read_size(13, 1, 1000) == 5  # blocks 13..17

    def test_never_below_request(self):
        policy = self.make(10, 2)
        # host asks beyond what the bitmap considers one file
        assert policy.read_size(10, 6, 1000) == 6

    def test_clamps_at_disk_end(self):
        policy = self.make(990, 100, n_blocks=1000)
        assert policy.read_size(995, 2, 1000) == 5

    def test_rejects_zero_max(self):
        with pytest.raises(ConfigError):
            FileOrientedReadAhead(SequentialityBitmap(8), 0)

    @given(
        start=st.integers(min_value=0, max_value=900),
        req=st.integers(min_value=1, max_value=40),
    )
    def test_result_bounded_by_request_and_cap(self, start, req):
        bitmap = SequentialityBitmap(1000)
        bitmap.set_many(range(1, 1000, 2))  # arbitrary pattern
        policy = FileOrientedReadAhead(bitmap, 32)
        size = policy.read_size(start, req, 1000)
        clamped_req = min(req, 1000 - start)
        assert size >= clamped_req
        assert size <= max(clamped_req, 32)
        assert start + size <= 1000
