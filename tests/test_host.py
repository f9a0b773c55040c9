"""System assembly and closed-loop trace replay."""

import pytest

from repro.config import (
    CacheOrganization,
    ReadAheadKind,
)
from repro.errors import ConfigError, WorkloadError
from repro.fs.bitmap_builder import build_bitmaps
from repro.fs.layout import FileSystemLayout
from repro.host.streams import ReplayDriver
from repro.host.system import System
from repro.units import KB
from repro.workloads.trace import DiskAccess, Trace, TraceMeta


def make_trace(records, n_streams=4, coalesce=1.0):
    return Trace(
        records, TraceMeta(n_streams=n_streams, coalesce_prob=coalesce)
    )


class TestSystem:
    def test_segment_organization_by_default(self, small_config):
        from repro.cache.segment import SegmentCache

        system = System(small_config)
        assert isinstance(system.controllers[0].cache, SegmentCache)

    def test_block_organization(self, small_config):
        import dataclasses

        from repro.cache.block import BlockCache

        config = small_config.with_(
            cache=dataclasses.replace(
                small_config.cache, organization=CacheOrganization.BLOCK
            )
        )
        system = System(config)
        cache = system.controllers[0].cache
        assert isinstance(cache, BlockCache)
        assert cache.capacity_blocks == config.effective_cache_blocks

    def test_for_requires_bitmaps(self, small_config):
        config = small_config.with_(readahead=ReadAheadKind.FILE_ORIENTED)
        with pytest.raises(ConfigError):
            System(config)

    def test_for_bitmap_count_checked(self, small_config):
        from repro.readahead.bitmap import SequentialityBitmap

        config = small_config.with_(readahead=ReadAheadKind.FILE_ORIENTED)
        with pytest.raises(ConfigError):
            System(config, bitmaps=[SequentialityBitmap(8)])

    def test_hdc_region_sized_from_config(self, small_config):
        config = small_config.with_(hdc_bytes=32 * KB)
        system = System(config)
        assert system.controllers[0].pinned.capacity_blocks == 8

    def test_identical_seeds_identical_rotation_streams(self, small_config):
        a = System(small_config)
        b = System(small_config)
        ra = a.controllers[0].drive.service_model.rotation_model.latency()
        rb = b.controllers[0].drive.service_model.rotation_model.latency()
        assert ra == rb


class TestReplayDriver:
    def test_empty_trace_rejected(self, small_config):
        system = System(small_config)
        with pytest.raises(WorkloadError):
            ReplayDriver(system, make_trace([]))

    def test_zero_streams_rejected(self, small_config):
        system = System(small_config)
        trace = make_trace([DiskAccess([(0, 1)])])
        with pytest.raises(WorkloadError):
            ReplayDriver(system, trace, n_streams=0)

    def test_replays_every_record(self, small_config):
        system = System(small_config)
        trace = make_trace([DiskAccess([(i * 8, 2)]) for i in range(20)])
        driver = ReplayDriver(system, trace)
        elapsed = driver.run()
        assert driver.records_completed == 20
        assert elapsed > 0
        assert driver.finish_time == system.sim.now

    def test_replays_every_sequential_record(self, small_config):
        system = System(small_config)
        records = [DiskAccess([((i * 8) % 12_000, 4)]) for i in range(400)]
        driver = ReplayDriver(system, make_trace(records, n_streams=8))
        driver.run()
        assert driver.records_completed == 400

    def test_second_run_raises_instead_of_hanging(self, small_config):
        """Regression: a completed driver's second ``run()`` starts no
        stream (the source is exhausted), so nothing ever calls
        ``sim.stop()`` — with periodic background events (HDC's 30-s
        flush timer) the engine then spun forever. Fail fast instead."""
        system = System(small_config)
        trace = make_trace([DiskAccess([(i * 8, 2)]) for i in range(4)])
        driver = ReplayDriver(system, trace)
        driver.run()
        with pytest.raises(WorkloadError, match="already ran"):
            driver.run()

    def test_more_streams_than_records_is_fine(self, small_config):
        system = System(small_config)
        trace = make_trace([DiskAccess([(0, 1)])], n_streams=64)
        assert ReplayDriver(system, trace).run() > 0

    def test_writes_replayed(self, small_config):
        system = System(small_config)
        trace = make_trace([DiskAccess([(0, 4)], is_write=True)])
        ReplayDriver(system, trace).run()
        stats = system.array.controller_stats()
        assert stats.write_commands >= 1
        assert stats.media_blocks_written == 4

    def test_concurrent_identical_reads_merge(self, small_config):
        system = System(small_config)
        # many streams ask for the same record back to back
        trace = make_trace([DiskAccess([(0, 2)])] * 8, n_streams=8)
        driver = ReplayDriver(system, trace)
        driver.run()
        assert driver.records_completed == 8
        assert driver.reads_merged > 0
        # only one media read happened for the whole burst
        assert system.array.controller_stats().media_reads == 1

    def test_writes_never_merge(self, small_config):
        system = System(small_config)
        trace = make_trace([DiskAccess([(0, 1)], is_write=True)] * 4, n_streams=4)
        driver = ReplayDriver(system, trace)
        driver.run()
        assert driver.reads_merged == 0
        assert system.array.controller_stats().media_blocks_written == 4

    def test_coalescer_splits_commands(self, small_config):
        system = System(small_config)
        records = [DiskAccess([(i * 16, 4)]) for i in range(40)]
        trace = make_trace(records, coalesce=0.0)
        driver = ReplayDriver(system, trace)
        driver.run()
        assert driver.commands_issued == 160  # every block its own command

    def test_fully_coalesced_one_command_per_disk_run(self, small_config):
        system = System(small_config)
        trace = make_trace([DiskAccess([(0, 4)])], coalesce=1.0)
        driver = ReplayDriver(system, trace)
        driver.run()
        assert driver.commands_issued == 1

    def test_on_record_complete_hook(self, small_config):
        system = System(small_config)
        seen = []
        trace = make_trace([DiskAccess([(i * 4, 1)]) for i in range(5)])
        ReplayDriver(
            system, trace, on_record_complete=lambda r: seen.append(r)
        ).run()
        assert len(seen) == 5

    def test_stream_count_from_meta(self, small_config):
        system = System(small_config)
        trace = make_trace([DiskAccess([(0, 1)])], n_streams=3)
        driver = ReplayDriver(system, trace)
        assert driver.n_streams == 3


class TestReplayWithFOR:
    def test_for_reads_fewer_blocks_than_blind(self, small_config):
        layout = FileSystemLayout.build([2] * 200, 4000)
        records = [DiskAccess(layout.file_runs(i)) for i in range(200)]
        trace = make_trace(records, n_streams=8)

        def run(config, bitmaps=None):
            system = System(config, bitmaps=bitmaps)
            ReplayDriver(system, trace).run()
            return system.array.controller_stats()

        import dataclasses

        blind_stats = run(small_config)
        for_config = small_config.with_(
            readahead=ReadAheadKind.FILE_ORIENTED,
            cache=dataclasses.replace(
                small_config.cache, organization=CacheOrganization.BLOCK
            ),
        )
        striping = System(small_config).striping
        bitmaps = build_bitmaps(layout, striping)
        for_stats = run(for_config, bitmaps)
        assert for_stats.media_blocks_read < blind_stats.media_blocks_read / 2
