"""Design-choice ablations: each checks the claim behind one choice.

Most ablations replay the same §6.2-style synthetic workload (16-KB
files, 128 streams, Zipf 0.4, 1,500 requests) through one shared
:class:`TechniqueRunner`, so their numbers are comparable across
dimensions. The HDC, cooperative and mirroring ablations build the
workload their claim needs.
"""

import dataclasses

import pytest

from repro import (
    FOR,
    NORA,
    SEGM,
    SEGM_HDC,
    SyntheticSpec,
    SyntheticWorkload,
    TechniqueRunner,
    ultrastar_36z15_config,
)
from repro.array.raid import MirroredArray, mirrored_striping
from repro.config import BlockPolicy, SchedulerKind, SegmentPolicy
from repro.experiments.techniques import technique_config
from repro.fs.bitmap_builder import build_bitmaps
from repro.hdc.cooperative import CooperativeHdc, plan_cooperative_pins
from repro.hdc.planner import plan_pin_sets
from repro.hdc.profiler import BlockAccessProfiler
from repro.hdc.victim import VictimCacheManager
from repro.host.streams import ReplayDriver
from repro.host.system import System
from repro.units import KB, MB


@pytest.fixture(scope="module")
def runner() -> TechniqueRunner:
    spec = SyntheticSpec(n_requests=1500, file_size_bytes=16 * KB)
    layout, trace = SyntheticWorkload(spec).build()
    return TechniqueRunner(layout, trace)


def _with_cache(**changes):
    config = ultrastar_36z15_config()
    return config.with_(cache=dataclasses.replace(config.cache, **changes))


def _two_period_runner(spec: SyntheticSpec) -> TechniqueRunner:
    """Replay period 1, profiling HDC pins on period 0's history."""
    layout, trace = SyntheticWorkload(spec).build()
    _, history = SyntheticWorkload(dataclasses.replace(spec, period=0)).build()
    return TechniqueRunner(layout, trace, profile_trace=history)


def test_mru_block_replacement_not_worse_than_lru(runner):
    # §4: controller caches lack temporal locality, so the most
    # recently consumed block is the best victim
    times = {
        p: runner.run(_with_cache(block_policy=p), FOR).io_time_ms
        for p in BlockPolicy
    }
    assert times[BlockPolicy.MRU] <= times[BlockPolicy.LRU] * 1.05


def test_segment_victim_policies_within_one_and_a_half(runner):
    # §2.1 treats the victim-segment policy as a second-order knob
    times = [
        runner.run(_with_cache(segment_policy=p), SEGM).io_time_ms
        for p in SegmentPolicy
    ]
    assert max(times) < 1.5 * min(times)


def test_position_aware_schedulers_beat_fcfs(runner):
    times = {
        kind: runner.run(ultrastar_36z15_config(scheduler=kind), SEGM).io_time_ms
        for kind in (SchedulerKind.FCFS, SchedulerKind.LOOK, SchedulerKind.SSTF)
    }
    assert times[SchedulerKind.LOOK] < times[SchedulerKind.FCFS]
    assert times[SchedulerKind.SSTF] < times[SchedulerKind.FCFS]


def test_nora_cannot_beat_for_even_at_perfect_coalescing(runner):
    # §6.2: "even for an unrealistic coalescing probability of 100%"
    config = ultrastar_36z15_config()
    nora_full = runner.run(config, NORA, coalesce_prob=1.0).io_time_ms
    for_full = runner.run(config, FOR, coalesce_prob=1.0).io_time_ms
    nora_half = runner.run(config, NORA, coalesce_prob=0.5).io_time_ms
    assert for_full <= nora_full * 1.05
    # and No-RA degrades sharply as coalescing weakens
    assert nora_half > nora_full


def test_smaller_segments_beat_big_blind_readahead(runner):
    # Table 1's variants: 128 KB x 27 against 512 KB x 6 on 16-KB files
    small = _with_cache(segment_size_bytes=128 * KB, n_segments=27)
    big = _with_cache(segment_size_bytes=512 * KB, n_segments=6)
    assert runner.run(small, SEGM).io_time_ms < runner.run(big, SEGM).io_time_ms


def test_periodic_hdc_flush_costs_little():
    # §6.1: the 30-s Unix sync's effect is "negligible (< 1%)"
    spec = SyntheticSpec(
        n_requests=1500, file_size_bytes=16 * KB, write_fraction=0.2, period=1
    )
    two_period = _two_period_runner(spec)
    config = ultrastar_36z15_config()
    end_only = two_period.run(config, SEGM_HDC, hdc_bytes=2 * MB).io_time_ms
    periodic = two_period.run(
        config, SEGM_HDC, hdc_bytes=2 * MB, hdc_flush_interval_ms=30_000.0
    ).io_time_ms
    assert abs(periodic - end_only) / end_only < 0.05


def test_popularity_pinning_beats_a_victim_cache():
    # §5's alternative use of the HDC region: an array-wide victim cache
    spec = SyntheticSpec(
        n_requests=1500, file_size_bytes=16 * KB, zipf_alpha=0.8, period=1
    )
    two_period = _two_period_runner(spec)
    config = ultrastar_36z15_config()
    pinned = two_period.run(config, SEGM_HDC, hdc_bytes=2 * MB).io_time_ms

    victim_config = technique_config(config, SEGM_HDC, hdc_bytes=2 * MB)
    system = System(victim_config)
    manager = VictimCacheManager(system.array, victim_config.hdc_blocks)
    victim = ReplayDriver(
        system, two_period.trace, on_record_complete=manager.on_record_complete
    ).run()
    assert manager.pins > 0
    assert pinned < victim * 1.15


def test_cooperative_hdc_covers_at_least_home_only():
    # a hot set skewed onto few disks is the case cooperation exists for
    spec = SyntheticSpec(n_requests=800, file_size_bytes=16 * KB, zipf_alpha=1.0)
    _layout, trace = SyntheticWorkload(spec).build()
    config = ultrastar_36z15_config(hdc_bytes=256 * KB)
    counts = BlockAccessProfiler.of(trace).counts
    striping = System(config).striping
    home = plan_pin_sets(counts, striping, config.hdc_blocks)
    coop = CooperativeHdc(
        System(config).array,
        plan_cooperative_pins(counts, striping, config.hdc_blocks),
    )
    home_covered = sum(counts.get(lb, 0) for lb in home.logical_blocks)
    coop_covered = sum(counts.get(lb, 0) for lb in coop.directory)
    assert coop_covered >= home_covered


def _replay_mirrored(layout, trace, technique):
    """Replay ``trace`` on a 4+4 RAID-1 array; return (time, array)."""
    config = technique_config(ultrastar_36z15_config(), technique)
    bitmaps = None
    if technique is FOR:
        half = mirrored_striping(
            config.array.n_disks,
            config.array.unit_blocks(config.block_size),
            config.disk_blocks,
        )
        half_maps = build_bitmaps(layout, half)
        bitmaps = half_maps + half_maps  # mirror pairs share a layout
    system = System(config, bitmaps=bitmaps)
    raid = MirroredArray(system.array)
    submitted = done = 0

    def _run_done():
        nonlocal done
        done += 1

    for record in trace:
        for start, length in record.runs:
            submitted += 1
            raid.submit_logical(
                start, length, is_write=record.is_write, on_complete=_run_done
            )
    system.sim.run()
    assert done == submitted
    return system.sim.now, raid


def test_for_gain_survives_mirroring_and_reads_use_both_replicas():
    spec = SyntheticSpec(n_requests=800, file_size_bytes=16 * KB)
    layout, trace = SyntheticWorkload(spec).build()
    segm_time, _ = _replay_mirrored(layout, trace, SEGM)
    for_time, raid = _replay_mirrored(layout, trace, FOR)
    assert for_time < segm_time
    assert raid.reads_primary > 0
    assert raid.reads_mirror > 0


def test_anticipation_waits_and_costs_more_under_concurrency(runner):
    # anticipatory dispatch (ref. [15]) trades idle media for seeks:
    # cheap with few streams, relatively costlier with many
    plain = ultrastar_36z15_config()
    waiting = ultrastar_36z15_config(anticipatory_wait_ms=0.3)
    penalty = {}
    for streams in (4, 128):
        base = runner.run(plain, SEGM, n_streams=streams, coalesce_prob=0.6)
        ant = runner.run(waiting, SEGM, n_streams=streams, coalesce_prob=0.6)
        assert ant.controller.anticipation_waits > 0
        penalty[streams] = ant.io_time_ms / base.io_time_ms
    assert penalty[4] <= penalty[128] + 0.02
    assert penalty[4] < 1.10
