"""Hybrid-array extension — does FOR/HDC still pay above flash?

The paper's headline techniques (Segm/FOR, each ± HDC) were evaluated
over one device: the Ultrastar 36Z15. This experiment re-runs the
comparison over three mirrored (RAID-1) arrays built from the named
device presets:

* ``hdd``    — every slot an ``ultrastar_36z15`` (the paper's array);
* ``ssd``    — every slot a ``generic_ssd`` (flat latency, 4 channels);
* ``hybrid`` — HDD primaries mirrored by SSD partners, exercising the
  device-aware replica selection (expected-service-time weighting) in
  :meth:`~repro.array.raid.MirroredArray._pick_read_replica`.

Each array replays the same §6.2-style synthetic workload closed-loop
at several concurrency levels; per technique we report throughput and
tail percentiles, plus the peak flash-channel concurrency (proof the
bounded-concurrency media server engaged) and the fraction of reads
the mirror scheduler steered to the secondary half (on the hybrid
array: to the flash replicas).

Like scale_sweep, knee detection is post-processing over the merged
series (:func:`find_knees` / :func:`knee_table`) — cells split by
array kind, and serial vs ``--jobs N`` outputs stay byte-identical.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.array.raid import MirroredArray, mirrored_striping
from repro.config import DeviceKind, SimConfig, ultrastar_36z15_config
from repro.experiments.base import SeriesResult, log, scaled_count
from repro.experiments.techniques import ALL_TECHNIQUES, technique_config
from repro.fs.bitmap_builder import build_bitmaps
from repro.hdc.planner import plan_pin_sets
from repro.hdc.profiler import BlockAccessProfiler
from repro.host.streams import ReplayDriver
from repro.host.system import System
from repro.metrics.collector import RunResult, collect_run_result
from repro.units import KB
from repro.workloads.synthetic import SyntheticSpec, SyntheticWorkload

#: Array organizations swept (the x axis / parallel cell axis).
ARRAYS = ("hdd", "ssd", "hybrid")

#: Per-slot device preset names realising each organization.
ARRAY_DEVICES: Dict[str, Tuple[str, ...]] = {
    "hdd": ("ultrastar_36z15",) * 8,
    "ssd": ("generic_ssd",) * 8,
    # MirroredArray pairs slot d with d + 4: four HDD+SSD pairs.
    "hybrid": ("ultrastar_36z15",) * 4 + ("generic_ssd",) * 4,
}

#: Technique keys swept per array, in presentation order.
TECHNIQUE_KEYS = ("segm", "for", "segm+hdc", "for+hdc")
#: Per-disk HDC region for the +hdc techniques (the paper's sweet spot).
HDC_KB = 2048
#: Closed-loop concurrency levels per technique (the load ramp).
STREAM_COUNTS = (4, 16, 64)
#: Requests replayed per run at scale 1.0.
BASE_REQUESTS = 6_000
#: A cell's knee: the first concurrency level whose p99 is this many
#: times the same technique's p99 at the lowest level.
KNEE_FACTOR = 10.0


def _pin_on_both_replicas(system: System, config: SimConfig, profile) -> None:
    """Pin the HDC plan's per-disk block sets on both mirror halves."""
    striping = mirrored_striping(
        config.array.n_disks,
        config.array.unit_blocks(config.block_size),
        config.disk_blocks,
    )
    plan = plan_pin_sets(profile.counts, striping, config.hdc_blocks)
    half = config.array.n_disks // 2
    for disk, logical_blocks in sorted(plan.per_disk.items()):
        physical = [striping.locate(lb)[1] for lb in logical_blocks]
        if not physical:
            continue
        system.controllers[disk].pin_blocks(physical, timed=False)
        system.controllers[disk + half].pin_blocks(physical, timed=False)


def _run_cell(
    config: SimConfig,
    trace,
    bitmaps,
    profile,
    n_streams: int,
) -> Tuple[RunResult, MirroredArray, System]:
    """One (array, technique, concurrency) replay over a fresh system."""
    system = System(config, bitmaps=bitmaps)
    mirror = MirroredArray(system.array, faults=system.faults)
    if config.hdc_bytes > 0:
        _pin_on_both_replicas(system, config, profile)
    driver = ReplayDriver(
        system,
        trace,
        n_streams=n_streams,
        array=mirror,
        striping=mirror.striping,
    )
    elapsed = driver.run()
    if config.hdc_bytes > 0:
        # End-of-run flush, included in I/O time (the §6.1 convention).
        system.array.flush_all_hdc()
        system.sim.run()
        elapsed = system.sim.now
    return collect_run_result(system, driver, elapsed), mirror, system


def run(
    scale: float = 1.0,
    seed: int = 1,
    arrays: Sequence[str] = ARRAYS,
    techniques: Sequence[str] = TECHNIQUE_KEYS,
    streams: Sequence[int] = STREAM_COUNTS,
    hdc_kb: int = HDC_KB,
    verbose: bool = False,
) -> SeriesResult:
    """Replay the workload over each array organization."""
    n_requests = scaled_count(BASE_REQUESTS, scale, minimum=150)
    result = SeriesResult(
        exp_id="hybrid_array",
        title="Segm/FOR (+HDC) over all-HDD, all-SSD and hybrid RAID-1 "
        f"arrays ({n_requests} requests, closed-loop)",
        x_label="array",
        x_values=list(arrays),
    )
    base = ultrastar_36z15_config(seed=seed)
    spec = SyntheticSpec(
        n_requests=n_requests,
        n_files=2_048,
        file_size_bytes=32 * KB,
        write_fraction=0.1,
        # The mirror's logical space covers half the spindles.
        total_blocks=base.disk_blocks * (base.array.n_disks // 2),
        seed=seed,
    )
    layout, trace = SyntheticWorkload(spec).build()
    profile = BlockAccessProfiler.of(trace)
    half_striping = mirrored_striping(
        base.array.n_disks,
        base.array.unit_blocks(base.block_size),
        base.disk_blocks,
    )
    # Mirror partners hold identical physical layouts, so each half
    # reuses the same per-disk sequentiality bitmaps.
    half_bitmaps = build_bitmaps(layout, half_striping)
    for_bitmaps = list(half_bitmaps) + list(half_bitmaps)

    for array_kind in arrays:
        array_base = base.with_(devices=ARRAY_DEVICES[array_kind])
        ssd_peak = 0
        mirror_reads = 0
        total_reads = 0
        for key in techniques:
            technique = ALL_TECHNIQUES[key]
            config = technique_config(
                array_base, technique, hdc_kb * KB if technique.hdc else 0
            )
            bitmaps = for_bitmaps if technique.key.startswith("for") else None
            for n_streams in streams:
                res, mirror, system = _run_cell(
                    config, trace, bitmaps, profile, n_streams
                )
                result.add_point(f"mb_s[{key}]@{n_streams}", res.throughput_mb_s)
                result.add_point(
                    f"p99_ms[{key}]@{n_streams}", res.latency_percentile(99)
                )
                ssd_peak = max(
                    ssd_peak,
                    max(
                        (
                            ctrl.drive.max_concurrent
                            for slot, ctrl in enumerate(system.controllers)
                            if config.device_spec(slot).kind is DeviceKind.SSD
                        ),
                        default=0,
                    ),
                )
                primary, secondary = mirror.read_balance()
                mirror_reads += secondary
                total_reads += primary + secondary
                log(
                    verbose,
                    f"hybrid_array {array_kind} {technique.label}@{n_streams}: "
                    f"{res.throughput_mb_s:.2f} MB/s "
                    f"p99={res.latency_percentile(99):.2f}ms",
                )
        result.add_point("ssd_peak_ch", ssd_peak)
        result.add_point(
            "mirror_read_frac",
            round(mirror_reads / total_reads, 4) if total_reads else 0.0,
        )
    return result


def find_knees(
    result: SeriesResult,
    techniques: Sequence[str] = TECHNIQUE_KEYS,
    streams: Sequence[int] = STREAM_COUNTS,
) -> Dict[Tuple[str, str], Optional[int]]:
    """Per (array, technique) knee concurrency from a merged result.

    ``None`` means the technique's p99 never reached ``KNEE_FACTOR``
    times its lowest-concurrency p99 — the knee lies beyond the
    largest level measured.
    """
    knees: Dict[Tuple[str, str], Optional[int]] = {}
    for i, array_kind in enumerate(result.x_values):
        for key in techniques:
            base = result.get(f"p99_ms[{key}]@{streams[0]}")[i]
            knees[(str(array_kind), key)] = None
            for n in streams:
                p99 = result.get(f"p99_ms[{key}]@{n}")[i]
                if base > 0 and p99 >= KNEE_FACTOR * base:
                    knees[(str(array_kind), key)] = n
                    break
    return knees


def knee_table(
    result: SeriesResult,
    techniques: Sequence[str] = TECHNIQUE_KEYS,
    streams: Sequence[int] = STREAM_COUNTS,
) -> str:
    """Render the knee/percentile table (post-merge, any job count)."""
    from repro.metrics.report import format_table

    knees = find_knees(result, techniques, streams)
    top = streams[-1]
    rows: List[List[object]] = []
    for i, array_kind in enumerate(result.x_values):
        for key in techniques:
            knee = knees[(str(array_kind), key)]
            rows.append(
                [
                    array_kind,
                    ALL_TECHNIQUES[key].label,
                    knee if knee is not None else f"> {top}",
                    result.get(f"mb_s[{key}]@{top}")[i],
                    result.get(f"p99_ms[{key}]@{streams[0]}")[i],
                    result.get(f"p99_ms[{key}]@{top}")[i],
                ]
            )
    header = (
        f"== hybrid_array: knee (first concurrency at {KNEE_FACTOR:g}x the "
        f"lowest level's p99) and percentiles =="
    )
    return header + "\n" + format_table(
        [
            "array",
            "technique",
            "knee_streams",
            f"mb_s@{top}",
            f"p99_ms@{streams[0]}",
            f"p99_ms@{top}",
        ],
        rows,
    )
