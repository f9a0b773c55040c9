"""The three simulator workloads: build, replay, measure and check.

Each workload is one :class:`SimSpec`. :func:`set_up` builds its input
from the seed (trace synthesis or population layout) and calls the
runner's memoised artifacts explicitly, so set-up work shows in
``setup_s``; :func:`replay` runs one whole replay; :func:`measure`
repeats replays over the timed window and reports the end-to-end
metrics; :func:`layer_counters` derives the simulated-time per-layer
counters from one :class:`~repro.metrics.collector.RunResult`.
"""

from __future__ import annotations

import gc
import time
from dataclasses import dataclass
from statistics import median
from typing import Dict, List, Optional, Tuple

from repro.config import ArrayParams, ReadAheadKind, SimConfig, ultrastar_36z15_config
from repro.experiments import fig07, fig11
from repro.experiments.runner import TechniqueRunner
from repro.experiments.techniques import FOR_HDC, SEGM, Technique, technique_config
from repro.loadgen import build_layout, generate_records, preset_population
from repro.metrics.collector import RunResult
from repro.units import KB, MB
from repro.workloads.fileserver import FileServerSpec, FileServerWorkload
from repro.workloads.trace import Trace
from repro.workloads.webserver import WebServerSpec, WebServerWorkload

import checks
from common import emit, note, peak_rss_mb, reference_s, report_errors, scaled

#: Striping unit of every simulator workload (fig07's and fig11's 16 KB cell).
UNIT_KB = 16
#: Records per timed chunk of a replay (see :func:`chunk_rate`).
CHUNK_RECORDS = 2000
#: Records replayed once, untimed, before the window (interpreter
#: specialisation, lazily built model tables).
WARMUP_RECORDS = 3000
#: Population size and length of ``population_open``.
POP_CLIENTS = 5_000
POP_REQUESTS = 30_000
#: Open-loop time warp of ``population_open``: arrivals at the
#: population's own pace, so disk queues stay shallow. The closed-loop
#: workloads ignore it.
POP_ACCEL = 1.0


@dataclass(frozen=True)
class SimSpec:
    """One simulator workload: what is replayed, and how."""

    name: str
    technique: Technique
    hdc_bytes: int
    #: HDC pin-set fraction (the figure's workload scale, see servers.py).
    pin_fraction: float
    open_loop: bool
    #: Times ``set_up`` runs before the window, and again after it. It
    #: also runs between every two replays of the window; ``setup_s``
    #: is the median of all of them.
    setup_reps: int


SPECS: Dict[str, SimSpec] = {
    "web_for_hdc": SimSpec(
        "web_for_hdc", FOR_HDC, 2 * MB, fig07.DEFAULT_SCALE, False, 2
    ),
    "fileserver_writes": SimSpec(
        "fileserver_writes", SEGM, 0, fig11.DEFAULT_SCALE, False, 2
    ),
    "population_open": SimSpec(
        "population_open", SEGM, 0, 1.0, True, 6
    ),
}


def base_config(seed: int) -> SimConfig:
    """The 8-disk Ultrastar array at a 16 KB striping unit."""
    return ultrastar_36z15_config(
        array=ArrayParams(n_disks=8, striping_unit_bytes=UNIT_KB * KB),
        seed=seed,
    )


@dataclass
class Prepared:
    """A workload ready to replay, plus its set-up layer timings."""

    spec: SimSpec
    seed: int
    config: SimConfig
    runner: TechniqueRunner
    #: Records one replay issues.
    n_records: int
    #: Seconds per set-up layer: workloads.build_s, hdc.profile_s,
    #: fs.bitmaps_s, hdc.plan_s (0.0 where the workload does no such work).
    layers: Dict[str, float]


def _population(seed: int, n_records: int = POP_REQUESTS):
    spec = preset_population("web3", n_clients=POP_CLIENTS, n_requests=n_records)
    return spec, build_layout(spec, seed)


def set_up(spec: SimSpec, seed: int) -> Prepared:
    """Build the workload's input and the runner's artifacts."""
    t0 = time.perf_counter()
    if spec.name == "population_open":
        pop_spec, layout = _population(seed)
        runner = TechniqueRunner(
            layout,
            None,
            trace_factory=lambda: generate_records(pop_spec, seed, layout=layout),
        )
        n_records = pop_spec.n_requests
    else:
        if spec.name == "web_for_hdc":
            workload = WebServerWorkload(
                WebServerSpec(scale=fig07.DEFAULT_SCALE, seed=seed)
            )
        else:
            workload = FileServerWorkload(
                FileServerSpec(scale=fig11.DEFAULT_SCALE, seed=seed)
            )
        layout, trace = workload.build()
        runner = TechniqueRunner(layout, trace)
        n_records = len(trace)
    t1 = time.perf_counter()
    layers = {
        "workloads.build_s": t1 - t0,
        "hdc.profile_s": 0.0,
        "fs.bitmaps_s": 0.0,
        "hdc.plan_s": 0.0,
    }
    config = base_config(seed)
    tech_config = technique_config(config, spec.technique, spec.hdc_bytes)
    if tech_config.hdc_bytes > 0:
        runner.profile()
        t2 = time.perf_counter()
        layers["hdc.profile_s"] = t2 - t1
        t1 = t2
    if tech_config.readahead is ReadAheadKind.FILE_ORIENTED:
        runner.bitmaps_for(tech_config)
        t2 = time.perf_counter()
        layers["fs.bitmaps_s"] = t2 - t1
        t1 = t2
    if tech_config.hdc_bytes > 0:
        # The same pin-set size TechniqueRunner.run derives, so the run
        # finds this plan memoised.
        runner.plan_for(
            tech_config, max(1, int(tech_config.hdc_blocks * spec.pin_fraction))
        )
        layers["hdc.plan_s"] = time.perf_counter() - t1
    return Prepared(spec, seed, config, runner, n_records, layers)


class SetUpClock:
    """Times repeated set-ups of one workload."""

    def __init__(self, spec: SimSpec, seed: int) -> None:
        self.spec = spec
        self.seed = seed
        #: Host seconds of every set-up, in the order they ran, as
        #: measured and rescaled to the reference speed.
        self.raw: List[float] = []
        self.totals: List[float] = []
        self._layers: Dict[str, List[float]] = {}

    def set_up(self) -> Prepared:
        """One timed :func:`set_up`.

        Garbage is collected before the clock starts. The caller drops
        its previous workload first, so two are never held at once.
        """
        gc.collect()
        before = reference_s()
        t0 = time.perf_counter()
        prepared = set_up(self.spec, self.seed)
        seconds = time.perf_counter() - t0
        self.raw.append(seconds)
        self.totals.append(scaled(seconds, before, reference_s()))
        for name, seconds in prepared.layers.items():
            self._layers.setdefault(name, []).append(seconds)
        return prepared

    def repeat(self) -> Prepared:
        """``spec.setup_reps`` timed set-ups; returns the last one."""
        prepared = None
        for _ in range(self.spec.setup_reps):
            prepared = None
            prepared = self.set_up()
        assert prepared is not None
        return prepared

    @property
    def layers(self) -> Dict[str, float]:
        """The median of each set-up layer."""
        return {k: median(v) for k, v in self._layers.items()}


def replay(prepared: Prepared, on_record_complete=None) -> RunResult:
    """One whole replay of the prepared workload."""
    spec = prepared.spec
    return prepared.runner.run(
        prepared.config,
        spec.technique,
        hdc_bytes=spec.hdc_bytes,
        hdc_pin_fraction=spec.pin_fraction,
        keep_raw_latencies=False,
        open_loop=spec.open_loop,
        accel=POP_ACCEL,
        on_record_complete=on_record_complete,
    )


def warm_up(prepared: Prepared) -> None:
    """Replay a short prefix of the workload, untimed."""
    spec = prepared.spec
    if spec.name == "population_open":
        pop_spec, layout = _population(prepared.seed, WARMUP_RECORDS)
        runner = TechniqueRunner(
            layout,
            None,
            trace_factory=lambda: generate_records(pop_spec, prepared.seed, layout=layout),
        )
    else:
        trace = prepared.runner.trace
        runner = TechniqueRunner(
            prepared.runner.layout, Trace(trace.records[:WARMUP_RECORDS], trace.meta)
        )
    warm = Prepared(spec, prepared.seed, prepared.config, runner, WARMUP_RECORDS, {})
    replay(warm)


class ChunkClock:
    """``on_record_complete`` hook timing every ``CHUNK_RECORDS`` records.

    The host's speed is gauged before the first chunk and after every
    chunk, outside the chunks' times.
    """

    def __init__(self) -> None:
        self.completed = 0
        #: :func:`reference_s` before chunk ``i`` is ``refs[i]``.
        self.refs = [reference_s()]
        #: Host seconds of each whole chunk, in trace order.
        self.seconds: List[float] = []
        self.last = time.perf_counter()

    def __call__(self, _record) -> None:
        self.completed += 1
        if self.completed % CHUNK_RECORDS == 0:
            self.seconds.append(time.perf_counter() - self.last)
            self.refs.append(reference_s())
            self.last = time.perf_counter()

    @property
    def scaled_seconds(self) -> List[float]:
        """Each chunk's seconds rescaled to the reference speed."""
        refs = self.refs
        return [scaled(t, refs[i], refs[i + 1]) for i, t in enumerate(self.seconds)]


def chunk_rate(per_replay: List[List[float]]) -> float:
    """Records per second from the chunk times of every replay.

    Every replay of the window replays the same records, so chunk ``i``
    is the same work in each; its time is the median over the replays,
    and the rate is the records of all chunks over the sum of those
    times.
    """
    n = min(len(r) for r in per_replay)
    times = [median(r[i] for r in per_replay) for i in range(n)]
    return n * CHUNK_RECORDS / sum(times)


def outcome(result: RunResult) -> Dict[str, float]:
    """The deterministic outcome of one replay, compared across runs."""
    ctrl = result.controller
    return {
        "records": result.records,
        "commands": result.commands,
        "blocks_requested": result.blocks_requested,
        "cache_block_hits": result.cache.block_hits,
        "cache_block_misses": result.cache.block_misses,
        "media_ops": ctrl.media_reads + ctrl.media_writes,
        "sim_io_ms": result.io_time_ms,
    }


def outcome_errors(prepared: Prepared, result: RunResult) -> List[str]:
    """Invariants every replay must meet, on any seed."""
    errors = []
    if result.records != prepared.n_records:
        errors.append(
            f"{prepared.spec.name}: {result.records} records completed of "
            f"{prepared.n_records} issued"
        )
    ctrl = result.controller
    if ctrl.failed_commands or ctrl.media_errors:
        errors.append(
            f"{prepared.spec.name}: {ctrl.failed_commands} failed commands, "
            f"{ctrl.media_errors} media errors"
        )
    if result.commands != ctrl.commands:
        errors.append(
            f"{prepared.spec.name}: host issued {result.commands} commands, "
            f"controllers saw {ctrl.commands}"
        )
    cache = result.cache
    if cache.block_hits + cache.block_misses != cache.lookups:
        errors.append(f"{prepared.spec.name}: cache hits + misses != lookups")
    if not result.io_time_ms > 0:
        errors.append(f"{prepared.spec.name}: no simulated I/O time")
    return errors


@dataclass
class Measurement:
    """What the timed window of one run produced."""

    first: RunResult
    replays: int
    #: Records issued and completed over every replay of the window.
    issued: int
    completed: int
    #: Host seconds per chunk, one list per replay, as measured and
    #: rescaled to the reference speed.
    chunk_seconds: List[List[float]]
    scaled_chunk_seconds: List[List[float]]
    #: Host seconds spent replaying.
    window_s: float
    errors: List[str]


def measure(setups: SetUpClock, seconds: float) -> Measurement:
    """Set up, warm up, then replay for ``seconds``; every replay must agree.

    The window is the host time from the first replay's start to the
    last one's end. Between every two replays the workload is set up
    again and the fresh one replayed next, so the set-up times sample
    the whole run, not just its two ends; the host's speed moves in
    phases of seconds. ``spec.setup_reps`` set-ups run before the
    window and as many after it.
    """
    prepared: Optional[Prepared] = setups.repeat()
    warm_up(prepared)
    first: Optional[RunResult] = None
    chunks: List[List[float]] = []
    scaled_chunks: List[List[float]] = []
    errors: List[str] = []
    replays = completed = 0
    spent = last = 0.0
    window0 = time.perf_counter()
    while not replays or time.perf_counter() - window0 + 0.5 * last <= seconds:
        if replays:
            prepared = None
            prepared = setups.set_up()
        gc.collect()
        clock = ChunkClock()
        t0 = time.perf_counter()
        result = replay(prepared, clock)
        last = time.perf_counter() - t0
        spent += last
        replays += 1
        completed += result.records
        chunks.append(clock.seconds)
        scaled_chunks.append(clock.scaled_seconds)
        errors.extend(outcome_errors(prepared, result))
        if first is None:
            first = result
        elif outcome(result) != outcome(first):
            errors.append(
                f"{prepared.spec.name}: replay {replays} differs from replay 1 "
                f"({outcome(result)} vs {outcome(first)})"
            )
    n_records = prepared.n_records
    prepared = None
    setups.repeat()
    assert first is not None
    return Measurement(
        first,
        replays,
        replays * n_records,
        completed,
        chunks,
        scaled_chunks,
        spent,
        errors,
    )


def layer_counters(result: RunResult) -> Dict[str, Tuple[float, str]]:
    """Simulated-time per-layer counters (deterministic per seed)."""
    ctrl = result.controller
    cache = result.cache
    media_ops = ctrl.media_reads + ctrl.media_writes
    records = max(1, result.records)

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    return {
        "cache.hit_rate": (cache.hit_rate, "ratio"),
        "cache.pollution_rate": (cache.pollution_rate, "ratio"),
        "readahead.extra_per_media_block": (
            ratio(ctrl.readahead_blocks, ctrl.media_blocks_read), "ratio"),
        "hdc.hit_rate": (result.hdc_hit_rate, "ratio"),
        "hdc.writes_absorbed": (float(ctrl.hdc_write_absorbed), "count"),
        "controller.full_hit_frac": (
            ratio(ctrl.full_cache_hits + ctrl.dispatch_cache_hits, ctrl.read_commands),
            "ratio"),
        "array.commands_per_record": (result.commands / records, "count"),
        "controller.media_ops_per_record": (media_ops / records, "count"),
        "devices.seek_ms_per_op": (ratio(ctrl.seek_ms, media_ops), "ms"),
        "devices.rotation_ms_per_op": (ratio(ctrl.rotation_ms, media_ops), "ms"),
        "devices.transfer_ms_per_op": (ratio(ctrl.transfer_ms, media_ops), "ms"),
        "disk.utilization_mean": (result.avg_disk_utilization, "ratio"),
        "array.load_imbalance": (result.load_imbalance, "x"),
        "bus.utilization": (result.bus_utilization, "ratio"),
    }


def main(name: str, seed: int, seconds: float, traced: bool) -> int:
    """One measuring run (``traced=False``) or traced run of a workload."""
    setups = SetUpClock(SPECS[name], seed)
    if traced:
        import layers

        prepared = setups.repeat()
        warm_up(prepared)
        return layers.sim_traced_run(prepared, setups.layers)

    m = measure(setups, seconds)
    totals = setups.totals
    errors = list(m.errors)
    if seed == checks.DEFAULT_SEED:
        errors.extend(checks.committed_errors(name, m.first))
    hist = m.first.latency_histogram
    note(
        f"{name}: seed {seed}, {m.issued // m.replays} records, simulated I/O time "
        f"{m.first.io_time_s:.3f} s; set-up "
        + " ".join(f"{t:.3f}" for t in setups.raw)
        + " s as measured, "
        + " ".join(f"{t:.3f}" for t in totals)
        + " s rescaled"
    )
    note(
        f"{name}: {m.replays} replays in {m.window_s:.1f} s "
        f"({m.completed / m.window_s:.0f} records/s over the whole window, "
        f"{chunk_rate(m.chunk_seconds):.0f} from the chunks as measured), "
        f"{len(m.chunk_seconds[0])} chunks of {CHUNK_RECORDS} records each; "
        f"sim latency percentiles over {hist.count} records"
    )
    report_errors(errors)
    metrics = {
        "ops_per_s": (chunk_rate(m.scaled_chunk_seconds), "ops/s"),
        "setup_s": (median(totals), "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
        "ok_frac": (m.completed / m.issued, "ratio"),
        # A client of the simulated server sees simulated time.
        "latency_p50_ms": (hist.p50, "ms"),
        "latency_p99_ms": (hist.p99, "ms"),
    }
    for metric, (value, unit) in metrics.items():
        note(f"  {metric:<14} {value:12.4f} {unit}")
    emit(not errors, m.issued, m.issued - m.completed, metrics)
    return 0 if not errors else 1
