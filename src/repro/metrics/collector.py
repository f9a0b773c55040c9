"""Aggregate a finished replay into one :class:`RunResult` record."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.cache.base import CacheStats
from repro.controller.stats import ControllerStats
from repro.faults.injector import FaultSummary
from repro.host.streams import ReplayDriver
from repro.host.system import System
from repro.obs.metrics import Histogram, nearest_rank
from repro.obs.timeline import drive_time_in_state
from repro.units import MS_PER_S


@dataclass
class RunResult:
    """Everything an experiment reports about one simulated run."""

    io_time_ms: float
    records: int
    commands: int
    blocks_requested: int
    block_size: int
    controller: ControllerStats
    cache: CacheStats
    disk_utilizations: List[float] = field(default_factory=list)
    bus_utilization: float = 0.0
    #: Record-level issue-to-completion latencies (ms), replay order.
    #: Empty when the driver ran with ``keep_raw_latencies=False``.
    record_latencies_ms: List[float] = field(default_factory=list)
    #: Fixed-bucket summary of the same latencies; always present for
    #: driver-collected results, so percentiles survive dropping the
    #: raw list on million-record traces.
    latency_histogram: Optional[Histogram] = None
    #: Per-disk media time split (overhead/seek/rotation/transfer/
    #: busy/idle, ms), indexed by disk id.
    time_in_state: List[Dict[str, float]] = field(default_factory=list)
    #: Fault-injection accounting; ``None`` when faults were disabled.
    faults: Optional[FaultSummary] = None

    @property
    def io_time_s(self) -> float:
        """Total I/O time in seconds (the paper's Figs. 7-12 unit)."""
        return self.io_time_ms / MS_PER_S

    @property
    def throughput_mb_s(self) -> float:
        """Requested-data throughput in (decimal) MB/s."""
        if self.io_time_ms <= 0:
            return 0.0
        return (self.blocks_requested * self.block_size) / (self.io_time_ms * 1000.0)

    @property
    def hdc_hit_rate(self) -> float:
        """HDC hits over all block accesses (the paper's metric)."""
        return self.controller.hdc_hit_rate

    @property
    def cache_hit_rate(self) -> float:
        """Main controller-cache block hit rate."""
        return self.cache.hit_rate

    @property
    def avg_disk_utilization(self) -> float:
        """Mean media utilization across the array."""
        if not self.disk_utilizations:
            return 0.0
        return sum(self.disk_utilizations) / len(self.disk_utilizations)

    @property
    def load_imbalance(self) -> float:
        """Max/mean media busy-time ratio (1.0 = perfectly balanced)."""
        if not self.disk_utilizations:
            return 1.0
        mean = self.avg_disk_utilization
        return max(self.disk_utilizations) / mean if mean > 0 else 1.0

    def latency_percentile(self, percentile: float) -> float:
        """Record-latency percentile in ms (0 < percentile <= 100).

        Exact when the raw latency list was kept; otherwise estimated
        from the histogram (bucket-interpolated).
        """
        if not 0.0 < percentile <= 100.0:
            raise ValueError(f"percentile must be in (0, 100], got {percentile}")
        if not self.record_latencies_ms:
            if self.latency_histogram is not None:
                return self.latency_histogram.percentile(percentile)
            return 0.0
        return nearest_rank(sorted(self.record_latencies_ms), percentile)

    @property
    def mean_latency_ms(self) -> float:
        """Mean record latency in ms (histogram-backed if raw dropped)."""
        if not self.record_latencies_ms:
            hist = self.latency_histogram
            if hist is not None and hist.count:
                return hist.sum / hist.count
            return 0.0
        return sum(self.record_latencies_ms) / len(self.record_latencies_ms)

    def speedup_vs(self, baseline: "RunResult") -> float:
        """I/O-time improvement vs a baseline (paper's "% reduction")."""
        if baseline.io_time_ms <= 0:
            return 0.0
        return 1.0 - self.io_time_ms / baseline.io_time_ms


def collect_run_result(system: System, driver: ReplayDriver, elapsed_ms: float) -> RunResult:
    """Build a :class:`RunResult` after ``driver.run()`` returned."""
    array = system.array
    ctrl = array.controller_stats()
    return RunResult(
        io_time_ms=elapsed_ms,
        records=driver.records_completed,
        commands=driver.commands_issued,
        blocks_requested=ctrl.blocks_requested,
        block_size=system.config.block_size,
        controller=ctrl,
        cache=array.cache_stats(),
        disk_utilizations=[
            c.drive.utilization(elapsed_ms) for c in array.controllers
        ],
        bus_utilization=system.bus.utilization(elapsed_ms),
        record_latencies_ms=driver.record_latencies_ms,
        latency_histogram=driver.latency_histogram,
        time_in_state=[
            drive_time_in_state(c.drive, elapsed_ms) for c in array.controllers
        ],
        faults=(
            system.faults.summary(elapsed_ms, ctrl)
            if getattr(system, "faults", None) is not None
            else None
        ),
    )
