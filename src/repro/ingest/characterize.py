"""Workload characterization of ingested traces.

One streaming pass computes what a replay study needs to know before
trusting a trace: arrival process (interarrival distribution), request
mix and sizes, spatial footprint and sequentiality, and temporal
locality as block-level *reuse distance* (number of distinct blocks
touched between two accesses to the same block — the classic
stack-distance metric, computed exactly with a Fenwick tree and capped
so a billion-touch trace still characterizes in bounded time).

The report renders through :mod:`repro.metrics.report` with fixed
float precision, so CI can diff it byte-for-byte against a golden.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional

from repro.errors import WorkloadError
from repro.metrics.report import format_table
from repro.obs.metrics import nearest_rank
from repro.workloads.trace import DiskAccess

#: Default cap on block touches fed to the reuse-distance tracker.
DEFAULT_REUSE_CAP = 500_000


class _Fenwick:
    """Prefix-sum tree over touch positions (1-based)."""

    def __init__(self, size: int):
        self.size = size
        self.tree = [0] * (size + 1)

    def add(self, pos: int, delta: int) -> None:
        pos += 1
        while pos <= self.size:
            self.tree[pos] += delta
            pos += pos & -pos

    def prefix(self, pos: int) -> int:
        """Sum over positions [0, pos)."""
        total = 0
        while pos > 0:
            total += self.tree[pos]
            pos -= pos & -pos
        return total


class ReuseDistanceTracker:
    """Exact distinct-block reuse distances over a capped touch stream."""

    def __init__(self, cap: int = DEFAULT_REUSE_CAP):
        if cap < 1:
            raise WorkloadError(f"reuse cap must be >= 1, got {cap}")
        self.cap = cap
        self.touches = 0
        self.distances: List[int] = []
        self._last_pos: Dict[int, int] = {}
        self._tree = _Fenwick(cap)

    @property
    def saturated(self) -> bool:
        """True once the cap stopped further accounting."""
        return self.touches >= self.cap

    def touch(self, block: int) -> None:
        """Record one access to ``block`` (no-op past the cap)."""
        if self.saturated:
            return
        pos = self.touches
        self.touches += 1
        last = self._last_pos.get(block)
        if last is not None:
            # Distinct blocks whose most recent touch lies in (last, pos).
            self.distances.append(
                self._tree.prefix(pos) - self._tree.prefix(last + 1)
            )
            self._tree.add(last, -1)
        self._last_pos[block] = pos
        self._tree.add(pos, 1)

    @property
    def reuses(self) -> int:
        return len(self.distances)


@dataclass
class WorkloadCharacterization:
    """Everything the ``stats`` report says about one trace."""

    name: str
    n_records: int
    n_reads: int
    n_writes: int
    total_blocks: int
    distinct_blocks: int
    footprint_span_blocks: int
    mean_record_blocks: float
    max_record_blocks: int
    inter_record_sequentiality: float
    timed: bool
    duration_ms: float
    interarrival_ms: Dict[str, float] = field(default_factory=dict)
    reuse_fraction: float = 0.0
    reuse_distance: Dict[str, float] = field(default_factory=dict)
    reuse_touches: int = 0
    reuse_saturated: bool = False

    @property
    def write_fraction(self) -> float:
        return self.n_writes / self.n_records if self.n_records else 0.0

    def describe(self) -> str:
        """Multi-line, golden-diffable report."""
        lines = [
            f"== workload characterization: {self.name} ==",
            f"records            : {self.n_records} "
            f"({100 * self.write_fraction:.1f}% writes)",
            f"record size        : mean {self.mean_record_blocks:.2f} blocks, "
            f"max {self.max_record_blocks}",
            f"footprint          : {self.distinct_blocks} distinct blocks "
            f"over a {self.footprint_span_blocks}-block span "
            f"({self.total_blocks} touched in total)",
            f"sequentiality      : {100 * self.inter_record_sequentiality:.1f}% "
            f"of records continue the previous one",
        ]
        if self.timed:
            lines.append(f"duration           : {self.duration_ms:.3f} ms")
            rows = [
                [
                    "interarrival (ms)",
                    self.interarrival_ms.get("mean", 0.0),
                    self.interarrival_ms.get("p50", 0.0),
                    self.interarrival_ms.get("p95", 0.0),
                    self.interarrival_ms.get("p99", 0.0),
                ]
            ]
        else:
            lines.append("duration           : (untimed trace)")
            rows = []
        suffix = " (capped)" if self.reuse_saturated else ""
        lines.append(
            f"block reuses       : {100 * self.reuse_fraction:.1f}% of "
            f"{self.reuse_touches} tracked touches{suffix}"
        )
        rows.append(
            [
                "reuse dist (blocks)",
                self.reuse_distance.get("mean", 0.0),
                self.reuse_distance.get("p50", 0.0),
                self.reuse_distance.get("p95", 0.0),
                self.reuse_distance.get("p99", 0.0),
            ]
        )
        lines.append(format_table(["metric", "mean", "p50", "p95", "p99"], rows))
        return "\n".join(lines)


def characterize(
    records: Iterable[DiskAccess],
    name: str = "trace",
    reuse_cap: int = DEFAULT_REUSE_CAP,
) -> WorkloadCharacterization:
    """One-pass characterization of a record stream."""
    n_records = 0
    n_writes = 0
    total_blocks = 0
    max_record = 0
    sequential = 0
    prev_end: Optional[int] = None
    lo: Optional[int] = None
    hi: Optional[int] = None
    distinct: set = set()
    timestamps_seen = False
    first_ts: Optional[float] = None
    last_ts = 0.0
    prev_ts: Optional[float] = None
    interarrivals: List[float] = []
    reuse = ReuseDistanceTracker(reuse_cap)

    for record in records:
        n_records += 1
        if record.is_write:
            n_writes += 1
        size = record.n_blocks
        total_blocks += size
        if size > max_record:
            max_record = size
        first = record.runs[0][0]
        if prev_end is not None and first == prev_end:
            sequential += 1
        prev_end = record.runs[-1][0] + record.runs[-1][1]
        for start, length in record.runs:
            end = start + length
            lo = start if lo is None or start < lo else lo
            hi = end if hi is None or end > hi else hi
            for block in range(start, end):
                distinct.add(block)
                reuse.touch(block)
        ts = getattr(record, "timestamp_ms", None)
        if ts is not None:
            timestamps_seen = True
            if first_ts is None:
                first_ts = ts
            last_ts = ts
            if prev_ts is not None:
                interarrivals.append(max(0.0, ts - prev_ts))
            prev_ts = ts

    if n_records == 0:
        raise WorkloadError("cannot characterize an empty trace")

    interarrivals.sort()
    distances = sorted(reuse.distances)
    return WorkloadCharacterization(
        name=name,
        n_records=n_records,
        n_reads=n_records - n_writes,
        n_writes=n_writes,
        total_blocks=total_blocks,
        distinct_blocks=len(distinct),
        footprint_span_blocks=(hi - lo) if hi is not None and lo is not None else 0,
        mean_record_blocks=total_blocks / n_records,
        max_record_blocks=max_record,
        inter_record_sequentiality=sequential / max(1, n_records - 1),
        timed=timestamps_seen,
        duration_ms=(last_ts - first_ts) if first_ts is not None else 0.0,
        interarrival_ms=(
            {
                "mean": sum(interarrivals) / len(interarrivals),
                "p50": nearest_rank(interarrivals, 50),
                "p95": nearest_rank(interarrivals, 95),
                "p99": nearest_rank(interarrivals, 99),
            }
            if interarrivals
            else {}
        ),
        reuse_fraction=reuse.reuses / reuse.touches if reuse.touches else 0.0,
        reuse_distance=(
            {
                "mean": sum(distances) / len(distances),
                "p50": nearest_rank([float(d) for d in distances], 50),
                "p95": nearest_rank([float(d) for d in distances], 95),
                "p99": nearest_rank([float(d) for d in distances], 99),
            }
            if distances
            else {}
        ),
        reuse_touches=reuse.touches,
        reuse_saturated=reuse.saturated,
    )
