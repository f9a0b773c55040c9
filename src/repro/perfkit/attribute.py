"""Cross-run latency attribution: which component explains a shift.

Two runs of the same workload rarely differ "everywhere": a read-ahead
policy change moves transfer and cache time, a scheduler change moves
seek time, an HDC change moves queueing. This module reduces a
:class:`~repro.metrics.collector.RunResult` to a per-record component
cost vector, diffs two of them, and ranks the components by how much
of the shift each one explains.

Components (all in ms per record):

* ``seek`` / ``rotation`` / ``transfer`` / ``overhead`` — the drive's
  time-in-state totals (summed over the array) divided by the record
  count: the real mechanical work done per record;
* ``queue`` — the signed residual ``mean_latency - media work per
  record``: positive is time spent waiting (queueing, bus, fault
  retries), negative means requests overlapped across disks so each
  record saw *less* than the array's total work;
* ``cache`` — a credit (negative ms): blocks served from the
  controller cache per record, costed at the run's own mean media
  time per media block — the mechanical work the cache absorbed.

The decomposition is an *attribution*, not an accounting identity:
the queue residual absorbs what the other components do not carry.
What makes it trustworthy is the diff — both runs are reduced the
same way, so a component that did not change cancels out.

Per-phase attribution uses a traced run's media state spans
(``diskN/state`` tracks) binned into phase time windows: seek /
rotation / transfer / overhead per phase, per run, so a shift can be
pinned to the phase it happened in. Queue/cache need per-request
latencies and are reported whole-run only.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    TYPE_CHECKING,
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from repro.errors import ReproError
from repro.metrics.report import format_table
from repro.obs.timeline import MEDIA_STATES, STATE_TRACK_SUFFIX, merge_time_in_state

if TYPE_CHECKING:
    from repro.metrics.collector import RunResult

#: Components of the per-record cost vector, in presentation order.
COMPONENTS = MEDIA_STATES + ("queue", "cache")


def components_ms(result: RunResult) -> Dict[str, float]:
    """Per-record cost vector (ms) of one run, in :data:`COMPONENTS` order.

    Reads only ``records``, ``mean_latency_ms``, ``time_in_state``,
    ``cache.block_hits`` and ``controller.media_blocks_read`` /
    ``media_blocks_written`` — which keeps perfkit on the metrics
    surface, off the simulator internals. A zero-record run is costed
    as one record, so every component stays defined.
    """
    records = max(1, result.records)
    merged = merge_time_in_state(result.time_in_state)
    components: Dict[str, float] = {
        state: merged.get(state, 0.0) / records for state in MEDIA_STATES
    }
    media_ms = sum(components.values())
    components["queue"] = result.mean_latency_ms - media_ms

    controller = result.controller
    media_blocks = controller.media_blocks_read + controller.media_blocks_written
    cache_credit = 0.0
    if media_blocks > 0:
        ms_per_block = merged.get("busy", media_ms * records) / media_blocks
        cache_credit = -(result.cache.block_hits / records) * ms_per_block
    components["cache"] = cache_credit
    return components


@dataclass(frozen=True)
class Attribution:
    """One component's contribution to a cross-run shift."""

    component: str
    base_ms: float
    new_ms: float
    delta_ms: float
    #: ``|delta|`` over the summed ``|delta|`` of all components.
    share: float


@dataclass
class AttributionReport:
    """Ranked per-component explanation of a latency/throughput shift.

    ``base`` and ``new`` are the two runs (:class:`RunResult`), named
    in the text by ``base_label`` and ``new_label``.
    """

    base: RunResult
    new: RunResult
    base_label: str
    new_label: str
    ranking: List[Attribution]

    @property
    def latency_delta_ms(self) -> float:
        return self.new.mean_latency_ms - self.base.mean_latency_ms

    @property
    def throughput_delta_mb_s(self) -> float:
        return self.new.throughput_mb_s - self.base.throughput_mb_s

    def headline(self) -> str:
        """One-line summary naming the dominant component."""
        direction = "slower" if self.latency_delta_ms > 0 else "faster"
        top = self.ranking[0]
        return (
            f"{self.new_label} vs {self.base_label}: "
            f"{abs(self.latency_delta_ms):.3f} ms/record {direction} "
            f"({self.base.mean_latency_ms:.3f} -> "
            f"{self.new.mean_latency_ms:.3f}); top component: "
            f"{top.component} ({top.delta_ms:+.3f} ms, "
            f"{100 * top.share:.0f}% of the shift)"
        )

    def to_text(self) -> str:
        """Headline plus the full ranking as a fixed-width table."""
        rows = [
            [
                a.component,
                a.base_ms,
                a.new_ms,
                f"{a.delta_ms:+.3f}",
                f"{100 * a.share:.1f}%",
            ]
            for a in self.ranking
        ]
        table = format_table(
            ["component", "base_ms", "new_ms", "delta_ms", "share"], rows
        )
        context = (
            f"cache hit rate {self.base.cache_hit_rate:.3f} -> "
            f"{self.new.cache_hit_rate:.3f}, hdc hit rate "
            f"{self.base.hdc_hit_rate:.3f} -> {self.new.hdc_hit_rate:.3f}, "
            f"throughput {self.base.throughput_mb_s:.2f} -> "
            f"{self.new.throughput_mb_s:.2f} MB/s"
        )
        return f"{self.headline()}\n{table}\n{context}"


def attribute_shift(
    base: RunResult,
    new: RunResult,
    base_label: str = "base",
    new_label: str = "new",
) -> AttributionReport:
    """Diff two runs' component vectors and rank components by |delta|.

    Ties (including the all-zero-delta case of identical runs) break
    by :data:`COMPONENTS` order, so the ranking is deterministic.
    """
    base_ms = components_ms(base)
    new_ms = components_ms(new)
    deltas = {c: new_ms[c] - base_ms[c] for c in COMPONENTS}
    total = sum(abs(d) for d in deltas.values())
    order = sorted(
        COMPONENTS, key=lambda c: (-abs(deltas[c]), COMPONENTS.index(c))
    )
    ranking = [
        Attribution(
            component=c,
            base_ms=base_ms[c],
            new_ms=new_ms[c],
            delta_ms=deltas[c],
            share=abs(deltas[c]) / total if total > 0 else 0.0,
        )
        for c in order
    ]
    return AttributionReport(base, new, base_label, new_label, ranking)


# -- per-phase media attribution --------------------------------------


def phase_media_breakdown(
    events: Iterable[tuple],
    bounds_ms: Sequence[Tuple[float, float]],
    run: Optional[int] = None,
) -> List[Dict[str, float]]:
    """Media time-in-state per phase window from traced state spans.

    ``events`` is a tracer's flat event list; ``bounds_ms`` the phase
    time windows (from :class:`~repro.perfkit.phases.Phase` bounds).
    Each media span (``diskN/state`` tracks) is binned by its *start*
    time — spans are far shorter than phases, so edge effects are one
    operation wide. Returns one summed-over-disks state dict per
    window.
    """
    if not bounds_ms:
        return []
    out: List[Dict[str, float]] = [
        dict.fromkeys(MEDIA_STATES, 0.0) for _ in bounds_ms
    ]
    for event in events:
        event_run, ph, track, name, ts, dur = event[:6]
        if ph != "X" or name not in MEDIA_STATES:
            continue
        if run is not None and event_run != run:
            continue
        if not track.endswith(STATE_TRACK_SUFFIX):
            continue
        for i, (lo, hi) in enumerate(bounds_ms):
            if lo <= ts < hi or (i == len(bounds_ms) - 1 and ts >= hi):
                out[i][name] += dur
                break
    return out


def phase_attribution_table(
    phases: Sequence[object],
    base_breakdowns: Sequence[Mapping[str, float]],
    new_breakdowns: Sequence[Mapping[str, float]],
    base_label: str = "base",
    new_label: str = "new",
) -> str:
    """Per-phase media component deltas as a fixed-width table.

    Each row is one (phase, component) pair with the per-record ms in
    both runs and the delta, largest-|delta| component first within
    each phase.
    """
    if len(base_breakdowns) != len(phases) or len(new_breakdowns) != len(phases):
        raise ReproError("phase breakdown count does not match phase count")
    rows: List[List[object]] = []
    for phase, base_b, new_b in zip(phases, base_breakdowns, new_breakdowns):
        n = max(1, phase.n_records)  # type: ignore[attr-defined]
        deltas = {
            s: (new_b.get(s, 0.0) - base_b.get(s, 0.0)) / n
            for s in MEDIA_STATES
        }
        order = sorted(
            MEDIA_STATES, key=lambda s: (-abs(deltas[s]), MEDIA_STATES.index(s))
        )
        for s in order:
            rows.append(
                [
                    phase.index,  # type: ignore[attr-defined]
                    s,
                    base_b.get(s, 0.0) / n,
                    new_b.get(s, 0.0) / n,
                    f"{deltas[s]:+.3f}",
                ]
            )
    return format_table(
        [
            "phase",
            "component",
            f"{base_label}_ms/rec",
            f"{new_label}_ms/rec",
            "delta",
        ],
        rows,
    )
