"""Helpers shared by the benchmark's modules: statistics, host speed, output."""

from __future__ import annotations

import heapq
import json
import resource
import sys
import time
from typing import Dict, List, Sequence, Tuple

#: Host seconds :func:`reference_s` takes at the reference speed, the
#: scale of every rescaled time: a round figure near its median on the
#: 2-vCPU host the benchmark was built on (2.2 to 3.5 ms).
REFERENCE_S = 0.0025


def percentile(values: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile (0 < pct <= 100) of a non-empty sequence."""
    ordered = sorted(values)
    rank = max(1, int(round(pct / 100.0 * len(ordered))))
    return ordered[rank - 1]


class _Item:
    __slots__ = ("a", "b")

    def __init__(self, a: int, b: float) -> None:
        self.a = a
        self.b = b

    def step(self, x: int) -> float:
        return self.a * x + self.b


def _reference_loop() -> float:
    heap: List[Tuple[float, int]] = []
    counts: Dict[int, int] = {}
    items = [_Item(i, i * 0.5) for i in range(64)]
    total = 0.0
    for i in range(2500):
        heapq.heappush(heap, (items[i & 63].step(i) % 97.0, i))
        counts[i & 255] = counts.get(i & 255, 0) + 1
        if len(heap) > 32:
            total += heapq.heappop(heap)[0]
    return total


def reference_s() -> float:
    """Host seconds of a fixed loop, to gauge the host's speed now.

    The loop is the benchmark's own code, never the program's, so a
    change to the program cannot move it. It does the kind of work the
    simulator does: method calls on small objects, a heap, a dict. The
    median of three runs keeps one interrupt out of the figure.
    """
    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        _reference_loop()
        times.append(time.perf_counter() - t0)
    return sorted(times)[1]


def scaled(seconds: float, ref_before: float, ref_after: float) -> float:
    """Host seconds rescaled to the reference speed.

    The shared host's CPU speed moves by up to a half within seconds
    and drifts over minutes. ``ref_before`` and ``ref_after`` are
    :func:`reference_s` taken just before and just after the interval;
    their mean tells how fast the host ran during it.
    """
    return seconds * REFERENCE_S / (0.5 * (ref_before + ref_after))


def peak_rss_mb() -> float:
    """Peak resident memory of this process, in MB (2**20 bytes)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def note(text: str) -> None:
    """A human-readable line; stdout, so the result stays the last line."""
    print(text, flush=True)


def emit(
    correct: bool,
    attempted: int,
    failed: int,
    metrics: Dict[str, Tuple[float, str]],
) -> None:
    """Print the result object as the last line of standard output."""
    note(
        json.dumps(
            {
                "correct": bool(correct),
                "attempted": int(attempted),
                "failed": int(failed),
                "metrics": {
                    name: {"value": float(value), "unit": unit}
                    for name, (value, unit) in metrics.items()
                },
            }
        )
    )
    sys.stdout.flush()


def report_errors(errors: List[str]) -> None:
    """Print every failed check; the run's metrics are then not to be used."""
    for error in errors:
        note(f"CHECK FAILED: {error}")
