"""Figure 4 — normalized I/O time vs number of simultaneous streams.

16-KB files, stream counts 64..1024. Systems: Segm, Block, FOR.
Expected shape: FOR gains grow from ~39% at 64 streams to ~59% at
1024; Block ~= Segm until streams exceed the array's 216 segments,
then Block edges ahead by a few percent.
"""

from __future__ import annotations

from typing import Sequence

from repro.config import ultrastar_36z15_config
from repro.experiments.base import SeriesResult, log, scaled_count
from repro.experiments.runner import TechniqueRunner
from repro.experiments.techniques import BLOCK, FOR, SEGM
from repro.units import KB
from repro.workloads.synthetic import SyntheticSpec, SyntheticWorkload

STREAM_COUNTS = (64, 128, 256, 512, 1024)
TECHNIQUES = (SEGM, BLOCK, FOR)


def run(
    scale: float = 1.0,
    seed: int = 1,
    stream_counts: Sequence[int] = STREAM_COUNTS,
    verbose: bool = False,
) -> SeriesResult:
    """Sweep concurrency; normalize I/O times to Segm per point."""
    n_requests = scaled_count(10_000, scale, minimum=200)
    result = SeriesResult(
        exp_id="fig04",
        title="Normalized I/O time vs simultaneous I/O streams (16-KB files)",
        x_label="streams",
        x_values=list(stream_counts),
    )
    spec = SyntheticSpec(
        n_requests=n_requests, file_size_bytes=16 * KB, seed=seed
    )
    layout, trace = SyntheticWorkload(spec).build()
    runner = TechniqueRunner(layout, trace)
    config = ultrastar_36z15_config(seed=seed)
    for streams in stream_counts:
        baseline = None
        for tech in TECHNIQUES:
            res = runner.run(config, tech, n_streams=streams)
            if tech is SEGM:
                baseline = res
            result.add_point(tech.label, res.io_time_ms / baseline.io_time_ms)
            log(verbose, f"fig04 t={streams} {tech.label}: {res.io_time_s:.2f}s")
    return result
