"""Figure 3 — normalized I/O time vs average file size (128 streams).

Synthetic workload of §6.2: 10000 whole-file reads, Zipf(0.4) file
popularity, 128 concurrent streams, 87% coalescing, 128-KB striping
unit. Four systems: Segm (baseline, = 1.0), Block, No-RA and FOR.
Expected shape: FOR <= everything everywhere; ~40% reduction at 16-KB
files decaying to parity at 128 KB; No-RA wins below ~48 KB and loses
badly above.
"""

from __future__ import annotations

from typing import Sequence

from repro.config import ultrastar_36z15_config
from repro.experiments.base import SeriesResult, log, scaled_count
from repro.experiments.runner import TechniqueRunner
from repro.experiments.techniques import BLOCK, FOR, NORA, SEGM
from repro.units import KB
from repro.workloads.synthetic import SyntheticSpec, SyntheticWorkload

FILE_SIZES_KB = (4, 8, 16, 32, 48, 64, 96, 128)
TECHNIQUES = (SEGM, BLOCK, NORA, FOR)


def run(
    scale: float = 1.0,
    seed: int = 1,
    file_sizes_kb: Sequence[int] = FILE_SIZES_KB,
    verbose: bool = False,
) -> SeriesResult:
    """Sweep average file size; normalize I/O times to Segm."""
    n_requests = scaled_count(10_000, scale, minimum=200)
    result = SeriesResult(
        exp_id="fig03",
        title="Normalized I/O time vs average file size (128 streams)",
        x_label="file_KB",
        x_values=list(file_sizes_kb),
    )
    config = ultrastar_36z15_config(seed=seed)
    # Hold the data footprint constant (160 MB = the default 10000 x
    # 16 KB) while the file size varies, so cacheable-fraction effects
    # do not contaminate the read-ahead comparison.
    footprint_blocks = 10_000 * 4
    for size_kb in file_sizes_kb:
        file_blocks = max(1, (size_kb * KB) // (4 * KB))
        spec = SyntheticSpec(
            n_requests=n_requests,
            n_files=max(256, footprint_blocks // file_blocks),
            file_size_bytes=size_kb * KB,
            seed=seed,
        )
        layout, trace = SyntheticWorkload(spec).build()
        runner = TechniqueRunner(layout, trace)
        baseline = None
        for tech in TECHNIQUES:
            res = runner.run(config, tech)
            if tech is SEGM:
                baseline = res
            result.add_point(tech.label, res.io_time_ms / baseline.io_time_ms)
            log(verbose, f"fig03 {size_kb}KB {tech.label}: {res.io_time_s:.2f}s")
    return result
