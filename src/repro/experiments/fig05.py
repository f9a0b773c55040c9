"""Figure 5 — normalized I/O time vs access-frequency distribution.

Zipf coefficient swept 0..1; 16-KB reads; 2-MB HDC regions; no writes.
Systems: Segm, Segm+HDC, FOR, FOR+HDC, plus the HDC hit rate.
Expected shape: HDC gains ~10% and stable for alpha <= 0.6, growing
beyond; hit rate strictly increasing in alpha (the paper reaches 56%
at alpha = 1).
"""

from __future__ import annotations

import dataclasses
from typing import Sequence

from repro.config import ultrastar_36z15_config
from repro.experiments.base import SeriesResult, log, scaled_count
from repro.experiments.runner import TechniqueRunner
from repro.experiments.techniques import FOR, FOR_HDC, SEGM, SEGM_HDC
from repro.units import KB, MB
from repro.workloads.synthetic import SyntheticSpec, SyntheticWorkload

ALPHAS = (0.0, 0.2, 0.4, 0.6, 0.8, 1.0)
TECHNIQUES = (SEGM, SEGM_HDC, FOR, FOR_HDC)


def run(
    scale: float = 1.0,
    seed: int = 1,
    alphas: Sequence[float] = ALPHAS,
    hdc_bytes: int = 2 * MB,
    verbose: bool = False,
) -> SeriesResult:
    """Sweep the Zipf coefficient; normalize to Segm per point."""
    n_requests = scaled_count(10_000, scale, minimum=200)
    result = SeriesResult(
        exp_id="fig05",
        title="Normalized I/O time vs Zipf coefficient (2-MB HDC, 0% writes)",
        x_label="alpha",
        x_values=list(alphas),
    )
    config = ultrastar_36z15_config(seed=seed)
    for alpha in alphas:
        spec = SyntheticSpec(
            n_requests=n_requests,
            file_size_bytes=16 * KB,
            zipf_alpha=alpha,
            seed=seed,
            period=1,
        )
        layout, trace = SyntheticWorkload(spec).build()
        # HDC profiles the previous period's accesses (§5).
        _, history = SyntheticWorkload(
            dataclasses.replace(spec, period=0)
        ).build()
        runner = TechniqueRunner(layout, trace, profile_trace=history)
        baseline = None
        hit_rate = 0.0
        for tech in TECHNIQUES:
            res = runner.run(config, tech, hdc_bytes=hdc_bytes)
            if tech is SEGM:
                baseline = res
            if tech.hdc:
                hit_rate = res.hdc_hit_rate
            result.add_point(tech.label, res.io_time_ms / baseline.io_time_ms)
            log(verbose, f"fig05 a={alpha} {tech.label}: {res.io_time_s:.2f}s")
        result.add_point("hdc_hit_rate", hit_rate)
    return result
