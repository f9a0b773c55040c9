"""Figure 8 — Web server: I/O time vs HDC size (16-KB striping unit).

Expected shape: HDC gains grow with region size, peaking near 2.5 MB
where the remaining read-ahead cache becomes too small; FOR+HDC cannot
reach the largest sizes because the 546-KB sequentiality bitmap also
lives in the controller cache.
"""

from __future__ import annotations

from typing import Sequence

from repro.experiments.base import SeriesResult
from repro.experiments.servers import HDC_SIZES_KB, hdc_sweep
from repro.workloads.webserver import WebServerSpec, WebServerWorkload

DEFAULT_SCALE = 0.05
STRIPING_UNIT_KB = 16


def run(
    scale: float = DEFAULT_SCALE,
    seed: int = 1,
    hdc_sizes_kb: Sequence[int] = HDC_SIZES_KB,
    verbose: bool = False,
) -> SeriesResult:
    """HDC-size sweep over the web-server workload."""
    return hdc_sweep(
        exp_id="fig08",
        title=f"Web server: I/O time vs HDC size (scale={scale})",
        build_workload=lambda: WebServerWorkload(
            WebServerSpec(scale=scale, seed=seed)
        ).build(),
        striping_unit_kb=STRIPING_UNIT_KB,
        hdc_sizes_kb=hdc_sizes_kb,
        seed=seed,
        verbose=verbose,
        hdc_pin_fraction=scale,
        workload_key=("web", scale, seed),
    )
