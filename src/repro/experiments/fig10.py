"""Figure 10 — Proxy server: I/O time vs HDC size (64-KB striping unit).

Expected shape: like Fig. 8, with lower hit rates (larger footprint);
~22% HDC gains near 2.5 MB for both Segm+HDC and FOR+HDC.
"""

from __future__ import annotations

from typing import Sequence

from repro.experiments.base import SeriesResult
from repro.experiments.servers import HDC_SIZES_KB, hdc_sweep
from repro.workloads.proxy import ProxyServerSpec, ProxyServerWorkload

DEFAULT_SCALE = 0.05
STRIPING_UNIT_KB = 64


def run(
    scale: float = DEFAULT_SCALE,
    seed: int = 1,
    hdc_sizes_kb: Sequence[int] = HDC_SIZES_KB,
    verbose: bool = False,
) -> SeriesResult:
    """HDC-size sweep over the proxy workload."""
    return hdc_sweep(
        exp_id="fig10",
        title=f"Proxy server: I/O time vs HDC size (scale={scale})",
        build_workload=lambda: ProxyServerWorkload(
            ProxyServerSpec(scale=scale, seed=seed)
        ).build(),
        striping_unit_kb=STRIPING_UNIT_KB,
        hdc_sizes_kb=hdc_sizes_kb,
        seed=seed,
        verbose=verbose,
        hdc_pin_fraction=scale,
        workload_key=("proxy", scale, seed),
    )
