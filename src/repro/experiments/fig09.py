"""Figure 9 — Proxy server: I/O time vs striping unit size (2-MB HDC).

Expected shape: gains smaller than the web server's (bigger footprint,
more writes); best striping unit between 32 and 64 KB; FOR 15-17%,
FOR+HDC up to ~33%.
"""

from __future__ import annotations

from typing import Sequence

from repro.experiments.base import SeriesResult
from repro.experiments.servers import STRIPING_UNITS_KB, striping_sweep
from repro.workloads.proxy import ProxyServerSpec, ProxyServerWorkload

DEFAULT_SCALE = 0.05


def run(
    scale: float = DEFAULT_SCALE,
    seed: int = 1,
    units_kb: Sequence[int] = STRIPING_UNITS_KB,
    verbose: bool = False,
) -> SeriesResult:
    """Striping-unit sweep over the proxy workload."""
    return striping_sweep(
        exp_id="fig09",
        title=f"Proxy server: I/O time vs striping unit (scale={scale})",
        build_workload=lambda: ProxyServerWorkload(
            ProxyServerSpec(scale=scale, seed=seed)
        ).build(),
        units_kb=units_kb,
        seed=seed,
        verbose=verbose,
        hdc_pin_fraction=scale,
        workload_key=("proxy", scale, seed),
    )
