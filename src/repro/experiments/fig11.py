"""Figure 11 — File server: I/O time vs striping unit size (2-MB HDC).

Expected shape: similar to the proxy but with lower FOR gains (the
server reads partial files); best striping unit around 128 KB; FOR up
to ~12%, FOR+HDC up to ~21%.
"""

from __future__ import annotations

from typing import Sequence

from repro.experiments.base import SeriesResult
from repro.experiments.servers import STRIPING_UNITS_KB, striping_sweep
from repro.workloads.fileserver import FileServerSpec, FileServerWorkload

DEFAULT_SCALE = 0.02


def run(
    scale: float = DEFAULT_SCALE,
    seed: int = 1,
    units_kb: Sequence[int] = STRIPING_UNITS_KB,
    verbose: bool = False,
) -> SeriesResult:
    """Striping-unit sweep over the file-server workload."""
    return striping_sweep(
        exp_id="fig11",
        title=f"File server: I/O time vs striping unit (scale={scale})",
        build_workload=lambda: FileServerWorkload(
            FileServerSpec(scale=scale, seed=seed)
        ).build(),
        units_kb=units_kb,
        seed=seed,
        verbose=verbose,
        hdc_pin_fraction=scale,
        workload_key=("file", scale, seed),
    )
