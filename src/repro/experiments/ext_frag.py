"""Extension experiment — FOR's gains vs fragmentation degree.

§4 claims "The FOR benefits increase with smaller average file size or
higher fragmentation" and supports it only with Fig. 1's sequentiality
analysis. This driver closes the loop: it sweeps the allocator's
fragmentation probability and measures the actual I/O-time gap between
blind read-ahead and FOR on the §6.2 synthetic workload.

Mechanism under test: fragmentation clears sequentiality bits, so FOR
truncates read-ahead at every extent break, while blind read-ahead
keeps fetching 128 KB of increasingly unrelated blocks.
"""

from __future__ import annotations

from typing import Sequence

from repro.config import ultrastar_36z15_config
from repro.experiments.base import SeriesResult, log, scaled_count
from repro.experiments.runner import TechniqueRunner
from repro.experiments.techniques import FOR, SEGM
from repro.units import KB
from repro.workloads.synthetic import SyntheticSpec, SyntheticWorkload

FRAG_POINTS = (0.0, 0.02, 0.05, 0.10, 0.20)


def run(
    scale: float = 1.0,
    seed: int = 1,
    frag_points: Sequence[float] = FRAG_POINTS,
    file_size_kb: int = 32,
    verbose: bool = False,
) -> SeriesResult:
    """Sweep fragmentation; report normalized FOR time and its gain."""
    n_requests = scaled_count(10_000, scale, minimum=200)
    result = SeriesResult(
        exp_id="ext_frag",
        title=f"FOR vs fragmentation ({file_size_kb}-KB files)",
        x_label="frag_prob",
        x_values=list(frag_points),
    )
    config = ultrastar_36z15_config(seed=seed)
    for frag in frag_points:
        spec = SyntheticSpec(
            n_requests=n_requests,
            file_size_bytes=file_size_kb * KB,
            frag_prob=frag,
            # scatter fragments beyond the 128-KB read-ahead horizon —
            # aged file systems relocate extents to distant free space
            frag_gap_blocks=256.0,
            seed=seed,
        )
        layout, trace = SyntheticWorkload(spec).build()
        runner = TechniqueRunner(layout, trace)
        base = runner.run(config, SEGM)
        fo = runner.run(config, FOR)
        normalized = fo.io_time_ms / base.io_time_ms
        result.add_point("FOR", normalized)
        result.add_point("FOR_gain", 1.0 - normalized)
        result.add_point(
            "useless_RA_blind", base.cache.pollution_rate
        )
        log(
            verbose,
            f"ext_frag p={frag}: FOR {normalized:.3f} "
            f"(blind pollution {base.cache.pollution_rate:.2f})",
        )
    result.notes.append(
        "§4: 'The FOR benefits increase with ... higher fragmentation'"
    )
    return result
