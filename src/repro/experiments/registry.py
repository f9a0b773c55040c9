"""The experiment table: every CLI-reachable experiment, by id.

Each :class:`Experiment` entry carries everything the CLI, the
parallel sweep runner, the result cache and the perfkit report need:
the driver's ``run()``, how the experiment *splits* into parallel
cells (the ``run()`` keyword that carries the x axis plus its default
points — every driver accepts a restricted axis and returns a
:class:`~repro.experiments.base.SeriesResult` covering just that
slice), and an optional post-merge analysis section printed after the
series table.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional, Tuple

from repro.experiments import servers
from repro.experiments.base import SeriesResult
from repro.experiments import (
    availability,
    ext_frag,
    fig01,
    fig02,
    fig03,
    fig04,
    fig05,
    fig06,
    fig07,
    fig08,
    fig09,
    fig10,
    fig11,
    fig12,
    hybrid_array,
    scale_sweep,
    service_demo,
    table1,
    table2,
    trace_replay,
    validation,
)


@dataclass(frozen=True)
class Experiment:
    """One experiment: its driver, its parallel axis, its analysis.

    ``axis`` is the ``run()`` keyword holding the x-axis sequence;
    ``values`` its default sweep points. ``axis=None`` means the
    experiment is indivisible and runs as a single cell (its internal
    structure is not a per-x loop, or splitting would rebuild shared
    state per cell for no gain). ``analysis`` renders a section from
    the merged result, so it reads the same at any job count.
    """

    run: Callable[..., SeriesResult]
    axis: Optional[str] = None
    values: Tuple[object, ...] = ()
    analysis: Optional[Callable[[SeriesResult], str]] = None


#: Every experiment the paper's evaluation contains, plus extensions.
EXPERIMENTS: Dict[str, Experiment] = {
    "fig01": Experiment(fig01.run, "frag_points", tuple(fig01.FRAG_POINTS)),
    # Three workloads feed one shared Zipf reference.
    "fig02": Experiment(fig02.run),
    "fig03": Experiment(fig03.run, "file_sizes_kb", tuple(fig03.FILE_SIZES_KB)),
    "fig04": Experiment(fig04.run, "stream_counts", tuple(fig04.STREAM_COUNTS)),
    "fig05": Experiment(fig05.run, "alphas", tuple(fig05.ALPHAS)),
    "fig06": Experiment(
        fig06.run, "write_fractions", tuple(fig06.WRITE_FRACTIONS)
    ),
    "fig07": Experiment(fig07.run, "units_kb", tuple(servers.STRIPING_UNITS_KB)),
    "fig08": Experiment(fig08.run, "hdc_sizes_kb", tuple(servers.HDC_SIZES_KB)),
    "fig09": Experiment(fig09.run, "units_kb", tuple(servers.STRIPING_UNITS_KB)),
    "fig10": Experiment(fig10.run, "hdc_sizes_kb", tuple(servers.HDC_SIZES_KB)),
    "fig11": Experiment(fig11.run, "units_kb", tuple(servers.STRIPING_UNITS_KB)),
    "fig12": Experiment(fig12.run, "hdc_sizes_kb", tuple(servers.HDC_SIZES_KB)),
    "table1": Experiment(table1.run),
    "table2": Experiment(table2.run, "servers", tuple(table2.SERVERS)),
    "validation": Experiment(validation.run),
    "ext_frag": Experiment(ext_frag.run, "frag_points", tuple(ext_frag.FRAG_POINTS)),
    "availability": Experiment(
        availability.run, "mtbf_s", tuple(availability.MTBF_S)
    ),
    "trace_replay": Experiment(
        trace_replay.run,
        "techniques",
        tuple(trace_replay.TECHNIQUE_KEYS),
        analysis=trace_replay.latency_ranking,
    ),
    "scale_sweep": Experiment(
        scale_sweep.run,
        "clients",
        tuple(scale_sweep.CLIENT_COUNTS),
        analysis=scale_sweep.knee_table,
    ),
    "hybrid_array": Experiment(
        hybrid_array.run,
        "arrays",
        tuple(hybrid_array.ARRAYS),
        analysis=hybrid_array.knee_table,
    ),
    # Live-service demo: tenant bursts share one server and one engine
    # thread; timing-dependent by design, so it never splits (and is
    # never golden-diffed).
    "service_demo": Experiment(service_demo.run),
}

