"""Scale sweep: client population 1k -> 1M, to the queueing knee.

The paper's figures hold the workload fixed and vary the technique;
this experiment holds the per-client behavior fixed and varies *how
many clients* offer it, replaying each population open-loop under
Segm/FOR with and without HDC. Because the offered rate grows
linearly with the population while the array's service capacity does
not, every technique's delivered p99 latency eventually diverges —
the queueing knee. Where that knee sits, and how far a technique
pushes it, is the capacity headroom the ROADMAP's
"millions of users" question actually asks about.

Each cell generates its records lazily from
:func:`repro.loadgen.generate.generate_records` straight into the
open-loop driver — no materialized trace, so the 1M-client cell costs
the same memory as the 1k one. The per-cell request count is fixed
(``scaled_count(BASE_REQUESTS, scale)``): cells measure the *same
amount of work* arriving at different rates.

Knee detection is a pure post-processing step over the merged series
(:func:`find_knees` / :func:`knee_table`), never part of ``run()`` —
parallel cells each see a single population size, and the merged
serial/parallel outputs must stay byte-identical.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

from repro.config import ultrastar_36z15_config
from repro.experiments.base import SeriesResult, log, scaled_count
from repro.experiments.runner import TechniqueRunner
from repro.experiments.techniques import ALL_TECHNIQUES
from repro.loadgen.generate import build_layout, generate_records
from repro.loadgen.spec import preset_population
from repro.metrics.report import format_table
from repro.units import KB

#: Population sizes swept (the x axis).
CLIENT_COUNTS = (1_000, 10_000, 100_000, 1_000_000)
#: Technique keys swept per population, in presentation order.
TECHNIQUE_KEYS = ("segm", "for", "segm+hdc", "for+hdc")
#: Per-disk HDC region for the +hdc techniques (the paper's sweet spot).
HDC_KB = 2048
#: Records replayed per cell at scale 1.0.
BASE_REQUESTS = 20_000
#: Population preset providing per-client behavior.
SPEC_NAME = "web3"
#: A technique's knee: the first population whose p99 is this many
#: times the same technique's p99 at the smallest population.
KNEE_FACTOR = 10.0


def run(
    scale: float = 1.0,
    seed: int = 1,
    clients: Sequence[int] = CLIENT_COUNTS,
    techniques: Sequence[str] = TECHNIQUE_KEYS,
    spec_name: str = SPEC_NAME,
    hdc_kb: int = HDC_KB,
    verbose: bool = False,
) -> SeriesResult:
    """Replay the population at each size under each technique."""
    config = ultrastar_36z15_config(seed=seed)
    n_requests = scaled_count(BASE_REQUESTS, scale, minimum=400)
    result = SeriesResult(
        exp_id="scale_sweep",
        title=f"Client scale sweep ({spec_name} population, "
        f"{n_requests} records/cell, open-loop)",
        x_label="clients",
        x_values=list(clients),
    )
    for n_clients in clients:
        spec = preset_population(
            spec_name, n_clients=n_clients, n_requests=n_requests
        )
        layout = build_layout(spec, seed)

        def factory(spec=spec, layout=layout):
            return generate_records(spec, seed, layout=layout)

        runner = TechniqueRunner(layout, None, trace_factory=factory)
        result.add_point("offered_req_s", spec.offered_rate_req_s())
        for key in techniques:
            technique = ALL_TECHNIQUES[key]
            res = runner.run(
                config,
                technique,
                hdc_bytes=hdc_kb * KB if technique.hdc else 0,
                open_loop=True,
                keep_raw_latencies=False,
            )
            result.add_point(f"p99_ms[{key}]", res.latency_percentile(99))
            result.add_point(f"mb_s[{key}]", res.throughput_mb_s)
            log(
                verbose,
                f"scale_sweep {n_clients} clients {technique.label}: "
                f"p99={res.latency_percentile(99):.2f}ms "
                f"tput={res.throughput_mb_s:.2f}MB/s",
            )
    return result


def find_knees(
    result: SeriesResult, techniques: Sequence[str] = TECHNIQUE_KEYS
) -> Dict[str, Optional[int]]:
    """Per-technique knee population from a merged sweep result.

    ``None`` means the technique's p99 never reached ``KNEE_FACTOR``
    times its smallest-population p99 within the sweep — the knee lies
    beyond the largest population measured.
    """
    knees: Dict[str, Optional[int]] = {}
    for key in techniques:
        series = result.get(f"p99_ms[{key}]")
        base = series[0]
        knees[key] = None
        for x, p99 in zip(result.x_values, series):
            if base > 0 and p99 >= KNEE_FACTOR * base:
                knees[key] = int(x)  # type: ignore[call-overload]
                break
    return knees


def knee_table(
    result: SeriesResult, techniques: Sequence[str] = TECHNIQUE_KEYS
) -> str:
    """Render the per-technique knee table (post-merge, any job count)."""
    knees = find_knees(result, techniques)
    rows = []
    for key in techniques:
        series = result.get(f"p99_ms[{key}]")
        knee = knees[key]
        rows.append(
            [
                ALL_TECHNIQUES[key].label,
                knee if knee is not None else f"> {result.x_values[-1]}",
                series[0],
                max(series),
            ]
        )
    header = (
        f"== scale_sweep: p99 knee (first population at {KNEE_FACTOR:g}x "
        "the smallest population's p99) =="
    )
    return header + "\n" + format_table(
        ["technique", "knee_clients", "p99_base_ms", "p99_max_ms"], rows
    )
