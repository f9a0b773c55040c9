"""Single-page markdown reports over phases and attribution.

Three renderers, all byte-stable for a fixed ``(seed, scale)``:

* :func:`smoke_report` — runs the built-in two-phase smoke sweep
  (below) under a base and a comparison technique with a tracer
  installed, and renders phase table, technique comparison,
  whole-run attribution ranking and per-phase media attribution. This
  is the report ``python -m repro.perfkit report`` emits and the golden
  test diffs.
* :func:`series_report` — renders any saved
  :class:`~repro.experiments.base.SeriesResult` (``repro-exp <exp>
  --report out.md``) with per-series sparklines, plus the
  experiment's ``analysis`` section from
  :data:`repro.experiments.registry.EXPERIMENTS` (knee tables for
  ``scale_sweep``/``hybrid_array``, a technique ranking for
  ``trace_replay``).
* :func:`markdown_to_html` — a dependency-free subset-of-markdown to
  HTML converter (headings, fenced code, paragraphs) for ``--html``.

The smoke sweep is a deliberately two-phase workload: the fig03
16-KB-file mix replayed open-loop, first half slow all-read arrivals,
second half ~4x faster with a third of the records flipped to writes.
Both the arrival-rate and the write-mix signals jump at the midpoint,
so the phase detector must find exactly two phases — a report whose
phase table shows one (or five) phases is itself a regression signal.
"""

from __future__ import annotations

import html as _html
from typing import List, Tuple

from repro.metrics.ascii_chart import sparkline
from repro.metrics.report import format_table
from repro.perfkit.attribute import (
    attribute_shift,
    phase_attribution_table,
    phase_media_breakdown,
)
from repro.perfkit.phases import detect_phases, phase_table

#: Smoke-sweep defaults: seed, record count at scale 1, phase window.
SMOKE_SEED = 31
#: Chosen so the midpoint lands on a window boundary at scale 1.0 and
#: 0.5 (1536/2 = 6 windows, 768/2 = 3): the detector sees a clean
#: change-point, not a mixed transition window.
SMOKE_REQUESTS = 1_536
SMOKE_WINDOW = 128
#: Mean interarrival per half (ms): slow read phase, fast mixed phase.
SMOKE_SLOW_MS = 4.0
SMOKE_FAST_MS = 1.0
#: Techniques compared: base vs new.
SMOKE_BASE = "segm"
SMOKE_NEW = "for+hdc"
SMOKE_HDC_KB = 2048


def smoke_workload(scale: float = 1.0, seed: int = SMOKE_SEED):
    """Build the two-phase timed smoke workload (layout, trace).

    Deterministic from ``(scale, seed)``: same spec, same RNG stream,
    same records — the foundation of the byte-stable golden report.
    """
    from repro.experiments.base import scaled_count
    from repro.sim.rng import RandomStreams
    from repro.units import KB
    from repro.workloads.synthetic import SyntheticSpec, SyntheticWorkload
    from repro.workloads.trace import TimedAccess, Trace

    spec = SyntheticSpec(
        n_requests=scaled_count(SMOKE_REQUESTS, scale, minimum=160),
        file_size_bytes=16 * KB,
        seed=seed,
    )
    layout, trace = SyntheticWorkload(spec).build()
    arrivals = RandomStreams(seed).stream("perfkit.smoke.arrivals")
    half = len(trace.records) // 2
    now = 0.0
    timed: List[TimedAccess] = []
    for i, record in enumerate(trace.records):
        fast = i >= half
        is_write = bool(record.is_write) or (fast and i % 3 == 0)
        timed.append(TimedAccess(record.runs, is_write, timestamp_ms=now))
        now += float(
            arrivals.exponential(SMOKE_FAST_MS if fast else SMOKE_SLOW_MS)
        )
    return layout, Trace(timed, trace.meta)


def _traced_run(runner, config, technique_key: str):
    """Run one technique with a fresh tracer; return (result, events)."""
    from repro.experiments.techniques import ALL_TECHNIQUES
    from repro.obs.tracer import Tracer, tracing
    from repro.units import KB

    technique = ALL_TECHNIQUES[technique_key]
    tracer = Tracer()
    with tracing(tracer):
        result = runner.run(
            config,
            technique,
            hdc_bytes=SMOKE_HDC_KB * KB if technique.hdc else 0,
            open_loop=True,
        )
    return result, tracer.events


def _fence(text: str) -> List[str]:
    return ["```text", text, "```", ""]


def smoke_report(scale: float = 1.0, seed: int = SMOKE_SEED) -> str:
    """Render the fixed-seed smoke-sweep report as markdown."""
    from repro.config import ultrastar_36z15_config
    from repro.experiments.runner import TechniqueRunner
    from repro.experiments.techniques import ALL_TECHNIQUES

    layout, trace = smoke_workload(scale=scale, seed=seed)
    phases = detect_phases(
        trace.records, window_records=SMOKE_WINDOW, threshold=0.5
    )
    config = ultrastar_36z15_config(seed=seed)
    runner = TechniqueRunner(layout, trace)
    base_res, base_events = _traced_run(runner, config, SMOKE_BASE)
    new_res, new_events = _traced_run(runner, config, SMOKE_NEW)

    base_label = ALL_TECHNIQUES[SMOKE_BASE].label
    new_label = ALL_TECHNIQUES[SMOKE_NEW].label
    attribution = attribute_shift(base_res, new_res, base_label, new_label)

    bounds: List[Tuple[float, float]] = [
        (p.start_ms or 0.0, p.end_ms or 0.0) for p in phases
    ]
    base_breakdowns = phase_media_breakdown(base_events, bounds)
    new_breakdowns = phase_media_breakdown(new_events, bounds)

    lines = [
        "# perfkit report — smoke sweep",
        "",
        f"Two-phase open-loop replay of {len(trace.records)} records "
        f"(seed {seed}, scale {scale:g}): slow all-read arrivals, then "
        f"~{SMOKE_SLOW_MS / SMOKE_FAST_MS:g}x faster with writes mixed "
        f"in. Base technique `{base_label}`, comparison `{new_label}`.",
        "",
        "## Workload phases",
        "",
    ]
    lines += _fence(phase_table(phases))
    lines += ["## Technique comparison", ""]
    rows = [
        [
            label,
            res.mean_latency_ms,
            res.throughput_mb_s,
            f"{res.cache_hit_rate:.3f}",
            f"{res.hdc_hit_rate:.3f}",
        ]
        for label, res in ((base_label, base_res), (new_label, new_res))
    ]
    lines += _fence(
        format_table(
            ["technique", "mean_lat_ms", "mb_s", "cache_hit", "hdc_hit"],
            rows,
        )
    )
    lines += ["## Attribution ranking", ""]
    lines += _fence(attribution.to_text())
    lines += ["## Per-phase media attribution", ""]
    lines += _fence(
        phase_attribution_table(
            phases,
            base_breakdowns,
            new_breakdowns,
            base_label=base_label,
            new_label=new_label,
        )
    )
    return "\n".join(lines).rstrip() + "\n"


# -- series reports ----------------------------------------------------


def series_report(result) -> str:
    """Render a :class:`SeriesResult` as a markdown report page."""
    from repro.experiments.registry import EXPERIMENTS

    lines = [
        f"# perfkit report — {result.exp_id}",
        "",
        result.title,
        "",
        "## Series",
        "",
    ]
    lines += _fence(result.to_text())
    lines += ["## Sparklines", ""]
    rows = [[name, sparkline(result.get(name))] for name in result.series]
    lines += _fence(format_table(["series", "trajectory"], rows))
    experiment = EXPERIMENTS.get(result.exp_id)
    if experiment is not None and experiment.analysis is not None:
        lines += ["## Experiment analysis", ""]
        lines += _fence(experiment.analysis(result))
    return "\n".join(lines).rstrip() + "\n"


# -- HTML --------------------------------------------------------------


def markdown_to_html(markdown: str, title: str = "perfkit report") -> str:
    """Convert the subset of markdown the reports use to one HTML page.

    Headings, fenced code blocks and paragraphs only — no external
    renderer exists in the offline environment, and the reports need
    nothing more.
    """
    body: List[str] = []
    in_code = False
    for line in markdown.splitlines():
        if line.startswith("```"):
            body.append("</pre>" if in_code else "<pre>")
            in_code = not in_code
            continue
        if in_code:
            body.append(_html.escape(line))
            continue
        if line.startswith("#"):
            level = min(len(line) - len(line.lstrip("#")), 6)
            body.append(
                f"<h{level}>{_html.escape(line[level:].strip())}</h{level}>"
            )
        elif line.strip():
            body.append(f"<p>{_html.escape(line)}</p>")
    if in_code:  # unterminated fence: close it rather than leak <pre>
        body.append("</pre>")
    joined = "\n".join(body)
    return (
        "<!DOCTYPE html>\n<html><head><meta charset=\"utf-8\">"
        f"<title>{_html.escape(title)}</title>"
        "<style>body{font-family:monospace;margin:2em;max-width:72em}"
        "pre{background:#f4f4f4;padding:1em;overflow-x:auto}</style>"
        f"</head>\n<body>\n{joined}\n</body></html>\n"
    )
