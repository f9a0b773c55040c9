"""Command-line entry point: ``repro-exp <experiment> [options]``.

Also reachable as ``python -m repro <experiment>``. With ``all``, every
experiment runs in sequence (slow at full scale; pass ``--scale``).
Every run prints through one path, whatever the flags: the series
table, then the experiment's analysis section when its
:data:`~repro.experiments.registry.EXPERIMENTS` entry has one (knee
tables for ``scale_sweep``/``hybrid_array``, a technique ranking for
``trace_replay``). ``--chart`` appends an ASCII rendering of the
series, so curve shapes can be eyeballed without a plotting stack.
``--report PATH`` writes a :func:`repro.perfkit.report.series_report`
markdown page for the run — series table, sparklines and the same
analysis section.

Parallel sweeps: ``--jobs N`` fans the experiment's independent cells
over N worker processes and ``--cache-dir``/``--no-cache`` control the
content-addressed result cache (default ``.repro_cache``; cells whose
inputs and code are unchanged are served from disk). The merged output
is byte-identical to the serial run; per-cell wall times and cache
hit/miss counters go to stderr.

Fault injection: ``--faults <profile>`` installs a named
:mod:`repro.faults` profile (``none``, ``light``, ``flaky``,
``heavy``) for the run — every :class:`~repro.host.system.System` the
experiment builds picks it up and injects the profile's deterministic,
seed-keyed fault schedule. The profile name joins the result-cache key
for parallel runs, so faulted and fault-free results never collide;
``--faults none`` (and omitting the flag) keeps the machinery entirely
detached and the output byte-identical to a build without the
subsystem.

Tracing: ``--trace`` records the run's request lifecycle with
:class:`repro.obs.tracer.Tracer` and exports it on exit —
Chrome-trace JSON by default (load in Perfetto / ``chrome://tracing``),
or JSONL when ``--trace-out`` ends in ``.jsonl``. ``--trace-limit N``
caps the event count. The experiment tables on stdout stay
byte-identical to an untraced run; the trace summary and per-disk
time-in-state table go to stderr. Tracing forces a serial in-process
run (worker processes would record into their own tracers), so
``--jobs`` is ignored with a warning.
"""

from __future__ import annotations

import argparse
import inspect
import sys
from contextlib import nullcontext
from typing import Optional, Sequence

from repro.experiments.base import SeriesResult
from repro.experiments.registry import EXPERIMENTS
from repro.faults.profile import PROFILES, fault_profile, get_profile

#: Default on-disk location of the result cache for parallel runs.
DEFAULT_CACHE_DIR = ".repro_cache"

EXAMPLES = """\
example: repro-exp fig03 --scale 0.2 --chart
example: repro-exp fig07 --jobs 4          # parallel + cached
example: repro-exp fig07 --jobs 4 --no-cache
example: repro-exp availability --faults heavy --scale 0.2
example: repro-exp fig07 --scale 0.05 --trace   # fig07.trace.json
example: repro-exp scale_sweep --scale 0.02 --report sweep.md"""


def build_parser() -> argparse.ArgumentParser:
    """The experiment CLI's argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro-exp",
        description="Run one (or all) of the paper's experiments.",
        epilog=f"experiments: {' '.join(sorted(EXPERIMENTS))} all\n{EXAMPLES}",
        formatter_class=argparse.RawDescriptionHelpFormatter,
        allow_abbrev=False,
    )
    parser.add_argument("experiment", nargs="?", help="experiment id, or all")
    parser.add_argument(
        "--scale", type=float, metavar="X", help="workload scale factor"
    )
    parser.add_argument(
        "--chart", action="store_true", help="append an ASCII chart"
    )
    parser.add_argument(
        "--jobs", type=int, metavar="N", help="parallel worker processes"
    )
    parser.add_argument(
        "--cache-dir",
        metavar="DIR",
        help=f"result cache directory (default {DEFAULT_CACHE_DIR})",
    )
    parser.add_argument(
        "--no-cache", action="store_true", help="run without the result cache"
    )
    parser.add_argument(
        "--faults",
        choices=list(PROFILES),
        metavar="PROFILE",
        help=f"fault profile: {' '.join(PROFILES)}",
    )
    parser.add_argument(
        "--report", metavar="PATH", help="write a perfkit markdown report"
    )
    parser.add_argument(
        "--trace", action="store_true", help="record and export a trace"
    )
    parser.add_argument(
        "--trace-out", metavar="PATH", help="trace file (implies --trace)"
    )
    parser.add_argument(
        "--trace-limit",
        type=int,
        metavar="N",
        help="cap the traced event count (implies --trace)",
    )
    return parser


def _run_serial(name: str, opts: argparse.Namespace) -> SeriesResult:
    """Call the driver's ``run()`` in-process."""
    run = EXPERIMENTS[name].run
    kwargs: dict = {} if opts.scale is None else {"scale": opts.scale}
    if "verbose" in inspect.signature(run).parameters:
        kwargs["verbose"] = True  # progress lines on stderr
    ctx = nullcontext() if opts.faults is None else fault_profile(
        get_profile(opts.faults)
    )
    with ctx:
        return run(**kwargs)


def _print_chart(result: SeriesResult) -> None:
    from repro.errors import ReproError
    from repro.metrics.ascii_chart import render_series_result

    try:
        print()
        print(render_series_result(result))
    except ReproError as exc:
        print(f"(no chart: {exc})")


def _write_report(result: SeriesResult, path: str) -> None:
    """Render the result as a perfkit markdown report at ``path``."""
    from pathlib import Path

    from repro.perfkit.report import series_report

    Path(path).write_text(series_report(result), encoding="utf-8")
    print(f"report -> {path}", file=sys.stderr)


def _export_trace(tracer, name: str, opts: argparse.Namespace) -> None:
    """Write the recorded trace and a stderr summary."""
    from repro.metrics.report import format_time_in_state
    from repro.obs.export import write_chrome_trace, write_jsonl
    from repro.obs.timeline import spans_time_in_state

    path = opts.trace_out or f"{name}.trace.json"
    if str(path).endswith(".jsonl"):
        write_jsonl(tracer, path)
    else:
        write_chrome_trace(tracer, path)
    dropped = f" ({tracer.dropped} dropped at --trace-limit)" if tracer.dropped else ""
    print(
        f"trace: {len(tracer.events)} events over {len(tracer.runs)} run(s)"
        f"{dropped} -> {path}",
        file=sys.stderr,
    )
    states = spans_time_in_state(tracer.events)
    if states:
        disks = sorted(states, key=lambda t: int(t[4:]) if t[4:].isdigit() else 0)
        print("media time-in-state (ms, all runs):", file=sys.stderr)
        print(format_time_in_state([states[d] for d in disks]), file=sys.stderr)


def _run(name: str, opts: argparse.Namespace) -> None:
    """Run one experiment and print it: one path for every flag mix."""
    parallel = (
        opts.jobs is not None or opts.cache_dir is not None or opts.no_cache
    )
    tracer = None
    ctx = nullcontext()
    if opts.trace:
        from repro.obs.tracer import Tracer, tracing

        if parallel:
            print(
                "--trace records in-process; ignoring --jobs/--cache-dir "
                "and running serially",
                file=sys.stderr,
            )
            parallel = False
        tracer = Tracer(limit=opts.trace_limit)
        ctx = tracing(tracer)
    metrics = None
    with ctx:
        if parallel:
            from repro.experiments.parallel import sweep_experiment

            cache_dir = None
            if not opts.no_cache:
                cache_dir = opts.cache_dir or DEFAULT_CACHE_DIR
            # Workers resolve and install the fault profile by name.
            result, metrics = sweep_experiment(
                name,
                scale=opts.scale,
                jobs=opts.jobs or 1,
                cache_dir=cache_dir,
                faults=opts.faults,
            )
        else:
            result = _run_serial(name, opts)
    print(result.to_text())
    analysis = EXPERIMENTS[name].analysis
    if analysis is not None:
        print()
        print(analysis(result))
    if opts.chart:
        _print_chart(result)
    if opts.report is not None:
        _write_report(result, opts.report)
    if metrics is not None:
        print(metrics.to_text(), file=sys.stderr)
    if tracer is not None:
        _export_trace(tracer, name, opts)


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Dispatch to one (or all) experiment drivers."""
    parser = build_parser()
    try:
        opts = parser.parse_args(argv)
        name = opts.experiment
        if name is not None and name != "all" and name not in EXPERIMENTS:
            parser.error(f"unknown experiment {name!r}")
        if opts.jobs is not None and opts.jobs < 1:
            parser.error(f"--jobs must be >= 1, got {opts.jobs}")
    except SystemExit as exc:  # argparse exits 2 on errors, 0 on --help
        return int(exc.code or 0)
    if name is None:
        parser.print_help()
        return 0
    # Pointing at an output file or capping events implies tracing.
    opts.trace = opts.trace or opts.trace_out is not None or (
        opts.trace_limit is not None
    )
    if name == "all":
        for exp_name in sorted(EXPERIMENTS):
            _run(exp_name, opts)
            print()
        return 0
    _run(name, opts)
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
