"""Command-line entry point: ``repro-exp <experiment> [options]``.

Also reachable as ``python -m repro <experiment>``. With ``all``, every
experiment runs in sequence (slow at full scale; pass ``--scale``).
``--chart`` appends an ASCII rendering of the series, so curve shapes
can be eyeballed without a plotting stack. ``--report PATH`` writes a
:func:`repro.perfkit.report.series_report` markdown page for the run —
series table, sparklines, and the experiment's analysis section (knee
tables for ``scale_sweep``/``hybrid_array``) — alongside the normal
stdout tables.

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

import sys
from typing import Callable, Dict, Optional, Sequence

from repro.experiments.registry import EXPERIMENTS, RUNNERS

#: Default on-disk location of the result cache for parallel runs.
DEFAULT_CACHE_DIR = ".repro_cache"


def usage() -> str:
    """The help text."""
    names = " ".join(sorted(EXPERIMENTS))
    return (
        "usage: repro-exp <experiment> [--scale X] [--chart]\n"
        "                 [--jobs N] [--cache-dir DIR] [--no-cache]\n"
        "                 [--faults PROFILE] [--report PATH]\n"
        "                 [--trace] [--trace-out PATH] [--trace-limit N]\n"
        f"experiments: {names} all\n"
        "fault profiles: none light flaky heavy\n"
        "example: repro-exp fig03 --scale 0.2 --chart\n"
        "example: repro-exp fig07 --jobs 4          # parallel + cached\n"
        "example: repro-exp fig07 --jobs 4 --no-cache\n"
        "example: repro-exp availability --faults heavy --scale 0.2\n"
        "example: repro-exp fig07 --scale 0.05 --trace   # fig07.trace.json\n"
        "example: repro-exp scale_sweep --scale 0.02 --report sweep.md"
    )


def _parse_options(rest: Sequence[str]) -> Dict[str, object]:
    """Extract the sweep options from a raw argv tail.

    Raises ``ValueError`` when a numeric flag has no value or a value
    that does not parse.
    """
    args = list(rest)
    opts: Dict[str, object] = {
        "scale": None,
        "jobs": None,
        "cache_dir": None,
        "no_cache": False,
        "chart": "--chart" in args,
        "trace": "--trace" in args,
        "trace_out": None,
        "trace_limit": None,
        "faults": None,
        "report": None,
    }

    def value_of(flag: str) -> Optional[str]:
        if flag in args:
            idx = args.index(flag)
            if idx + 1 < len(args):
                return args[idx + 1]
        return None

    def number_of(flag: str, cast: Callable[[str], object]) -> object:
        if flag not in args:
            return None
        try:
            return cast(args[args.index(flag) + 1])
        except (IndexError, ValueError):
            raise ValueError(f"{flag} needs a numeric value") from None

    opts["scale"] = number_of("--scale", float)
    opts["jobs"] = number_of("--jobs", int)
    opts["trace_limit"] = number_of("--trace-limit", int)
    opts["cache_dir"] = value_of("--cache-dir")
    opts["no_cache"] = "--no-cache" in args
    opts["trace_out"] = value_of("--trace-out")
    opts["faults"] = value_of("--faults")
    opts["report"] = value_of("--report")
    # Pointing at an output file or capping events implies tracing.
    if opts["trace_out"] is not None or opts["trace_limit"] is not None:
        opts["trace"] = True
    return opts


def _strip_cli_flags(rest: Sequence[str]) -> list:
    """Remove CLI-level options before an experiment's main sees argv."""
    out = []
    skip = False
    for arg in rest:
        if skip:
            skip = False
            continue
        if arg == "--trace":
            continue
        if arg in ("--trace-out", "--trace-limit", "--faults", "--report"):
            skip = True
            continue
        out.append(arg)
    return out


def _wants_parallel(opts: Dict[str, object]) -> bool:
    return (
        opts["jobs"] is not None
        or opts["cache_dir"] is not None
        or opts["no_cache"]
    )


def _write_report(result, path) -> None:
    """Render the result as a perfkit markdown report at ``path``."""
    from pathlib import Path

    from repro.perfkit.report import series_report

    Path(path).write_text(series_report(result), encoding="utf-8")
    print(f"report -> {path}", file=sys.stderr)


def _print_chart(result) -> None:
    from repro.errors import ReproError
    from repro.metrics.ascii_chart import render_series_result

    try:
        print()
        print(render_series_result(result))
    except ReproError as exc:
        print(f"(no chart: {exc})")


def _run_parallel(name: str, opts: Dict[str, object]) -> None:
    """Run one experiment through the parallel sweep runner."""
    from repro.experiments.parallel import sweep_experiment

    cache_dir = None
    if not opts["no_cache"]:
        cache_dir = opts["cache_dir"] or DEFAULT_CACHE_DIR
    result, metrics = sweep_experiment(
        name,
        scale=opts["scale"],
        jobs=opts["jobs"] or 1,
        cache_dir=cache_dir,
        faults=opts["faults"],
    )
    print(result.to_text())
    if opts["chart"]:
        _print_chart(result)
    if opts["report"] is not None:
        _write_report(result, opts["report"])
    print(metrics.to_text(), file=sys.stderr)


def _run_with_result(name: str, opts: Dict[str, object]) -> None:
    runner = RUNNERS[name]
    kwargs = {}
    if opts["scale"] is not None:
        kwargs["scale"] = opts["scale"]
    result = runner(**kwargs)
    print(result.to_text())
    if opts["chart"]:
        _print_chart(result)
    if opts["report"] is not None:
        _write_report(result, opts["report"])


def _dispatch(name: str, rest: Sequence[str], opts: Dict[str, object]) -> None:
    if _wants_parallel(opts):
        # Workers resolve and install the profile by name themselves.
        _run_parallel(name, opts)
        return
    from contextlib import nullcontext

    ctx = nullcontext()
    if opts["faults"] is not None:
        from repro.faults.profile import fault_profile, get_profile

        ctx = fault_profile(get_profile(opts["faults"]))
    with ctx:
        if opts["chart"] or opts["report"] is not None:
            _run_with_result(name, opts)
        else:
            EXPERIMENTS[name](_strip_cli_flags(rest))


def _export_trace(tracer, name: str, opts: Dict[str, object]) -> None:
    """Write the recorded trace and a stderr summary."""
    from repro.metrics.report import format_time_in_state
    from repro.obs.export import write_chrome_trace, write_jsonl
    from repro.obs.timeline import spans_time_in_state

    path = opts["trace_out"] or f"{name}.trace.json"
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


def _dispatch_traced(name: str, rest: Sequence[str], opts: Dict[str, object]) -> None:
    """Serial dispatch with a recording tracer installed for the run."""
    from repro.obs.tracer import Tracer, tracing

    if _wants_parallel(opts):
        print(
            "--trace records in-process; ignoring --jobs/--cache-dir "
            "and running serially",
            file=sys.stderr,
        )
    tracer = Tracer(limit=opts["trace_limit"])
    serial_opts = dict(opts, jobs=None, cache_dir=None, no_cache=False)
    with tracing(tracer):
        _dispatch(name, _strip_cli_flags(rest), serial_opts)
    _export_trace(tracer, name, opts)


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Dispatch to one (or all) experiment drivers."""
    args = list(sys.argv[1:] if argv is None else argv)
    if not args or args[0] in ("-h", "--help"):
        print(usage())
        return 0
    name = args[0]
    rest = args[1:]
    try:
        opts = _parse_options(rest)
    except ValueError as exc:
        print(f"{exc}\n{usage()}", file=sys.stderr)
        return 2
    if opts["jobs"] is not None and opts["jobs"] < 1:
        print(f"--jobs must be >= 1, got {opts['jobs']}", file=sys.stderr)
        return 2
    if opts["faults"] is not None:
        from repro.errors import ConfigError
        from repro.faults.profile import get_profile

        try:
            get_profile(opts["faults"])
        except ConfigError as exc:
            print(str(exc), file=sys.stderr)
            return 2
    dispatch = _dispatch_traced if opts["trace"] else _dispatch
    if name == "all":
        for exp_name in sorted(EXPERIMENTS):
            dispatch(exp_name, rest, opts)
            print()
        return 0
    if name not in EXPERIMENTS:
        print(f"unknown experiment {name!r}\n{usage()}", file=sys.stderr)
        return 2
    dispatch(name, rest, opts)
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
