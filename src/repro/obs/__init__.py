"""Observability layer: request-lifecycle tracing + lightweight metrics.

The simulator's components emit structured events — per-request
lifecycle spans (host issue → controller queue → media seek/rotation/
transfer → bus transfer → completion) and cache/HDC instants — through
a :class:`~repro.obs.tracer.Tracer`. Tracing is off by default: every
hot-path emit site is guarded by ``tracer.enabled``, and the default
tracer is the shared :data:`~repro.obs.tracer.NULL_TRACER`, so a
disabled run records nothing and allocates nothing.

Layout:

* :mod:`repro.obs.tracer` — the event recorder + the active-tracer
  registry (:func:`install_tracer` / :func:`active_tracer`);
* :mod:`repro.obs.metrics` — the fixed-bucket latency histogram
  (p50/p95/p99 without retaining raw samples) and the exact
  nearest-rank percentile;
* :mod:`repro.obs.export` — JSONL and Chrome trace-event exporters
  (the latter loads in Perfetto / ``chrome://tracing``);
* :mod:`repro.obs.timeline` — per-disk time-in-state breakdowns
  (seek / rotation / transfer / idle) derived from spans or from the
  always-on drive counters;
* :mod:`repro.obs.validate` — schema checks for exported Chrome
  traces (``python -m repro.obs.validate trace.json``).
"""

from repro.obs.metrics import LATENCY_BUCKETS_MS, Histogram, nearest_rank
from repro.obs.tracer import (
    NULL_TRACER,
    NullTracer,
    Tracer,
    active_tracer,
    install_tracer,
    tracing,
    uninstall_tracer,
)
from repro.obs.export import (
    chrome_trace_dict,
    write_chrome_trace,
    write_jsonl,
)
from repro.obs.timeline import (
    MEDIA_STATES,
    drive_time_in_state,
    spans_time_in_state,
)

__all__ = [
    "Histogram",
    "LATENCY_BUCKETS_MS",
    "nearest_rank",
    "Tracer",
    "NullTracer",
    "NULL_TRACER",
    "active_tracer",
    "install_tracer",
    "uninstall_tracer",
    "tracing",
    "chrome_trace_dict",
    "write_chrome_trace",
    "write_jsonl",
    "MEDIA_STATES",
    "drive_time_in_state",
    "spans_time_in_state",
]
