"""Continuous performance analytics over runs (the ROADMAP flywheel).

``repro.perfkit`` is the layer every speedup and every new scenario
reports through:

* :mod:`repro.perfkit.phases` — streaming workload-phase detection
  over trace/record streams (change-point detection on windowed
  arrival-rate / mix / sequentiality signals; deterministic, constant
  memory);
* :mod:`repro.perfkit.attribute` — cross-run latency attribution:
  diff two runs' per-component costs
  (seek/rotation/transfer/overhead/queue/cache) and rank which
  component explains a latency or throughput shift, whole-run and
  per phase;
* :mod:`repro.perfkit.report` — single-page markdown (optionally
  HTML) reports: phase table, technique table, attribution ranking,
  per-series sparklines. ``python -m repro.perfkit`` is the CLI.

Wall-clock benchmarking lives outside the package, in ``perfbench/``.

Perfkit is a *consumer* of the obs/metrics surfaces and the
experiments registry; it never reaches into controller/disk/array
internals (layering rule 10 in ``tools/check_layering.py``).
"""

from repro.perfkit.attribute import (
    Attribution,
    AttributionReport,
    attribute_shift,
    components_ms,
)
from repro.perfkit.phases import Phase, PhaseDetector, detect_phases

__all__ = [
    "Phase",
    "PhaseDetector",
    "detect_phases",
    "Attribution",
    "AttributionReport",
    "components_ms",
    "attribute_shift",
]
