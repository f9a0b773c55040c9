"""§6.1 validation — simulated vs analytic micro-benchmark times.

The paper validated against a physical Ultrastar 36Z15 (within 8% for
reads, 3% for writes). Our substitute compares the full event-driven
stack against the closed-form expectation for the same random
small-file micro-benchmarks; see
:mod:`repro.analysis.validation` for the rationale.
"""

from __future__ import annotations

from repro.analysis.validation import run_read_validation, run_write_validation
from repro.experiments.base import SeriesResult, scaled_count


def run(scale: float = 1.0, seed: int = 1) -> SeriesResult:
    """Run both micro-benchmarks; report times and error fractions."""
    n = scaled_count(400, scale, minimum=50)
    read = run_read_validation(n_requests=n, seed=seed + 3)
    write = run_write_validation(n_requests=n, seed=seed + 4)
    result = SeriesResult(
        exp_id="validation",
        title="Simulator validation: micro-benchmarks vs analytic model",
        x_label="benchmark",
        x_values=[read.name, write.name],
    )
    for v in (read, write):
        result.add_point("simulated_ms", v.simulated_ms)
        result.add_point("analytic_ms", v.analytic_ms)
        result.add_point("error_frac", v.error_fraction)
    result.notes.append("paper's hardware validation: reads within 8%, writes 3%")
    return result
