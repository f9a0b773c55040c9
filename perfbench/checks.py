"""Output checks: committed outcomes, figure cells, held-out seed, fidelity.

A measuring run at :data:`DEFAULT_SEED` compares each simulator
workload's deterministic outcome with ``expected.json``. ``--check``
(:func:`run_all`) also replays every simulator workload once on
:data:`HELD_OUT_SEED`, which was not used while the benchmark was
built, asserting the invariants there; compares ``web_for_hdc`` and
``fileserver_writes`` with their cells in ``full_results.txt``; prints
the fidelity line against the paper's Fig. 7; and runs a short
``service_mixed`` ladder.
"""

from __future__ import annotations

import json
import re
from pathlib import Path
from typing import List, Optional

from common import emit, note, report_errors

HERE = Path(__file__).resolve().parent
EXPECTED = HERE / "expected.json"
FULL_RESULTS = HERE.parent / "full_results.txt"

#: The experiments' seed; the committed outcomes are for this seed.
DEFAULT_SEED = 1
#: A seed kept out of every run made while the benchmark was tuned.
HELD_OUT_SEED = 8117

#: (figure, column) whose 16 KB cell each workload reproduces at seed 1.
FIGURE_CELLS = {
    "web_for_hdc": ("fig07", "FOR+HDC"),
    "fileserver_writes": ("fig11", "Segm"),
}
#: Window of the ``service_mixed`` run in ``--check``.
SERVICE_CHECK_SECONDS = 8.0
#: The paper's Fig. 7 reduction in I/O time of FOR+HDC against Segm (§6.3).
PAPER_FIG7_REDUCTION = 0.47


def committed_errors(name: str, result) -> List[str]:
    """Mismatches between a seed-1 replay and the committed outcome."""
    import simload

    expected = json.loads(EXPECTED.read_text())["outcomes"].get(name)
    if expected is None:
        return [f"{name}: no committed outcome in {EXPECTED.name}"]
    got = simload.outcome(result)
    return [
        f"{name}: {key} is {got[key]!r}, committed {value!r}"
        for key, value in expected.items()
        if got.get(key) != value
    ]


def figure_cell(figure: str, column: str, unit_kb: int) -> Optional[float]:
    """One cell of a striping-unit table in ``full_results.txt``."""
    if not FULL_RESULTS.is_file():
        return None
    lines = FULL_RESULTS.read_text().splitlines()
    try:
        start = lines.index(f"### {figure}")
    except ValueError:
        return None
    header = lines[start + 2].split()
    for line in lines[start + 4:]:
        cells = line.split()
        if not cells or not re.fullmatch(r"\d+", cells[0]):
            break
        if int(cells[0]) == unit_kb:
            return float(cells[header.index(column)])
    return None


def figure_errors(name: str, result) -> List[str]:
    """The replay's I/O time against its figure cell (3 decimals)."""
    import simload

    figure, column = FIGURE_CELLS[name]
    cell = figure_cell(figure, column, simload.UNIT_KB)
    if cell is None:
        return [f"{name}: {figure} {column} {simload.UNIT_KB} KB cell not found"]
    got = round(result.io_time_s, 3)
    note(f"{name}: sim_io_s {got:.3f} s, {figure} {column} {simload.UNIT_KB} KB cell {cell:.3f} s")
    if got != cell:
        return [f"{name}: sim_io_s {got:.3f} differs from {figure}'s {cell:.3f}"]
    return []


def fidelity_line(prepared, for_hdc_result) -> None:
    """FOR+HDC's reduction of simulated I/O time against Segm (untimed)."""
    import simload
    from repro.experiments.techniques import SEGM

    segm = prepared.runner.run(prepared.config, SEGM, keep_raw_latencies=False)
    model = 1.0 - for_hdc_result.io_time_ms / segm.io_time_ms
    note(
        f"fidelity: FOR+HDC cuts simulated I/O time by {100 * model:.1f}% "
        f"against Segm ({for_hdc_result.io_time_s:.3f} s vs {segm.io_time_s:.3f} s, "
        f"{simload.UNIT_KB} KB unit); paper Fig. 7: about "
        f"{100 * PAPER_FIG7_REDUCTION:.0f}%; model error "
        f"{100 * (model - PAPER_FIG7_REDUCTION):+.1f} points (informational, not gated)"
    )


def run_all() -> int:
    """Every output check, on every workload; exit status 0 when all pass."""
    import simload
    import svcload

    errors: List[str] = []
    attempted = completed = 0
    for name, spec in simload.SPECS.items():
        for seed in (DEFAULT_SEED, HELD_OUT_SEED):
            prepared = simload.set_up(spec, seed)
            result = simload.replay(prepared)
            attempted += prepared.n_records
            completed += result.records
            found = simload.outcome_errors(prepared, result)
            if seed == DEFAULT_SEED:
                found += committed_errors(name, result)
                if name in FIGURE_CELLS:
                    found += figure_errors(name, result)
                if name == "web_for_hdc":
                    fidelity_line(prepared, result)
            note(
                f"{name} seed {seed}: {'ok' if not found else 'FAILED'} "
                f"{simload.outcome(result)}"
            )
            errors += found
    service = svcload.measure(DEFAULT_SEED, SERVICE_CHECK_SECONDS)
    attempted += service.sent
    completed += service.sent - service.failed
    errors += service.errors
    note(f"service_mixed seed {DEFAULT_SEED}: {'ok' if not service.errors else 'FAILED'}")
    report_errors(errors)
    note(f"checks: {'all passed' if not errors else f'{len(errors)} failed'}")
    emit(not errors, attempted, attempted - completed, {})
    return 0 if not errors else 1
