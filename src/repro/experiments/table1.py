"""Table 1 — main simulation parameters and their default values."""

from __future__ import annotations

from repro.config import ultrastar_36z15_config, ReadAheadKind
from repro.experiments.base import SeriesResult


def run(scale: float = 1.0, seed: int = 1) -> SeriesResult:
    """Render the default configuration as Table 1 rows."""
    config = ultrastar_36z15_config(readahead=ReadAheadKind.FILE_ORIENTED, seed=seed)
    result = SeriesResult(
        exp_id="table1",
        title="Main parameters and their default values",
        x_label="parameter",
        x_values=config.describe().splitlines(),
    )
    result.notes.append(
        "rendered by SimConfig.describe(); bitmap row shows FOR's 546-KB overhead"
    )
    return result
