"""Experiment outputs stay byte-identical to the committed goldens.

Runs the experiment CLI in-process, exactly as ``python -m repro <args>``
would, and compares its stdout with ``tests/golden/``. Only the cheap
goldens run here (a few seconds in all); the two ``table2_s0.05``
goldens cost tens of seconds each and are diffed by CI's
``refactor-identity`` job.
"""

from pathlib import Path

import pytest

from repro.experiments.cli import main as cli_main

GOLDEN = Path(__file__).parent / "golden"


@pytest.mark.parametrize(
    ("golden", "argv"),
    [
        ("fig03_s0.05.txt", ["fig03", "--scale", "0.05"]),
        ("fig03_s0.05_flaky.txt", ["fig03", "--scale", "0.05", "--faults", "flaky"]),
        ("availability_s0.1.txt", ["availability", "--scale", "0.1"]),
        (
            "availability_s0.1_heavy.txt",
            ["availability", "--scale", "0.1", "--faults", "heavy"],
        ),
    ],
)
def test_experiment_output_matches_golden(golden, argv, capsys):
    assert cli_main(argv) == 0
    out = capsys.readouterr().out
    assert out == (GOLDEN / golden).read_text(encoding="utf-8")
