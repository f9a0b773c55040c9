#!/usr/bin/env python3
"""The repository's benchmark: four workloads, one command.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --check

``--trace 0`` measures the end-to-end metrics with no instrumentation;
``--trace 1`` is the separate traced run that reports the per-layer
metrics. ``--check`` runs the output checks: committed outcomes and
figure cells at the default seed, invariants on a held-out seed, and
the fidelity line. Every mode checks the program's outputs; the last
line of standard output is one JSON object (``correct``, ``attempted``,
``failed``, ``metrics``). README.md in this directory documents the
workloads and metrics.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("web_for_hdc", "fileserver_writes", "population_open", "service_mixed")


def _parse(argv):
    parser = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--check", action="store_true", help="run the output checks on every workload"
    )
    args = parser.parse_args(argv)
    if not args.check and args.workload is None:
        parser.error("--workload is required unless --check is given")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = _parse(argv)
    package = ROOT / "src" / "repro" / "__init__.py"
    if not package.is_file():
        print(f"perfbench: the program's source is missing ({package})", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    # Every import happens here, before any clock starts: interpreter
    # start-up and imports are not part of setup_s.
    import checks
    import simload
    import svcload

    if args.check:
        return checks.run_all()
    if args.workload == "service_mixed":
        return svcload.main(args.seed, args.seconds, bool(args.trace))
    return simload.main(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
