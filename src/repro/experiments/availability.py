"""Availability extension — throughput vs disk failure rate (RAID-1).

Not a paper figure: this driver exercises the deterministic fault
subsystem (:mod:`repro.faults`) end to end. The Table 1 array is run as
a 4-pair mirrored array (:class:`~repro.array.raid.MirroredArray`)
under the §6.2 synthetic workload while the whole-disk failure rate
sweeps from "never" (the fault-free baseline — the machinery stays
entirely detached) to an MTBF comparable to the run length, with
transient media errors and slow responses injected throughout.

Reported per x value: requested-data throughput, array availability
(fraction of disk-time all spindles were healthy), controller retry
count, and degraded reads served from the mirror redundancy. Expected
shape: throughput degrades gracefully as MTBF shrinks — reads fail over
to the surviving replica and rebuild streams consume media time — while
availability tracks ``1 - repair/(mtbf + repair)`` per disk.

Everything is keyed to the run seed: the same ``(scale, seed)`` cell
produces identical results under ``--jobs 1`` and ``--jobs N``.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.array.raid import MirroredArray
from repro.config import ultrastar_36z15_config
from repro.experiments.base import SeriesResult, log, scaled_count
from repro.faults.profile import FaultProfile, RetryPolicy
from repro.host.streams import ReplayDriver
from repro.host.system import System
from repro.metrics.collector import collect_run_result
from repro.units import KB
from repro.workloads.synthetic import SyntheticSpec, SyntheticWorkload

#: Mean time between whole-disk failures, per disk, in simulated
#: seconds; 0 disables fault injection entirely (baseline cell).
MTBF_S = (0.0, 4.0, 2.0, 1.0, 0.5)

#: Per-operation fault rates held constant across the sweep.
TRANSIENT_RATE = 0.002
SLOW_RATE = 0.002
SLOW_FACTOR = 4.0
REPAIR_MS = 150.0

#: Controller policy: retry up to 4 times with 1-2-4-8 ms backoff; any
#: media operation slower than 40 ms counts (and retries) as a timeout.
RETRY = RetryPolicy(command_timeout_ms=40.0)


def fault_profile_for(mtbf_s: float) -> Optional[FaultProfile]:
    """The sweep's profile at one x value (``None`` disables faults)."""
    if mtbf_s <= 0:
        return None
    return FaultProfile(
        name=f"avail-{mtbf_s:g}",
        transient_error_rate=TRANSIENT_RATE,
        slow_op_rate=SLOW_RATE,
        slow_factor=SLOW_FACTOR,
        mtbf_ms=mtbf_s * 1000.0,
        repair_ms=REPAIR_MS,
        rebuild_span_blocks=1024,
        rebuild_chunk_blocks=64,
    )


def run(
    scale: float = 1.0,
    seed: int = 1,
    mtbf_s: Sequence[float] = MTBF_S,
    verbose: bool = False,
) -> SeriesResult:
    """Sweep the disk failure rate over the mirrored array."""
    n_requests = scaled_count(6_000, scale, minimum=150)
    result = SeriesResult(
        exp_id="availability",
        title="Throughput and availability vs disk failure rate (RAID-1)",
        x_label="mtbf_s",
        x_values=list(mtbf_s),
    )
    base = ultrastar_36z15_config(seed=seed)
    spec = SyntheticSpec(
        n_requests=n_requests,
        n_files=2_048,
        file_size_bytes=32 * KB,
        # The mirror's logical space covers half the spindles.
        total_blocks=base.disk_blocks * (base.array.n_disks // 2),
        seed=seed,
    )
    layout, trace = SyntheticWorkload(spec).build()
    for mtbf in mtbf_s:
        profile = fault_profile_for(mtbf)
        config = base.with_(faults=profile, retry=RETRY)
        system = System(config)
        mirror = MirroredArray(system.array, faults=system.faults)
        driver = ReplayDriver(
            system, trace, array=mirror, striping=mirror.striping
        )
        elapsed = driver.run()
        res = collect_run_result(system, driver, elapsed)
        faults = res.faults
        result.add_point("MB/s", res.throughput_mb_s)
        result.add_point("availability", faults.availability if faults else 1.0)
        result.add_point("retries", faults.media_retries if faults else 0)
        result.add_point("degraded", faults.degraded_reads if faults else 0)
        result.add_point("failed_cmds", faults.failed_commands if faults else 0)
        log(
            verbose,
            f"availability mtbf={mtbf:g}s: {res.throughput_mb_s:.1f} MB/s, "
            f"avail={faults.availability if faults else 1.0:.4f}, "
            f"retries={faults.media_retries if faults else 0}, "
            f"degraded={faults.degraded_reads if faults else 0}",
        )
    return result
