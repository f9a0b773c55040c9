"""service_demo: the live block service under a mixed multi-tenant burst.

Every other experiment runs the simulator to completion and reads the
collector afterwards. This one exercises the PR's serving path end to
end, in process: a :class:`~repro.service.server.BlockService` is
started on an ephemeral port (RAID-1, engine free-running at
``accel=inf``), the bundled load client drives one closed-loop
read/write burst per tenant — deliberately wider than the per-tenant
QoS envelope, so BUSY shedding is visible — and the per-tenant
server-measured latency percentiles become the result table.

Unlike the figure experiments, the numbers here depend on arrival
interleaving between the asyncio thread and the engine thread, so this
experiment is *not* golden-diffed and registers as an indivisible cell
(no sweep axis in the experiment table): it demonstrates and
smoke-checks the serving stack rather than reproducing a paper figure.
"""

from __future__ import annotations

import asyncio
from math import inf
from typing import Sequence

from repro.experiments.base import SeriesResult, log, scaled_count
from repro.service.client import run_load
from repro.service.qos import QoSPolicy
from repro.service.server import BlockService, ServiceConfig

#: Tenants driving concurrent bursts (the x axis).
TENANTS = ("alice", "bob", "carol")
#: Requests per tenant at scale 1.0.
BASE_REQUESTS = 150
#: Blocks per request.
BLOCKS = 8
#: Fraction of writes in each tenant's mix.
WRITE_FRAC = 0.25
#: Per-tenant QoS envelope: in-flight bound + service-layer queue.
POLICY = QoSPolicy(max_inflight=4, max_queue=8)
#: Client window per tenant — wider than the envelope, to force BUSY.
WINDOW = 24
#: Blocks each tenant pins before its burst (exercises PIN).
PIN_BLOCKS = 16


async def _drive(
    tenants: Sequence[str], requests: int, seed: int
) -> dict:
    service = BlockService(
        ServiceConfig(
            accel=inf,
            raid="raid1",
            default_policy=POLICY,
        )
    )
    async with service:
        sock = service._server.sockets[0]
        host, port = sock.getsockname()[:2]
        return await run_load(
            host,
            port,
            list(tenants),
            requests=requests,
            blocks=BLOCKS,
            write_frac=WRITE_FRAC,
            window=WINDOW,
            seed=seed,
            pin_blocks=PIN_BLOCKS,
            retries=2,
        )


def run(
    scale: float = 1.0,
    seed: int = 1,
    tenants: Sequence[str] = TENANTS,
    verbose: bool = False,
) -> SeriesResult:
    """One mixed burst per tenant against a live RAID-1 service."""
    requests = scaled_count(BASE_REQUESTS, scale, minimum=20)
    outcome = asyncio.run(_drive(tenants, requests, seed))
    result = SeriesResult(
        exp_id="service_demo",
        title=f"Live block service, {len(tenants)} tenants x "
        f"{requests} requests (raid1, window {WINDOW} vs "
        f"envelope {POLICY.max_inflight}+{POLICY.max_queue})",
        x_label="tenant",
        x_values=list(tenants),
    )
    for tenant in tenants:
        r = outcome["tenants"][tenant]
        result.add_point("ok", r["ok"])
        result.add_point("busy", r["busy"])
        result.add_point("errors", r["errors"])
        result.add_point("p50_ms", r["p50_ms"])
        result.add_point("p95_ms", r["p95_ms"])
        result.add_point("p99_ms", r["p99_ms"])
        log(
            verbose,
            f"service_demo {tenant}: ok={r['ok']} busy={r['busy']} "
            f"p50={r['p50_ms']:.2f}ms p99={r['p99_ms']:.2f}ms",
        )
    result.notes.append(
        "latencies are server-measured simulated ms; BUSY counts are "
        "admission-control shedding, not errors (timing-dependent — "
        "this experiment is never golden-diffed)"
    )
    return result
