"""Serve the simulated array as a live TCP block service.

The simulator's other entry points run a workload to completion and
report afterwards; this package keeps the array *online*. An asyncio
server speaks a small length-prefixed JSON protocol (READ / WRITE /
PIN / STATS), translates requests into host-layer commands against a
:class:`~repro.host.system.System` (optionally mirrored), and paces
the event engine against the wall clock with
:meth:`~repro.sim.engine.Simulator.run_realtime` — so a client's
observed latencies are the simulated array's latencies, unfolding in
real (or ``accel``-scaled) time.

Multi-tenant QoS lives at admission: per-tenant FIFO queues, token
buckets metered in simulated time, and a bounded in-flight depth;
overflow is shed with BUSY instead of buffered without bound.

Quick start::

    python -m repro.service.server --accel 100 --raid raid1
    python -m repro.service.client --port <P> --tenants alice,bob
"""

from typing import Any

from repro.service.protocol import (
    ProtocolError,
    Request,
    Response,
    STATUS_BUSY,
    STATUS_ERROR,
    STATUS_OK,
)
from repro.service.qos import QoSPolicy, TenantQueue, TokenBucket

# server/client are imported lazily: ``python -m repro.service.server``
# runs this __init__ first, and an eager import of the very module runpy
# is about to execute would trigger its double-import warning.
_LAZY = {
    "BlockService": ("repro.service.server", "BlockService"),
    "ServiceConfig": ("repro.service.server", "ServiceConfig"),
    "ServiceClient": ("repro.service.client", "ServiceClient"),
    "run_load": ("repro.service.client", "run_load"),
}


def __getattr__(name: str) -> Any:
    target = _LAZY.get(name)
    if target is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    return getattr(import_module(target[0]), target[1])


__all__ = [
    "BlockService",
    "ProtocolError",
    "QoSPolicy",
    "Request",
    "Response",
    "STATUS_BUSY",
    "STATUS_ERROR",
    "STATUS_OK",
    "ServiceClient",
    "ServiceConfig",
    "TenantQueue",
    "TokenBucket",
    "run_load",
]
