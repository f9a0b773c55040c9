"""The block service: an asyncio TCP façade over the simulated array.

Two threads, one seam. The **engine thread** runs the discrete-event
simulator in real-time pacing mode
(:meth:`~repro.sim.engine.Simulator.run_realtime`), so simulated
milliseconds elapse in proportion to wall time (``accel`` wall-speedup;
``inf`` = as fast as possible). The **asyncio thread** owns the TCP
listener and every connection. Requests cross the seam exactly one way
each: connection → engine via :meth:`Simulator.post` (thread-safe
inbox), completions → connection via ``loop.call_soon_threadsafe``.
All QoS state — tenant queues, token buckets, histograms — lives on
the engine thread only, so the service layer needs no locks.

A request's life::

    frame → Request → [bounds check] → post to engine
          → TenantQueue.admit → DISPATCH | QUEUED | SHED(BUSY)
          → array.submit_logical(..., on_complete=...)
          → OK reply with simulated latency_ms / queue_ms

Run it: ``python -m repro.service.server --accel 100 --raid raid1``;
stop it with SIGTERM/SIGINT (clean shutdown: listener closed, engine
stopped and joined, per-tenant latency summary printed).
"""

from __future__ import annotations

import argparse
import asyncio
import signal
import threading
from dataclasses import dataclass, field
from math import inf
from typing import Any, Dict, List, Optional, Tuple

from repro.array.raid import MirroredArray
from repro.config import ArrayParams, DiskParams, make_config
from repro.errors import ConfigError
from repro.host.system import System
from repro.service.metrics import ServiceMetrics
from repro.service.protocol import (
    ProtocolError,
    Request,
    Response,
    STATUS_BUSY,
    STATUS_ERROR,
    STATUS_OK,
    encode_frame,
    read_frame,
)
from repro.service.qos import DISPATCH, QUEUED, QoSPolicy, TenantQueue
from repro.units import KB, MB

#: Tracer track for service-layer instants.
SERVICE_TRACK = "service"


@dataclass(frozen=True)
class ServiceConfig:
    """Everything needed to stand up one block service."""

    host: str = "127.0.0.1"
    port: int = 0  # 0 = ephemeral, reported by start()
    #: Wall-speedup for the engine's real-time pacing; ``inf`` runs the
    #: simulation as fast as the host allows (tests), finite values make
    #: simulated latencies unfold in observable wall time.
    accel: float = 100.0
    raid: str = "none"  # "none" | "raid1"
    n_disks: int = 4
    disk_mb: int = 64
    hdc_kb: int = 512  # PIN capacity per controller
    seed: int = 42
    default_policy: QoSPolicy = field(default_factory=QoSPolicy)
    #: Per-tenant overrides of :attr:`default_policy`.
    policies: Dict[str, QoSPolicy] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.raid not in ("none", "raid1"):
            raise ConfigError(f"raid must be 'none' or 'raid1', got {self.raid!r}")
        if self.raid == "raid1" and self.n_disks % 2:
            raise ConfigError(
                f"raid1 needs an even disk count, got {self.n_disks}"
            )


@dataclass
class _PendingIO:
    """One admitted request, tracked from admission to reply."""

    conn: "_Connection"
    request: Request
    admit_ms: float
    dispatch_ms: float = 0.0


class _Connection:
    """Loop-thread state for one client: reader loop + outbound queue.

    Replies can originate on the engine thread at any time (completions
    of earlier requests), so they funnel through an ``asyncio.Queue``
    drained by a dedicated writer task — the only place that touches
    the :class:`asyncio.StreamWriter`.
    """

    _CLOSE = object()  # writer-task sentinel

    def __init__(
        self,
        service: "BlockService",
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ):
        self.service = service
        self.reader = reader
        self.writer = writer
        self.outbox: "asyncio.Queue[Any]" = asyncio.Queue()
        self.closed = False

    def send_threadsafe(self, response: Response) -> None:
        """Queue a reply from the engine thread; drops after close."""
        self.service.loop.call_soon_threadsafe(self._enqueue, response)

    def _enqueue(self, response: Response) -> None:
        if not self.closed:
            self.outbox.put_nowait(response)

    async def _write_loop(self) -> None:
        while True:
            item = await self.outbox.get()
            if item is self._CLOSE:
                return
            try:
                self.writer.write(encode_frame(item.to_payload()))
                await self.writer.drain()
            except (ConnectionError, RuntimeError):
                return  # peer vanished; reader loop will notice too

    async def run(self) -> None:
        """Serve the connection until EOF, protocol error, or close."""
        writer_task = asyncio.ensure_future(self._write_loop())
        try:
            while True:
                try:
                    payload = await read_frame(self.reader)
                except ProtocolError as exc:
                    self._enqueue(
                        Response(0, STATUS_ERROR, error=str(exc))
                    )
                    break
                if payload is None:  # clean EOF
                    break
                try:
                    request = Request.from_payload(payload)
                except ProtocolError as exc:
                    self._enqueue(
                        Response(
                            payload.get("id", 0)
                            if isinstance(payload.get("id"), int)
                            else 0,
                            STATUS_ERROR,
                            error=str(exc),
                        )
                    )
                    continue
                error = self.service.validate(request)
                if error is not None:
                    self._enqueue(
                        Response(request.req_id, STATUS_ERROR, error=error)
                    )
                    continue
                self.service.sim.post(
                    self.service.handle_request, self, request
                )
        finally:
            self.closed = True
            self.outbox.put_nowait(self._CLOSE)
            await writer_task
            self.writer.close()
            try:
                await self.writer.wait_closed()
            except (ConnectionError, OSError):
                pass


class BlockService:
    """One simulated array served over TCP.

    ``start()`` builds the system, launches the engine thread in
    real-time mode, and opens the listener; ``stop()`` tears all of it
    down in reverse. Use as an async context manager in tests.
    """

    def __init__(self, config: Optional[ServiceConfig] = None):
        self.config = config or ServiceConfig()
        sim_config = make_config(
            disk=DiskParams(capacity_bytes=self.config.disk_mb * MB),
            array=ArrayParams(n_disks=self.config.n_disks),
            hdc_bytes=self.config.hdc_kb * KB,
            seed=self.config.seed,
        )
        self.system = System(sim_config)
        self.sim = self.system.sim
        self.tracer = self.system.tracer
        self.mirror: Optional[MirroredArray] = None
        if self.config.raid == "raid1":
            self.mirror = MirroredArray(self.system.array)
        #: The submit target: the mirror when configured, else the raw
        #: striped array — identical ``submit_logical`` signatures.
        self.target: Any = self.mirror or self.system.array
        self.striping = self.target.striping
        self.capacity_blocks = self.striping.total_blocks
        self.block_size = sim_config.block_size
        self.metrics = ServiceMetrics()
        # Engine-thread-only state.
        self._tenants: Dict[str, TenantQueue] = {}
        self._tenant_ids: Dict[str, int] = {}
        self._timers: Dict[str, bool] = {}  # tenant -> token timer armed
        # Loop-thread state.
        self.loop: Any = None
        self._server: Optional[asyncio.base_events.Server] = None
        self._conns: set = set()
        self._conn_tasks: set = set()
        self._engine: Optional[threading.Thread] = None
        self._engine_error: Optional[BaseException] = None

    # -- lifecycle -----------------------------------------------------

    async def start(self) -> Tuple[str, int]:
        """Launch the engine thread and the listener; returns (host, port)."""
        self.loop = asyncio.get_running_loop()
        self._engine = threading.Thread(
            target=self._run_engine, name="service-engine", daemon=True
        )
        self._engine.start()
        self._server = await asyncio.start_server(
            self._on_connection, self.config.host, self.config.port
        )
        sock = self._server.sockets[0]
        host, port = sock.getsockname()[:2]
        return host, port

    def _run_engine(self) -> None:
        try:
            self.sim.run_realtime(accel=self.config.accel)
        except BaseException as exc:  # surfaced by stop()
            self._engine_error = exc

    async def stop(self) -> None:
        """Close the listener and connections, stop and join the engine."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        # Closing the transports EOFs the reader loops; wait for every
        # handler to finish its own teardown so none is left to be
        # cancelled (noisily) when the event loop shuts down.
        for conn in list(self._conns):
            conn.closed = True
            conn.writer.close()
        if self._conn_tasks:
            await asyncio.gather(*self._conn_tasks, return_exceptions=True)
        if self._engine is not None:
            self.sim.stop()
            await asyncio.get_running_loop().run_in_executor(
                None, self._engine.join
            )
            self._engine = None
        if self._engine_error is not None:
            raise self._engine_error

    async def __aenter__(self) -> "BlockService":
        await self.start()
        return self

    async def __aexit__(self, *exc_info: Any) -> None:
        await self.stop()

    async def _on_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        conn = _Connection(self, reader, writer)
        task = asyncio.current_task()
        self._conns.add(conn)
        self._conn_tasks.add(task)
        try:
            await conn.run()
        finally:
            self._conns.discard(conn)
            self._conn_tasks.discard(task)

    # -- loop-thread validation ----------------------------------------

    def validate(self, request: Request) -> Optional[str]:
        """Range-check an IO/PIN request (read-only state; no locking)."""
        if request.op == "STATS":
            return None
        end = request.start + request.blocks
        if end > self.capacity_blocks:
            return (
                f"[{request.start}, {end}) exceeds the array's "
                f"{self.capacity_blocks} logical blocks"
            )
        return None

    # -- engine-thread request handling --------------------------------

    def _tenant(self, name: str) -> TenantQueue:
        tenant = self._tenants.get(name)
        if tenant is None:
            policy = self.config.policies.get(name, self.config.default_policy)
            tenant = TenantQueue(name, policy, self.sim.now)
            self._tenants[name] = tenant
            self._tenant_ids[name] = len(self._tenant_ids)
        return tenant

    def handle_request(self, conn: _Connection, request: Request) -> None:
        """Entry point for every request, invoked via ``sim.post``."""
        if request.op == "STATS":
            conn.send_threadsafe(
                Response(request.req_id, STATUS_OK, data=self._stats())
            )
            return
        now = self.sim.now
        tenant = self._tenant(request.tenant)
        item = _PendingIO(conn, request, admit_ms=now)
        decision = tenant.admit(item, now)
        if self.tracer.enabled:
            self.tracer.instant(
                SERVICE_TRACK,
                f"service.{decision}",
                tenant=request.tenant,
                op=request.op,
                inflight=tenant.inflight,
                depth=tenant.depth,
            )
        if decision == DISPATCH:
            self._issue(tenant, item)
        elif decision == QUEUED:
            self._arm_token_timer(tenant)
        else:  # SHED
            conn.send_threadsafe(Response(request.req_id, STATUS_BUSY))

    def _issue(self, tenant: TenantQueue, item: _PendingIO) -> None:
        request = item.request
        item.dispatch_ms = self.sim.now
        if request.op == "PIN":
            pinned = self._pin(request.start, request.blocks)
            self._finish(tenant, item, data={"pinned": pinned})
            return
        self.target.submit_logical(
            request.start,
            request.blocks,
            is_write=(request.op == "WRITE"),
            stream_id=self._tenant_ids[tenant.name],
            on_complete=lambda: self._finish(tenant, item),
        )

    def _finish(
        self,
        tenant: TenantQueue,
        item: _PendingIO,
        data: Optional[Dict[str, Any]] = None,
    ) -> None:
        now = self.sim.now
        latency = now - item.admit_ms
        queue_ms = item.dispatch_ms - item.admit_ms
        self.metrics.record_completion(tenant.name, latency, queue_ms)
        if self.tracer.enabled:
            self.tracer.instant(
                SERVICE_TRACK,
                "service.complete",
                tenant=tenant.name,
                op=item.request.op,
                latency_ms=latency,
            )
        item.conn.send_threadsafe(
            Response(
                item.request.req_id,
                STATUS_OK,
                latency_ms=latency,
                queue_ms=queue_ms,
                data=data or {},
            )
        )
        for ready in tenant.on_complete(now):
            self._issue(tenant, ready)
        self._arm_token_timer(tenant)

    def _arm_token_timer(self, tenant: TenantQueue) -> None:
        """Wake when the tenant's next token matures (metered queues)."""
        if self._timers.get(tenant.name):
            return
        delay = tenant.next_wakeup_ms(self.sim.now)
        if delay is None:
            return
        self._timers[tenant.name] = True
        self.sim.call_after(delay, self._token_wakeup, tenant)

    def _token_wakeup(self, tenant: TenantQueue) -> None:
        self._timers[tenant.name] = False
        for ready in tenant.drain(self.sim.now):
            self._issue(tenant, ready)
        self._arm_token_timer(tenant)

    def _pin(self, start: int, n_blocks: int) -> int:
        """Pin a logical range into the HDC of its home controllers.

        Under raid1 both replicas are pinned — a degraded read must
        still find the blocks resident on the surviving partner.
        """
        logical = range(start, start + n_blocks)
        if self.mirror is None:
            return self.system.array.pin_logical_blocks(logical)
        per_disk: Dict[int, list] = {}
        for lb in logical:
            disk, phys = self.striping.locate(lb)
            per_disk.setdefault(disk, []).append(phys)
            per_disk.setdefault(self.mirror._partner(disk), []).append(phys)
        for disk, blocks in per_disk.items():
            self.system.controllers[disk].pin_blocks(blocks)
        return n_blocks

    # -- stats ---------------------------------------------------------

    def _stats(self) -> Dict[str, Any]:
        tenants: Dict[str, Any] = {}
        for name, tenant in self._tenants.items():
            admitted, completed, queued, shed, inflight, depth = (
                tenant.snapshot()
            )
            tenants[name] = {
                "admitted": admitted,
                "completed": completed,
                "queued_total": queued,
                "shed": shed,
                "inflight": inflight,
                "queue_depth": depth,
                **self.metrics.tenant_summary(name),
            }
        return {
            "capacity_blocks": self.capacity_blocks,
            "block_size": self.block_size,
            "raid": self.config.raid,
            "n_disks": self.config.n_disks,
            "sim_now_ms": self.sim.now,
            "tenants": tenants,
        }

    def summary_text(self) -> str:
        """Shutdown summary: one line per tenant, the STATS tenant numbers."""
        lines: List[str] = []
        for name, doc in self._stats()["tenants"].items():
            fields: List[str] = []
            for key, value in doc.items():
                if isinstance(value, dict):
                    fields += [f"{key}.{k}={v:.3f}" for k, v in value.items()]
                else:
                    fields.append(f"{key}={value}")
            lines.append(f"{name}: " + " ".join(fields))
        return "\n".join(lines)


# -- CLI ---------------------------------------------------------------


def _parse_args(argv: Optional[list] = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        prog="python -m repro.service.server",
        description="Serve the simulated disk array as a TCP block service.",
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=0, help="0 = ephemeral")
    parser.add_argument(
        "--accel",
        type=float,
        default=100.0,
        help="wall-speedup of simulated time (inf = as fast as possible)",
    )
    parser.add_argument(
        "--raid", choices=("none", "raid1"), default="none"
    )
    parser.add_argument("--disks", type=int, default=4)
    parser.add_argument("--disk-mb", type=int, default=64)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument(
        "--max-inflight", type=int, default=8,
        help="per-tenant in-flight bound",
    )
    parser.add_argument(
        "--max-queue", type=int, default=32,
        help="per-tenant service-layer queue bound (0 = shed immediately)",
    )
    parser.add_argument(
        "--rate", type=float, default=0.0,
        help="per-tenant sustained IOPS cap in simulated time (0 = unmetered)",
    )
    parser.add_argument(
        "--burst", type=float, default=8.0, help="token-bucket burst size"
    )
    return parser.parse_args(argv)


async def _amain(args: argparse.Namespace) -> int:
    service = BlockService(
        ServiceConfig(
            host=args.host,
            port=args.port,
            accel=args.accel if args.accel > 0 else inf,
            raid=args.raid,
            n_disks=args.disks,
            disk_mb=args.disk_mb,
            seed=args.seed,
            default_policy=QoSPolicy(
                max_inflight=args.max_inflight,
                max_queue=args.max_queue,
                rate_iops=args.rate,
                burst=args.burst,
            ),
        )
    )
    host, port = await service.start()
    print(f"service: listening on {host}:{port}", flush=True)
    stopping = asyncio.Event()
    loop = asyncio.get_running_loop()
    for sig in (signal.SIGINT, signal.SIGTERM):
        loop.add_signal_handler(sig, stopping.set)
    await stopping.wait()
    print("service: shutting down", flush=True)
    await service.stop()
    summary = service.summary_text()
    if summary:
        print(summary, flush=True)
    return 0


def main(argv: Optional[list] = None) -> int:
    """Console entry point (``python -m repro.service.server``)."""
    return asyncio.run(_amain(_parse_args(argv)))


if __name__ == "__main__":
    raise SystemExit(main())
