"""``service_mixed``: the live block service under an open-loop ladder.

An in-process :class:`~repro.service.server.BlockService` (RAID-1 over
four disks, real-time pacing at :data:`ACCEL`, per-tenant QoS) serves
two loopback TCP connections, one tenant each. Everything runs in one
process on two threads: the service's engine thread, and one asyncio
thread that holds both the server's listener and the generator.

The generator is open-loop: every request has a due time drawn from
the seed (Poisson arrivals, 30% writes, uniform placement) and is sent
when due, whatever is still outstanding. Latency is timed from the due
time, so a stall of the generator or the server counts against every
request it delays, and the generator's own lateness is reported. The
rates are fixed: a reference rung well below the knee
(``latency_p50_ms``, ``latency_p99_ms``) and a ladder of rising rates
(``ops_per_s``).
"""

from __future__ import annotations

import asyncio
import json
import random
import time
from dataclasses import dataclass, field
from statistics import median
from typing import Callable, Dict, List, Optional, Tuple

from repro.metrics.collector import RunResult
from repro.service.protocol import HEADER, Request, Response, encode_frame
from repro.service.qos import QoSPolicy
from repro.service.server import BlockService, ServiceConfig

from common import emit, note, peak_rss_mb, percentile, reference_s, report_errors, scaled

#: Simulated milliseconds per wall millisecond: the disks run in real time.
ACCEL = 1.0
TENANTS = ("t0", "t1")
#: Per-tenant QoS envelope: in-flight bound and service-layer queue.
POLICY = QoSPolicy(max_inflight=16, max_queue=512)
WRITE_FRAC = 0.30
#: Request sizes in 4 KB blocks, drawn uniformly.
SIZES = (2, 4, 8, 16)
#: Blocks each tenant pins during set-up.
PIN_BLOCKS = 64
#: The reference rung's rate, requests/s over both connections: well
#: below the knee (about 500-550/s on a 2-vCPU host).
REF_RATE = 250.0
#: The ladder's rates after the reference rung, in 6% steps, so
#: ``ops_per_s`` resolves a change far smaller than its bound. A rung
#: that fails is run once more, since one stall of the shared host can
#: fail a short rung; the ladder stops when the retry fails too.
LADDER = tuple(float(round(400 * 1.06 ** i)) for i in range(14))
#: Share of the window spent on the reference rung, and on each rung of
#: the ladder.
REF_SHARE = 0.5
RUNG_SHARE = 0.075
#: A rung's p99 is the median of the p99s of this many consecutive
#: parts of it, so one stall of the shared host moves one part only.
P99_PARTS = 3
#: Samples each part of the reference rung needs for a reported p99.
MIN_P99_SAMPLES = 1000
#: The latency limit a rung's p99 must meet, and the longest a rung may
#: take to drain after its last due time (no growing backlog).
P99_LIMIT_MS = 50.0
#: Untimed requests sent before the window.
WARMUP_REQUESTS = 200
#: Times the service is started, connected and pinned before the
#: window, and again after it; setup_s is the median of all of them.
SETUP_REPS = 20
#: Longest wait for a rung's last response.
DRAIN_TIMEOUT_S = 10.0


@dataclass
class Rung:
    """What one rate step of the generator observed."""

    rate: float
    sent: int = 0
    ok: int = 0
    busy: int = 0
    errors: List[str] = field(default_factory=list)
    #: Wall latency from due time to response, ms, of OK responses.
    latencies_ms: List[float] = field(default_factory=list)
    #: Server-reported simulated latency and queueing, ms, of OK responses.
    sim_latencies_ms: List[float] = field(default_factory=list)
    queue_ms: List[float] = field(default_factory=list)
    late_ms_max: float = 0.0
    #: Wall seconds from the first due time to the last response.
    span_s: float = 0.0
    #: Wall seconds from the last due time to the last response.
    drain_s: float = 0.0

    @property
    def p99_ms(self) -> float:
        """Median over :data:`P99_PARTS` consecutive parts of their p99."""
        lat = self.latencies_ms
        if len(lat) < P99_PARTS:
            return float("inf")
        size = len(lat) // P99_PARTS
        return median(
            [percentile(lat[i * size:(i + 1) * size], 99.0) for i in range(P99_PARTS)]
        )

    @property
    def passed(self) -> bool:
        return (
            not self.errors
            and self.ok == self.sent
            and self.p99_ms <= P99_LIMIT_MS
            and self.drain_s * 1000.0 <= P99_LIMIT_MS
        )


class Connection:
    """One tenant's TCP connection: sends on schedule, matches replies."""

    def __init__(self, tenant: str, reader, writer):
        self.tenant = tenant
        self.reader = reader
        self.writer = writer
        self.next_id = 1
        #: req_id -> due time (perf_counter seconds) of unanswered requests.
        self.waiting: Dict[int, float] = {}
        self.rung: Optional[Rung] = None
        self.last_reply = 0.0
        self.done = asyncio.Event()
        self.pin_reply: Optional[Response] = None
        self.on_send: Optional[Callable[[], None]] = None
        self._reader_task = asyncio.ensure_future(self._read_loop())

    def send(self, op: str, start: int, blocks: int, due: float) -> None:
        if self.on_send is not None:
            self.on_send()
        req_id = self.next_id
        self.next_id += 1
        self.waiting[req_id] = due
        self.writer.write(
            encode_frame(Request(op, self.tenant, req_id, start, blocks).to_payload())
        )

    async def _read_loop(self) -> None:
        reader = self.reader
        while True:
            try:
                header = await reader.readexactly(HEADER.size)
                (length,) = HEADER.unpack(header)
                body = await reader.readexactly(length)
            except (asyncio.IncompleteReadError, ConnectionError):
                return
            now = time.perf_counter()
            response = Response.from_payload(json.loads(body))
            due = self.waiting.pop(response.req_id, None)
            rung = self.rung
            if rung is None:
                self.pin_reply = response
            elif due is None:
                rung.errors.append(
                    f"{self.tenant}: response id {response.req_id} matches no sent request"
                )
            elif response.status == "OK":
                rung.ok += 1
                rung.latencies_ms.append((now - due) * 1000.0)
                rung.sim_latencies_ms.append(response.latency_ms)
                rung.queue_ms.append(response.queue_ms)
            elif response.status == "BUSY":
                rung.busy += 1
            else:
                rung.errors.append(f"{self.tenant}: ERROR reply: {response.error}")
            self.last_reply = now
            if not self.waiting:
                self.done.set()

    async def close(self) -> None:
        self.writer.close()
        try:
            await self.writer.wait_closed()
        except (ConnectionError, OSError):
            pass
        await self._reader_task


def schedule(
    seed: int, tag: int, rate: float, seconds: float, capacity: int
) -> List[Tuple[float, int, str, int, int]]:
    """Open-loop arrivals: (due offset s, connection, op, start, blocks).

    Exactly ``rate * seconds`` arrivals at sorted uniform times: a
    Poisson process conditioned on its count, so every seed offers
    the same load.
    """
    rng = random.Random(seed * 1_000_003 + tag)
    dues = sorted(rng.uniform(0.0, seconds) for _ in range(round(rate * seconds)))
    out = []
    for t in dues:
        blocks = rng.choice(SIZES)
        start = rng.randrange(0, capacity - blocks + 1) // blocks * blocks
        op = "WRITE" if rng.random() < WRITE_FRAC else "READ"
        out.append((t, rng.randrange(len(TENANTS)), op, start, blocks))
    return out


async def _drained(conns: List[Connection]) -> None:
    """Return once no connection has a request outstanding."""
    for conn in conns:
        if conn.waiting:
            conn.done.clear()
            await conn.done.wait()


async def run_rung(
    conns: List[Connection], plan, rate: float
) -> Rung:
    """Send one schedule on time and wait for every reply."""
    rung = Rung(rate)
    for conn in conns:
        conn.rung = rung
    t0 = time.perf_counter() + 0.005
    late_max = 0.0
    for offset, index, op, start, blocks in plan:
        due = t0 + offset
        delay = due - time.perf_counter()
        if delay > 0:
            await asyncio.sleep(delay)
        late = time.perf_counter() - due
        if late > late_max:
            late_max = late
        conns[index].send(op, start, blocks, due)
        rung.sent += 1
    last_due = t0 + plan[-1][0]
    try:
        await asyncio.wait_for(_drained(conns), DRAIN_TIMEOUT_S)
    except asyncio.TimeoutError:
        rung.errors.append(
            f"{sum(len(c.waiting) for c in conns)} requests unanswered "
            f"{DRAIN_TIMEOUT_S:.0f} s after the rung ended"
        )
    last = max(c.last_reply for c in conns)
    rung.late_ms_max = late_max * 1000.0
    rung.span_s = last - t0 - plan[0][0]
    rung.drain_s = max(0.0, last - last_due)
    for conn in conns:
        conn.rung = None
    return rung


async def start_service(seed: int) -> Tuple[BlockService, List[Connection]]:
    """Start the service, connect both tenants, pin their hot ranges."""
    service = BlockService(
        ServiceConfig(accel=ACCEL, raid="raid1", seed=seed, default_policy=POLICY)
    )
    host, port = await service.start()
    conns = []
    for tenant in TENANTS:
        reader, writer = await asyncio.open_connection(host, port)
        conns.append(Connection(tenant, reader, writer))
    for i, conn in enumerate(conns):
        conn.send("PIN", i * PIN_BLOCKS, PIN_BLOCKS, time.perf_counter())
    await asyncio.wait_for(_drained(conns), DRAIN_TIMEOUT_S)
    for conn in conns:
        if conn.pin_reply is None or not conn.pin_reply.ok:
            raise RuntimeError(f"PIN failed for {conn.tenant}: {conn.pin_reply}")
    return service, conns


async def stop_service(service: BlockService, conns: List[Connection]) -> None:
    for conn in conns:
        await conn.close()
    await service.stop()


@dataclass
class ServiceRun:
    """Everything one service run measured."""

    #: Seconds of every set-up, as measured and rescaled to the
    #: reference speed.
    raw_setup_s: List[float]
    setup_s: List[float]
    ref: Optional[Rung] = None
    ladder: List[Rung] = field(default_factory=list)
    errors: List[str] = field(default_factory=list)
    #: Process CPU seconds spent on the reference rung.
    ref_cpu_s: float = 0.0
    #: The simulated array's counters over the measured service's life.
    result: Optional[RunResult] = None

    @property
    def rungs(self) -> List[Rung]:
        return ([self.ref] if self.ref else []) + self.ladder

    @property
    def counted(self) -> List[Rung]:
        """The rungs ``ok_frac`` covers: the reference rung and the ladder
        rungs that passed. A ladder rung that failed ran past the knee,
        where BUSY replies are the QoS queue doing its job."""
        return [r for r in self.rungs if r is self.ref or r.passed]

    @property
    def sent(self) -> int:
        return sum(r.sent for r in self.rungs)

    @property
    def ok(self) -> int:
        return sum(r.ok for r in self.rungs)

    @property
    def failed(self) -> int:
        """Requests not answered OK, but for BUSY replies on ladder rungs
        that failed."""
        return self.sent - self.ok - sum(r.busy for r in self.ladder if not r.passed)


def sim_result(service: BlockService) -> RunResult:
    """The stopped service's simulated counters, as a replay reports them.

    A record is a request the service completed (the PINs included).
    """
    system = service.system
    array = system.array
    ctrl = array.controller_stats()
    now = service.sim.now
    return RunResult(
        io_time_ms=now,
        records=sum(service.metrics.latency_histogram(t).count for t in TENANTS),
        commands=ctrl.commands,
        blocks_requested=ctrl.blocks_requested,
        block_size=service.block_size,
        controller=ctrl,
        cache=array.cache_stats(),
        disk_utilizations=[c.drive.utilization(now) for c in array.controllers],
        bus_utilization=system.bus.utilization(now),
    )


async def _timed_start(seed: int) -> Tuple[BlockService, List[Connection], float, float]:
    """:func:`start_service`, with its seconds as measured and rescaled."""
    before = reference_s()
    t0 = time.perf_counter()
    service, conns = await start_service(seed)
    seconds = time.perf_counter() - t0
    return service, conns, seconds, scaled(seconds, before, reference_s())


async def _timed_set_ups(seed: int, reps: int, run: "ServiceRun") -> None:
    """Start, connect and pin ``reps`` times, adding the times to ``run``."""
    for _ in range(reps):
        service, conns, raw, rescaled = await _timed_start(seed)
        run.raw_setup_s.append(raw)
        run.setup_s.append(rescaled)
        await stop_service(service, conns)


async def _session(
    seed: int,
    seconds: float,
    full: bool,
    before_ref: Optional[Callable[[], None]],
    on_send: Optional[Callable[[], None]],
) -> ServiceRun:
    run = ServiceRun([], [])
    await _timed_set_ups(seed, SETUP_REPS - 1 if full else 0, run)
    service, conns, raw, rescaled = await _timed_start(seed)
    run.raw_setup_s.append(raw)
    run.setup_s.append(rescaled)
    capacity = service.capacity_blocks
    for conn in conns:
        conn.on_send = on_send
    try:
        warm = schedule(seed, 0, REF_RATE, WARMUP_REQUESTS / REF_RATE, capacity)
        await run_rung(conns, warm, REF_RATE)
        ref_seconds = max(
            REF_SHARE * seconds, P99_PARTS * MIN_P99_SAMPLES / REF_RATE + 0.1
        )
        plan = schedule(seed, 1, REF_RATE, ref_seconds, capacity)
        if before_ref is not None:
            before_ref()
        cpu0 = time.process_time()
        run.ref = await run_rung(conns, plan, REF_RATE)
        run.ref_cpu_s = time.process_time() - cpu0
        for i, rate in enumerate(LADDER if full and run.ref.passed else ()):
            plan = schedule(seed, 2 + i, rate, RUNG_SHARE * seconds, capacity)
            rung = await run_rung(conns, plan, rate)
            if not rung.passed:
                run.ladder.append(rung)
                rung = await run_rung(conns, plan, rate)
            run.ladder.append(rung)
            if not rung.passed:
                break
    finally:
        await stop_service(service, conns)
    run.result = sim_result(service)
    # The other half of the set-up repetitions, a window's length later.
    await _timed_set_ups(seed, SETUP_REPS if full else 0, run)
    for rung in run.rungs:
        run.errors.extend(f"rung {rung.rate:.0f}/s: {e}" for e in rung.errors)
    return run


def measure(
    seed: int,
    seconds: float,
    full: bool = True,
    before_ref: Optional[Callable[[], None]] = None,
    on_send: Optional[Callable[[], None]] = None,
) -> ServiceRun:
    """Set up, warm up and run the reference rung; with ``full``, also
    the rest of the ladder and the repeated set-ups.

    ``before_ref`` runs just before the reference rung; ``on_send``
    before every request the generator sends.
    """
    return asyncio.run(_session(seed, seconds, full, before_ref, on_send))


def max_rps(run: ServiceRun) -> Optional[Rung]:
    """The highest rung that passed (rungs run in rising order)."""
    passed = [r for r in run.rungs if r.passed]
    return passed[-1] if passed else None


def main(seed: int, seconds: float, traced: bool) -> int:
    if traced:
        import layers

        return layers.service_traced_run(seed, seconds)
    run = measure(seed, seconds)
    ref = run.ref
    errors = list(run.errors)
    if len(ref.latencies_ms) < P99_PARTS * MIN_P99_SAMPLES:
        errors.append(
            f"reference rung has {len(ref.latencies_ms)} samples; its p99 needs "
            f"{MIN_P99_SAMPLES} in each of {P99_PARTS} parts"
        )
    top = max_rps(run)
    if top is None:
        errors.append(f"no rung met p99 <= {P99_LIMIT_MS:.0f} ms")
        top = ref
    note(
        f"service_mixed: seed {seed}, set-up median {median(run.raw_setup_s):.5f} s "
        f"as measured, {median(run.setup_s):.5f} s rescaled, over {len(run.setup_s)}"
    )
    for rung in run.rungs:
        note(
            f"  rung {rung.rate:5.0f}/s: sent {rung.sent:5d} ok {rung.ok:5d} "
            f"busy {rung.busy} p50 {median(rung.latencies_ms) if rung.latencies_ms else 0:.2f} "
            f"p99 {rung.p99_ms:.2f} ms drain {rung.drain_s * 1000:.1f} ms "
            f"late max {rung.late_ms_max:.2f} ms {'pass' if rung.passed else 'FAIL'}"
        )
    report_errors(errors)
    metrics = {
        "ops_per_s": (top.ok / top.span_s, "ops/s"),
        "setup_s": (median(run.setup_s), "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
        "ok_frac": (
            sum(r.ok for r in run.counted) / sum(r.sent for r in run.counted), "ratio"),
        # A client of the live service sees wall time.
        "latency_p50_ms": (median(ref.latencies_ms), "ms"),
        "latency_p99_ms": (ref.p99_ms, "ms"),
    }
    note(
        f"  latency over {len(ref.latencies_ms)} requests at {REF_RATE:.0f}/s; p99 is the "
        f"median of {P99_PARTS} parts' p99s; rung p99 limit {P99_LIMIT_MS:.0f} ms; "
        f"server-reported simulated latency p50 {median(ref.sim_latencies_ms):.2f} ms, "
        f"p99 {percentile(ref.sim_latencies_ms, 99.0):.2f} ms"
    )
    for metric, (value, unit) in metrics.items():
        note(f"  {metric:<14} {value:12.4f} {unit}")
    emit(not errors, run.sent, run.failed, metrics)
    return 0 if not errors else 1
