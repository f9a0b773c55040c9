"""Closed-loop trace replay with ``t`` concurrent I/O streams (§6.1/§6.3).

"The logs are replayed in the simulator as fast as possible to
determine the maximum throughput achievable by each system": all
streams start at time zero; each stream takes the next trace record the
moment its previous record completes. A record completes when the last
of its disk commands completes.

Per record, the driver performs the host-side decomposition:

1. each logical run is mapped through the striping layout into
   physically contiguous per-disk runs;
2. the device-driver coalescer probabilistically merges/splits each run
   into disk commands (87% per-boundary merge probability by default);
3. commands targeting *different* disks are issued concurrently (the
   striping parallelism the array exists for), while same-disk commands
   of one record are issued in order, each after its predecessor
   completes — they model OS requests separated in time (the ones the
   driver failed to coalesce), which is what lets a predecessor's
   read-ahead serve its successor from the controller cache.

Concurrent *identical* reads are merged: when two streams request the
same blocks while the first request is still in flight, the second
waits for the first instead of issuing duplicate disk commands —
exactly what the host page cache does (the second reader blocks on the
locked page). Without this, high stream counts would flood the
controllers with duplicate work no real host generates.
"""

from __future__ import annotations

from typing import Callable, Iterable, Iterator, List, Optional, Union

from repro.controller.commands import DiskCommand
from repro.errors import WorkloadError
from repro.host.system import System
from repro.obs.metrics import Histogram
from repro.oscache.coalesce import Coalescer
from repro.workloads.trace import DiskAccess, Trace, TraceMeta

#: Tracer track carrying one async span per replayed trace record.
HOST_TRACK = "host"


class ReplayDriver:
    """Replays a trace against a :class:`~repro.host.system.System`."""

    def __init__(
        self,
        system: System,
        trace: Union[Trace, Iterable[DiskAccess]],
        n_streams: Optional[int] = None,
        coalesce_prob: Optional[float] = None,
        on_record_complete: Optional[Callable[[DiskAccess], None]] = None,
        keep_raw_latencies: bool = True,
        array=None,
        striping=None,
    ):
        """``array``/``striping`` override the system's plain array with
        a RAID wrapper (e.g. :class:`~repro.array.raid.MirroredArray`) —
        the wrapper's ``submit_command`` and its logical-capacity
        striping view replace the defaults for decomposition/issue.

        ``trace`` may be a materialized :class:`Trace` or any iterable
        of records — in particular a lazy generator, which the driver
        pulls one record ahead of issue, so million-record sources
        (:mod:`repro.loadgen` streams, re-parsed captures) never reside
        in memory. Iterables without ``.meta`` use the
        :class:`TraceMeta` defaults for the stream count and coalesce
        probability."""
        meta = getattr(trace, "meta", None)
        if meta is None:
            meta = TraceMeta()
        try:
            self._total: Optional[int] = len(trace)  # type: ignore[arg-type]
        except TypeError:
            self._total = None
        self.system = system
        self.array = array if array is not None else system.array
        self.striping = striping if striping is not None else system.striping
        self.trace = trace
        self._source: Iterator[DiskAccess] = iter(trace)
        #: One-record lookahead: the next record to issue (None once
        #: the source is exhausted).
        self._pending: Optional[DiskAccess] = next(self._source, None)
        if self._pending is None:
            raise WorkloadError(self._empty_message())
        self.n_streams = n_streams if n_streams is not None else meta.n_streams
        if self.n_streams < 1:
            raise WorkloadError(f"need >=1 stream, got {self.n_streams}")
        prob = coalesce_prob if coalesce_prob is not None else meta.coalesce_prob
        self.coalescer = Coalescer(
            prob, rng=system.streams.stream("host.coalesce")
        )
        self.on_record_complete = on_record_complete
        #: Records taken from the source and issued so far.
        self.records_taken = 0
        self.records_completed = 0
        self.commands_issued = 0
        #: Commands that completed with ``error`` set (fault mode only).
        self.commands_failed = 0
        self.reads_merged = 0
        self.finish_time: float = 0.0
        #: Keep the raw per-record latency list (unbounded memory on
        #: million-record traces); the histogram below is always kept.
        self.keep_raw_latencies = keep_raw_latencies
        #: Issue-to-completion latency of every record, in ms (empty
        #: when ``keep_raw_latencies`` is False).
        self.record_latencies_ms: List[float] = []
        #: Fixed-bucket summary of every record latency, always filled.
        self.latency_histogram = Histogram()
        # in-flight read runs -> (record, stream, issued_at, span) waiters
        self._inflight: dict = {}

    # -- public API ---------------------------------------------------

    def run(self) -> float:
        """Replay the whole trace; returns the total I/O time in ms."""
        self._ensure_fresh_run()
        sim = self.system.sim
        start = sim.now
        stream_id = 0
        while stream_id < self.n_streams and self._pending is not None:
            self._start_next(stream_id)
            stream_id += 1
        # Run the engine's internal loop; the completion of the last
        # record calls ``sim.stop()`` from ``_record_done``, which ends
        # the run without draining the queue — periodic background
        # activity (e.g. HDC's 30-second flush timer) keeps
        # rescheduling itself and would otherwise prevent the run from
        # ever terminating.
        sim.run()
        if self._pending is not None or self.records_completed < self.records_taken:
            raise self._stall_error()
        self.finish_time = sim.now
        return sim.now - start

    # -- stream engine --------------------------------------------------

    def _empty_message(self) -> str:
        return "cannot replay an empty trace"

    def _ensure_fresh_run(self) -> None:
        """Refuse a second :meth:`run` after the source is exhausted.

        Drivers are single-use. A re-run has no stream to start
        (``_pending`` is gone), so nothing would ever call
        ``sim.stop()`` — but periodic background events (e.g. HDC's
        30-second flush timer) keep rescheduling themselves, and the
        engine would spin on them forever instead of returning. Fail
        fast with a clear error instead of hanging.
        """
        if self.records_taken and self._pending is None:
            raise WorkloadError(
                f"replay driver already ran ({self.records_completed} records "
                "completed) — construct a fresh driver per replay"
            )

    def _stall_error(self) -> WorkloadError:
        total = self._total if self._total is not None else self.records_taken
        return WorkloadError(
            f"replay stalled: {self.records_completed}/{total} "
            "records completed (event queue drained early)"
        )

    def _take(self) -> Optional[DiskAccess]:
        """Consume the lookahead record and refill it from the source."""
        record = self._pending
        if record is not None:
            self._pending = next(self._source, None)
            self.records_taken += 1
        return record

    def _start_next(self, stream_id: int) -> None:
        record = self._take()
        if record is None:
            return
        self._issue_record(record, stream_id)

    def _issue_record(self, record: DiskAccess, stream_id: int) -> None:
        issued_at = self.system.sim.now
        tracer = self.system.tracer
        span = 0
        if tracer.enabled:
            span = tracer.begin(
                HOST_TRACK,
                "record",
                stream=stream_id,
                write=record.is_write,
                runs=len(record.runs),
            )
        # Page-cache read merging: ride an identical in-flight read.
        key = record.runs if not record.is_write else None
        if key is not None:
            waiters = self._inflight.get(key)
            if waiters is not None:
                waiters.append((record, stream_id, issued_at, span))
                self.reads_merged += 1
                return
            self._inflight[key] = []

        commands = self._decompose(record, stream_id)

        # Fast path: most records decompose into one disk command (the
        # coalescer merges 87% of boundaries), where the chain/group
        # bookkeeping below is pure overhead.
        if len(commands) == 1:
            cmd = commands[0]
            cmd.on_complete = (
                lambda _cmd: self._single_done(
                    _cmd, record, stream_id, issued_at, span, key
                )
            )
            self.commands_issued += 1
            self.array.submit_command(cmd)
            return

        remaining = len(commands)

        def _all_done() -> None:
            self._note_latency(issued_at)
            if span:
                tracer.end(HOST_TRACK, "record", span)
            self._record_done(record, stream_id)
            if key is not None:
                for waiting_record, waiting_stream, waited_since, waited_span in (
                    self._inflight.pop(key, ())
                ):
                    self._note_latency(waited_since)
                    if waited_span:
                        tracer.end(HOST_TRACK, "record", waited_span, merged=True)
                    self._record_done(waiting_record, waiting_stream)

        # Group by disk: chains run sequentially, disks in parallel.
        per_disk: dict = {}
        for cmd in commands:
            per_disk.setdefault(cmd.disk_id, []).append(cmd)
        self.commands_issued += len(commands)
        submit = self.array.submit_command

        def _make_chain(queue: List[DiskCommand]):
            def _next_in_chain(_cmd: DiskCommand) -> None:
                nonlocal remaining
                remaining -= 1
                if _cmd.error is not None:
                    self.commands_failed += 1
                if queue:
                    submit(queue.pop(0))
                if remaining == 0:
                    _all_done()

            return _next_in_chain

        heads = []
        for chain in per_disk.values():
            advance = _make_chain(chain)
            for cmd in chain:
                cmd.on_complete = advance
            heads.append(chain.pop(0))
        for head in heads:
            submit(head)

    def _single_done(
        self,
        cmd: DiskCommand,
        record: DiskAccess,
        stream_id: int,
        issued_at: float,
        span: int,
        key,
    ) -> None:
        """Completion continuation for single-command records."""
        if cmd.error is not None:
            self.commands_failed += 1
        self._note_latency(issued_at)
        tracer = self.system.tracer
        if span:
            tracer.end(HOST_TRACK, "record", span)
        self._record_done(record, stream_id)
        if key is not None:
            for waiting_record, waiting_stream, waited_since, waited_span in (
                self._inflight.pop(key, ())
            ):
                self._note_latency(waited_since)
                if waited_span:
                    tracer.end(HOST_TRACK, "record", waited_span, merged=True)
                self._record_done(waiting_record, waiting_stream)

    def _note_latency(self, issued_at: float) -> None:
        latency = self.system.sim.now - issued_at
        self.latency_histogram.observe(latency)
        if self.keep_raw_latencies:
            self.record_latencies_ms.append(latency)

    def _record_done(self, record: DiskAccess, stream_id: int) -> None:
        self.records_completed += 1
        if self.on_record_complete is not None:
            self.on_record_complete(record)
        if self._pending is None and self.records_completed >= self.records_taken:
            self.system.sim.stop()
            return
        self._start_next(stream_id)

    def _decompose(self, record: DiskAccess, stream_id: int) -> List[DiskCommand]:
        striping = self.striping
        commands: List[DiskCommand] = []
        for lstart, llen in record.runs:
            for run in striping.map_run(lstart, llen):
                for start, length in self.coalescer.split(run.start, run.n_blocks):
                    commands.append(
                        DiskCommand(
                            disk_id=run.disk,
                            start_block=start,
                            n_blocks=length,
                            is_write=record.is_write,
                            stream_id=stream_id,
                        )
                    )
        return commands
