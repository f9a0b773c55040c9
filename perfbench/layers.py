"""The traced run: spans around each layer's public entry points.

Nothing under ``src/`` changes. :func:`installed` replaces the entry
points listed in :data:`ENTRY_POINTS` with wrappers for the duration
of a ``with`` block and restores the originals afterwards. Each wrapper
appends one span (entry point, start, end, parent span, record id) to
an in-memory buffer of its thread; the buffers are written out when
the run ends. The record id is the ordinal of the latest record (or
request) the host had taken when the span opened.

A layer's self time is its spans' durations minus the part covered by
their child spans. Work in a function that is not an entry point is
charged to the nearest enclosing span: the engine's event dispatch and
every private event callback land in ``sim``, the replay loop's own
bookkeeping in ``host``.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import threading
import time
from array import array
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

import checks
from common import emit, note, percentile, report_errors

OUT_DIR = Path(__file__).resolve().parent.parent / ".perfbench"

#: Allowed gap between the traced wall time and the sum of self times,
#: as a share of the traced wall time (work outside every span: building
#: the System and the drivers).
SUM_TOLERANCE = 0.05

#: (layer, module, class or None for a module function, entry points).
#: A class entry covers the class and every loaded subclass that
#: overrides the method.
ENTRY_POINTS: Tuple[Tuple[str, str, Optional[str], Tuple[str, ...]], ...] = (
    ("sim", "repro.sim.engine", "Simulator",
     ("run", "schedule", "schedule_at", "call_after", "call_at", "post")),
    ("host", "repro.host.streams", "ReplayDriver", ("run",)),
    ("array", "repro.array.array", "DiskArray", ("submit_logical", "submit_command")),
    ("array", "repro.array.raid", "MirroredArray", ("submit_logical", "submit_command")),
    ("controller.frontend", "repro.controller.frontend", "Frontend", ("submit",)),
    ("controller.cachepath", "repro.controller.cachepath", "CachePath",
     ("split_read", "note_full_hit", "recheck", "mark_consumed", "fill_from_media",
      "absorb_write", "pin_blocks", "unpin_blocks", "flush_dirty")),
    ("controller.mediapath", "repro.controller.mediapath", "MediaPath",
     ("enqueue_read", "enqueue_runs", "enqueue_internal", "fault_transition")),
    ("controller.completion", "repro.controller.completion", "Completion",
     ("send_read", "receive_write", "finish", "fail_async")),
    ("cache", "repro.cache.base", "ControllerCache",
     ("missing", "access", "fill", "peek", "invalidate")),
    ("cache", "repro.cache.pinned", "PinnedRegion",
     ("pin", "unpin", "flush", "is_pinned", "note_read_hit", "write", "pin_many")),
    ("readahead", "repro.readahead.base", "ReadAheadPolicy", ("read_size",)),
    ("scheduling", "repro.scheduling.base", "IOScheduler", ("push", "pop", "peek")),
    ("disk", "repro.disk.drive", "DiskDrive", ("execute",)),
    ("devices", "repro.mechanics.service", "ServiceTimeModel", ("breakdown",)),
    ("devices", "repro.devices.flash", "FlashServiceModel", ("breakdown",)),
    ("bus", "repro.bus.scsi", "ScsiBus", ("transfer",)),
    ("metrics", "repro.experiments.runner", None, ("collect_run_result",)),
)

#: Server-side entry points of the live service. The server module's
#: own names are patched, so the generator's calls into the protocol
#: module are not counted.
SERVICE_ENTRY_POINTS: Tuple[Tuple[str, str, Optional[str], Tuple[str, ...]], ...] = (
    ("service", "repro.service.server", "BlockService", ("handle_request",)),
    ("service", "repro.service.server", None, ("encode_frame",)),
    ("service", "repro.service.protocol", None, ("_parse_body",)),
    ("service", "repro.service.protocol", "Request", ("from_payload",)),
    ("service", "repro.service.protocol", "Response", ("to_payload",)),
    ("service.qos", "repro.service.qos", "TenantQueue", ("admit", "drain", "on_complete")),
)

#: Modules whose subclasses must be loaded before patching.
_SUBCLASS_MODULES = (
    "repro.cache.block", "repro.cache.segment",
    "repro.readahead.blind", "repro.readahead.file_oriented", "repro.readahead.none",
    "repro.scheduling.cscan", "repro.scheduling.fcfs", "repro.scheduling.look",
    "repro.scheduling.sstf", "repro.devices.hdd", "repro.host.openloop",
)

#: Every layer, in table order.
LAYERS = (
    "sim", "host", "loadgen", "array", "controller.frontend", "controller.cachepath",
    "controller.mediapath", "controller.completion", "cache", "readahead",
    "scheduling", "disk", "devices", "bus", "metrics",
)
#: The layers every workload crosses, reported in the result line. The
#: others (``host``, ``loadgen`` and ``metrics`` on the simulator
#: workloads, ``service`` and ``service.qos`` on the service) are only
#: in the printed table: the result line holds the same metrics for
#: every workload, and a layer a workload never calls has no time.
SHARED_LAYERS = tuple(layer for layer in LAYERS if layer not in ("host", "loadgen", "metrics"))
#: The engine's scheduling entry points (``sim.events_per_record``).
SIM_EVENT_CALLS = ("schedule", "schedule_at", "call_after", "call_at", "post")


class _Buffer:
    """One thread's spans, as parallel columns."""

    __slots__ = ("name", "start", "end", "parent", "record", "stack", "cutoff")

    def __init__(self) -> None:
        self.name = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.record = array("i")
        self.stack: List[int] = []
        #: Spans before this index are dropped (see :meth:`Recorder.mark`).
        self.cutoff = 0

    def columns(self) -> Dict[str, np.ndarray]:
        """The spans from :attr:`cutoff` on, as arrays.

        Parents are re-indexed from the cutoff; a span whose parent was
        dropped becomes a root.
        """
        cut = self.cutoff
        out = {
            col: np.frombuffer(getattr(self, col), dtype=getattr(self, col).typecode)[cut:]
            for col in ("name", "start", "end", "parent", "record")
        }
        parent = out["parent"] - cut
        parent[parent < 0] = -1
        out["parent"] = parent
        return out


class Recorder:
    """Installs span wrappers and keeps their spans in memory."""

    def __init__(self) -> None:
        #: Entry-point names ("ControllerCache.fill"), by id.
        self.names: List[str] = []
        #: Layer of each entry-point id.
        self.name_layer: List[str] = []
        self.buffers: List[_Buffer] = []
        self.record_id = -1
        self._local = threading.local()
        self._undo: List[Tuple[object, str, object]] = []

    def _buffer(self) -> _Buffer:
        buf = getattr(self._local, "buf", None)
        if buf is None:
            buf = self._local.buf = _Buffer()
            self.buffers.append(buf)
        return buf

    def _name_id(self, layer: str, name: str) -> int:
        self.names.append(name)
        self.name_layer.append(layer)
        return len(self.names) - 1

    def spanned(self, layer: str, name: str, fn):
        """``fn`` wrapped so that every call records one span."""
        name_id = self._name_id(layer, name)
        clock = time.perf_counter
        recorder = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            buf = recorder._buffer()
            stack = buf.stack
            index = len(buf.start)
            buf.name.append(name_id)
            buf.parent.append(stack[-1] if stack else -1)
            buf.record.append(recorder.record_id)
            buf.end.append(0.0)
            stack.append(index)
            buf.start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                buf.end[index] = clock()
                stack.pop()

        return wrapper

    def _patch(self, owner, attr: str, layer: str, label: str) -> None:
        original = owner.__dict__[attr]
        if isinstance(original, (classmethod, staticmethod)):
            wrapped = type(original)(self.spanned(layer, label, original.__func__))
        else:
            wrapped = self.spanned(layer, label, original)
        self._undo.append((owner, attr, original))
        setattr(owner, attr, wrapped)

    def install(self, entry_points) -> None:
        for module in _SUBCLASS_MODULES:
            importlib.import_module(module)
        for layer, module_name, class_name, attrs in entry_points:
            module = importlib.import_module(module_name)
            if class_name is None:
                for attr in attrs:
                    self._patch(module, attr, layer, f"{module_name}.{attr}")
                continue
            for cls in _with_subclasses(getattr(module, class_name)):
                for attr in attrs:
                    if attr in cls.__dict__:
                        self._patch(cls, attr, layer, f"{cls.__name__}.{attr}")

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def mark(self) -> None:
        """Drop the spans recorded so far (e.g. a warm-up's) from the analysis.

        Nothing is cleared: other threads may still be writing to their
        buffers, so each buffer only records where its kept spans begin.
        """
        for buf in list(self.buffers):
            buf.cutoff = len(buf.start)

    def iterate(self, source) -> Iterator:
        """Pull records from ``source``, counting them as record ids."""
        for record in source:
            self.record_id += 1
            yield record

    def loadgen_stream(self, source) -> Iterator:
        """A generator's records, each ``next()`` spanned as ``loadgen``."""
        pull = self.spanned("loadgen", "generate_records.__next__", next)
        while True:
            self.record_id += 1
            record = pull(source, None)
            if record is None:
                return
            yield record



def _with_subclasses(cls) -> List[type]:
    out, todo = [], [cls]
    while todo:
        c = todo.pop()
        if c not in out:
            out.append(c)
            todo.extend(c.__subclasses__())
    return out


@contextlib.contextmanager
def installed(entry_points=ENTRY_POINTS) -> Iterator[Recorder]:
    recorder = Recorder()
    recorder.install(entry_points)
    try:
        yield recorder
    finally:
        recorder.uninstall()


class Analysis:
    """Self time and call counts per layer, and the span-tree check."""

    def __init__(self, recorder: Recorder):
        names = recorder.names
        n_names = len(names)
        self.calls = np.zeros(n_names, dtype=np.int64)
        self.self_s = np.zeros(n_names)
        self.root_s = 0.0
        self.spans = 0
        self.errors: List[str] = []
        for buf in recorder.buffers:
            cols = buf.columns()
            name, start, end, parent = cols["name"], cols["start"], cols["end"], cols["parent"]
            if not len(start):
                continue
            dur = end - start
            has_parent = parent >= 0
            child_s = np.zeros(len(start))
            np.add.at(child_s, parent[has_parent], dur[has_parent])
            self_s = dur - child_s
            self.calls += np.bincount(name, minlength=n_names)
            self.self_s += np.bincount(name, weights=self_s, minlength=n_names)
            self.root_s += float(dur[~has_parent].sum())
            self.spans += len(start)
            if buf.stack:
                self.errors.append(f"{len(buf.stack)} spans never closed")
            if (dur < 0).any():
                self.errors.append(f"{int((dur < 0).sum())} spans end before they start")
            p = parent[has_parent]
            outside = (start[has_parent] < start[p]) | (end[has_parent] > end[p])
            if outside.any():
                self.errors.append(f"{int(outside.sum())} spans lie outside their parent")
            if (self_s < -1e-9).any():
                self.errors.append(f"{int((self_s < -1e-9).sum())} spans have negative self time")
        self.layer_calls: Dict[str, int] = {}
        self.layer_self_s: Dict[str, float] = {}
        for i, layer in enumerate(recorder.name_layer):
            self.layer_calls[layer] = self.layer_calls.get(layer, 0) + int(self.calls[i])
            self.layer_self_s[layer] = self.layer_self_s.get(layer, 0.0) + float(self.self_s[i])
        self.names = names

    @property
    def self_total_s(self) -> float:
        return sum(self.layer_self_s.values())

    def calls_of(self, names: Tuple[str, ...]) -> int:
        """Calls into the named entry points."""
        return sum(int(self.calls[i]) for i, n in enumerate(self.names) if n in names)

    def table(self, layers, per: int, unit: str) -> List[str]:
        total = self.self_total_s or 1.0
        lines = [f"  {'layer':<22} {'calls/' + unit:>12} {'self us/' + unit:>14} {'share':>7}"]
        for layer in layers:
            calls = self.layer_calls.get(layer, 0)
            self_s = self.layer_self_s.get(layer, 0.0)
            lines.append(
                f"  {layer:<22} {calls / per:12.3f} {1e6 * self_s / per:14.3f} "
                f"{100 * self_s / total:6.1f}%"
            )
        return lines


def write_spans(recorder: Recorder, tag: str) -> Path:
    """Write every span to ``.perfbench/spans-<tag>.npz`` in the checkout.

    One file per workload; a later traced run of it overwrites it.
    """
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"spans-{tag}.npz"
    columns: Dict[str, np.ndarray] = {}
    for t, buf in enumerate(recorder.buffers):
        for col, values in buf.columns().items():
            columns[f"t{t}_{col}"] = values
    columns["names"] = np.array(json.dumps(recorder.names))
    np.savez(path, **columns)
    return path


def _layer_metrics(analysis: Analysis, per: int) -> Dict[str, Tuple[float, str]]:
    metrics: Dict[str, Tuple[float, str]] = {}
    for layer in SHARED_LAYERS:
        metrics[f"{layer}.self_us_per_record"] = (
            1e6 * analysis.layer_self_s.get(layer, 0.0) / per, "us")
        metrics[f"{layer}.calls_per_record"] = (
            analysis.layer_calls.get(layer, 0) / per, "count")
    events = tuple(f"Simulator.{m}" for m in SIM_EVENT_CALLS)
    metrics["sim.events_per_record"] = (analysis.calls_of(events) / per, "count")
    return metrics


def sim_traced_run(prepared, set_up_layers: Dict[str, float]) -> int:
    """One untraced and one traced replay of a simulator workload."""
    import simload

    name = prepared.spec.name
    t0 = time.perf_counter()
    plain = simload.replay(prepared)
    plain_s = time.perf_counter() - t0
    errors = simload.outcome_errors(prepared, plain)
    if prepared.seed == checks.DEFAULT_SEED:
        errors += checks.committed_errors(name, plain)

    runner = prepared.runner
    trace, factory = runner.trace, runner.trace_factory
    with installed() as recorder:
        if factory is None:
            runner.trace = _CountedTrace(trace, recorder)
        else:
            runner.trace_factory = lambda: recorder.loadgen_stream(factory())
        try:
            t0 = time.perf_counter()
            traced = simload.replay(prepared)
            traced_s = time.perf_counter() - t0
        finally:
            runner.trace, runner.trace_factory = trace, factory
    errors += simload.outcome_errors(prepared, traced)
    if simload.outcome(traced) != simload.outcome(plain):
        errors.append(f"{name}: the traced replay's outcome differs from the untraced one")

    analysis = Analysis(recorder)
    errors += [f"{name}: span tree: {e}" for e in analysis.errors]
    gap = (traced_s - analysis.self_total_s) / traced_s
    if not 0.0 <= gap <= SUM_TOLERANCE:
        errors.append(
            f"{name}: self times sum to {analysis.self_total_s:.3f} s of "
            f"{traced_s:.3f} s traced wall time (gap {100 * gap:.1f}%, "
            f"tolerance {100 * SUM_TOLERANCE:.0f}%)"
        )
    path = write_spans(recorder, name)
    records = plain.records
    note(f"{name}: traced replay {traced_s:.2f} s, untraced {plain_s:.2f} s, "
         f"{analysis.spans} spans written to {path.relative_to(OUT_DIR.parent)}")
    note(f"  span tree: {'ok' if not analysis.errors else 'FAILED'}; self times cover "
         f"{100 * (1 - gap):.1f}% of traced wall time (tolerance {100 * SUM_TOLERANCE:.0f}%)")
    for line in analysis.table(LAYERS, records, "record"):
        note(line)
    note("  set-up layers (median over the set-ups, s): " + ", ".join(
        f"{k} {v:.4f}" for k, v in set_up_layers.items()))
    report_errors(errors)
    metrics = _layer_metrics(analysis, records)
    metrics.update(simload.layer_counters(plain))
    metrics["trace.overhead_x"] = (traced_s / plain_s, "x")
    emit(not errors, 2 * prepared.n_records, 2 * prepared.n_records - plain.records - traced.records, metrics)
    return 0 if not errors else 1


class _CountedTrace:
    """A materialized trace whose iteration advances the record id."""

    def __init__(self, trace, recorder: Recorder):
        self.trace = trace
        self.meta = trace.meta
        self.recorder = recorder

    def __len__(self) -> int:
        return len(self.trace)

    def __iter__(self) -> Iterator:
        return self.recorder.iterate(self.trace)


def service_traced_run(seed: int, seconds: float) -> int:
    """The service's reference rung, untraced and then traced."""
    import simload
    import svcload

    plain = svcload.measure(seed, seconds)
    errors = list(plain.errors)
    with installed(ENTRY_POINTS + SERVICE_ENTRY_POINTS) as recorder:

        def on_send() -> None:
            recorder.record_id += 1

        # The service starts after the wrappers are in, so every object
        # it builds calls them; set-up and warm-up spans are dropped.
        traced = svcload.measure(
            seed, seconds, full=False, before_ref=recorder.mark, on_send=on_send
        )
    errors += traced.errors
    analysis = Analysis(recorder)
    errors += [f"service_mixed: span tree: {e}" for e in analysis.errors]
    requests = traced.ref.sent
    path = write_spans(recorder, "service_mixed")
    note(f"service_mixed: traced reference rung, {requests} requests, CPU "
         f"{traced.ref_cpu_s:.3f} s traced vs {plain.ref_cpu_s:.3f} s untraced, "
         f"{analysis.spans} spans written to {path.relative_to(OUT_DIR.parent)}")
    note(f"  span tree: {'ok' if not analysis.errors else 'FAILED'} (a record is a request)")
    for line in analysis.table(LAYERS + ("service", "service.qos"), requests, "request"):
        note(line)
    queued = [q for rung in plain.rungs for q in rung.queue_ms]
    note(
        f"  service.queue_ms_p99 {percentile(queued, 99.0):.3f} ms, service.busy_frac "
        f"{sum(r.busy for r in plain.rungs) / plain.sent:.4f}, service.gen_late_ms_max "
        f"{max(r.late_ms_max for r in plain.rungs):.3f} ms (untraced run, every rung)"
    )
    report_errors(errors)
    metrics = _layer_metrics(analysis, requests)
    metrics.update(simload.layer_counters(plain.result))
    metrics["trace.overhead_x"] = (traced.ref_cpu_s / plain.ref_cpu_s, "x")
    sent = plain.sent + traced.sent
    emit(not errors, sent, sent - plain.ok - traced.ok, metrics)
    return 0 if not errors else 1
