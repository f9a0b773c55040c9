"""The event recorder behind the simulator's observability layer.

Events are stored as flat tuples (cheap to append on hot paths)::

    (run, phase, track, name, ts, dur, span_id, args)

* ``run`` — index into :attr:`Tracer.runs`; one traced process may
  contain several simulated runs (e.g. a figure sweep's cells), each
  exported as its own Chrome-trace process;
* ``phase`` — Chrome trace-event phase: ``"X"`` complete span, ``"i"``
  instant, ``"b"``/``"e"`` async span begin/end, matched by ``span_id``;
* ``track`` — logical timeline ("host", "bus", "ctrl3", "disk3",
  "disk3/state"); the exporter maps tracks to Chrome thread ids;
* ``ts``/``dur`` — simulated milliseconds;
* ``args`` — a small dict of structured details, or ``None``.

Components never construct events directly; they call
:meth:`Tracer.begin`/:meth:`Tracer.end` (overlappable request-lifecycle
spans), :meth:`Tracer.complete` (retrospective closed spans, e.g. a
media operation whose duration is known when scheduled) and
:meth:`Tracer.instant` (point events: cache hits, evictions, pins).

Every emit site in the simulator is guarded by ``tracer.enabled`` so
the disabled path — the shared :data:`NULL_TRACER` — costs one
attribute check and performs no allocation. A global *active tracer*
(:func:`install_tracer` / :func:`active_tracer`) lets the experiments
CLI switch a whole run to an instrumented tracer without threading a
parameter through every constructor; :class:`~repro.host.system.System`
picks it up by default.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Any, Dict, List, Optional, Tuple


class Tracer:
    """Records structured simulator events with simulated timestamps."""

    enabled = True

    def __init__(self, limit: Optional[int] = None):
        """``limit`` caps the number of recorded events; once reached,
        further events are counted in :attr:`dropped` and discarded
        (ends of already-open spans are still recorded so span trees
        stay balanced)."""
        if limit is not None and limit < 1:
            raise ValueError(f"trace limit must be >= 1, got {limit}")
        self.limit = limit
        self.events: List[tuple] = []
        self.dropped = 0
        #: Labels of the simulated runs seen so far (index = event run).
        self.runs: List[str] = ["run"]
        self._run = 0
        self._clock: Any = None
        self._next_span = 1
        self._open_spans = 0
        # Span ids whose "b" made it into `events` before the limit:
        # only their "e" is forced through, so a truncated trace still
        # contains balanced span trees (bounded by concurrent spans).
        self._live_spans: set = set()

    # -- wiring --------------------------------------------------------

    def bind_clock(self, sim: Any) -> None:
        """Stamp events from ``sim.now`` (a :class:`Simulator`)."""
        self._clock = sim

    def now(self) -> float:
        """Current simulated time (0.0 before a clock is bound)."""
        clock = self._clock
        return clock.now if clock is not None else 0.0

    def new_run(self, label: str) -> int:
        """Start a new run partition; subsequent events belong to it.

        The first ``new_run`` renames the implicit initial run instead
        of abandoning an empty partition.
        """
        if self._run == 0 and not self.events:
            self.runs[0] = label
        else:
            self.runs.append(label)
            self._run = len(self.runs) - 1
        return self._run

    # -- recording -----------------------------------------------------

    def _record(
        self,
        ph: str,
        track: str,
        name: str,
        ts: float,
        dur: float,
        span_id: int,
        args: Optional[Dict[str, Any]],
        force: bool = False,
    ) -> bool:
        if (
            self.limit is not None
            and len(self.events) >= self.limit
            and not force
        ):
            self.dropped += 1
            return False
        self.events.append((self._run, ph, track, name, ts, dur, span_id, args))
        return True

    def begin(self, track: str, name: str, **args: Any) -> int:
        """Open an async span on ``track``; returns its span id.

        Async spans may overlap freely on one track (concurrent
        requests); close with :meth:`end` passing the returned id. A
        span id is never 0, so callers can use 0 as "no span".
        """
        span_id = self._next_span
        self._next_span += 1
        self._open_spans += 1
        if self._record("b", track, name, self.now(), 0.0, span_id, args or None):
            self._live_spans.add(span_id)
        return span_id

    def end(self, track: str, name: str, span_id: int, **args: Any) -> None:
        """Close the async span ``span_id`` opened with :meth:`begin`.

        When the begin fell victim to the event limit, the end is
        dropped too (recording it would orphan an "e" with no "b").
        """
        self._open_spans -= 1
        if span_id in self._live_spans:
            self._live_spans.discard(span_id)
            self._record(
                "e", track, name, self.now(), 0.0, span_id, args or None,
                force=True,
            )
        else:
            self.dropped += 1

    def complete(
        self, track: str, name: str, start_ts: float, dur: float, **args: Any
    ) -> None:
        """Record a closed span ``[start_ts, start_ts + dur)``."""
        self._record("X", track, name, start_ts, dur, 0, args or None)

    def instant(self, track: str, name: str, **args: Any) -> None:
        """Record a point event at the current simulated time."""
        self._record("i", track, name, self.now(), 0.0, 0, args or None)

    # -- introspection -------------------------------------------------

    @property
    def open_spans(self) -> int:
        """Async spans begun but not yet ended."""
        return self._open_spans

    def __len__(self) -> int:
        return len(self.events)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<Tracer events={len(self.events)} dropped={self.dropped} "
            f"runs={len(self.runs)}>"
        )


class NullTracer:
    """The disabled tracer: same surface as :class:`Tracer`, all no-ops.

    ``enabled`` is False, so instrumented hot paths skip argument
    construction entirely; calling the methods anyway is still safe
    (and free of allocation — :attr:`events` is a shared empty tuple).
    """

    enabled = False
    events: Tuple = ()
    dropped = 0
    runs: Tuple = ()
    open_spans = 0

    def bind_clock(self, sim: Any) -> None:
        """No-op."""

    def now(self) -> float:
        """Always 0.0."""
        return 0.0

    def new_run(self, label: str) -> int:
        """No-op; always run 0."""
        return 0

    def begin(self, track: str, name: str, **args: Any) -> int:
        """No-op; always span id 0."""
        return 0

    def end(self, track: str, name: str, span_id: int, **args: Any) -> None:
        """No-op."""

    def complete(
        self, track: str, name: str, start_ts: float, dur: float, **args: Any
    ) -> None:
        """No-op."""

    def instant(self, track: str, name: str, **args: Any) -> None:
        """No-op."""

    def __len__(self) -> int:
        return 0


#: Shared disabled tracer; the default everywhere.
NULL_TRACER = NullTracer()

_active: Any = NULL_TRACER


def install_tracer(tracer: Tracer) -> None:
    """Make ``tracer`` the process-wide active tracer.

    Newly constructed :class:`~repro.host.system.System` objects (and
    :class:`~repro.experiments.runner.TechniqueRunner` runs) pick the
    active tracer up automatically.
    """
    global _active
    _active = tracer


def uninstall_tracer() -> None:
    """Restore the disabled default tracer."""
    global _active
    _active = NULL_TRACER


def active_tracer() -> Any:
    """The process-wide active tracer (``NULL_TRACER`` by default)."""
    return _active


@contextmanager
def tracing(tracer: Tracer):
    """Context manager: install ``tracer`` for the block's duration."""
    previous = _active
    install_tracer(tracer)
    try:
        yield tracer
    finally:
        install_tracer(previous)
