"""Structured tracing with Chrome trace-event export.

A process-global :class:`Tracer` records **nested spans** (named,
attributed, counter-carrying intervals) and exports them in the Chrome
trace-event JSON format, loadable in Perfetto (https://ui.perfetto.dev)
or ``chrome://tracing``.  The flow is instrumented at every layer — the
pass pipeline, the sweep driver, the flow-equivalence checkers and the
simulator engines — so one trace of a sweep shows where the time went:
which pass of which cell, which equivalence block, which engine, how
many events each scalar run popped.

Design constraints, in order:

1. **Zero overhead when disabled.**  Tracing is off by default;
   :meth:`Tracer.span` then returns the shared :data:`NULL_SPAN` whose
   every method is a no-op, and :meth:`Tracer.count` returns after one
   attribute check.  Instrumentation sits at call boundaries (one span
   per simulator run, per pass, per sweep cell), never inside per-event
   loops — the engines accumulate their own counters locally and attach
   totals when a run ends.
2. **Stdlib only.**  This module imports nothing from the rest of the
   package, so any layer (netlist core included) may import it without
   creating a cycle.
3. **One file out.**  Activation via the ``REPRO_TRACE=<path>``
   environment variable arms the tracer at import time and writes the
   trace at interpreter exit; activation via :meth:`Tracer.start` /
   :meth:`Tracer.stop` brackets a region explicitly (tests, benches).

Span timestamps are microseconds relative to the tracer's start (the
trace-event ``ts`` convention); durations come from
:func:`time.perf_counter`.

While armed, a tracer also records every cyclic garbage collection as a
``gc`` complete event (with the ``generation`` collected and the number
of objects ``collected``) through a :data:`gc.callbacks` hook, so GC
pauses show as their own slices instead of hiding inside whichever span
allocated.  The hook is registered by :meth:`Tracer.start` and removed
by :meth:`Tracer.stop` and :meth:`Tracer.disarm`.
"""

from __future__ import annotations

import atexit
import gc
import json
import os
import threading
from time import perf_counter

#: Environment variable that arms the process-global tracer at import
#: time; its value is the output path written at interpreter exit.
TRACE_ENV = "REPRO_TRACE"


class _NullSpan:
    """The disabled-tracer span: every operation is a no-op.

    A single shared instance (:data:`NULL_SPAN`) is returned by
    :meth:`Tracer.span` whenever tracing is off, so instrumented code
    needs no ``if enabled`` branches of its own.
    """

    __slots__ = ()

    def set(self, **attrs) -> "_NullSpan":
        return self

    def count(self, name: str, value: int = 1) -> "_NullSpan":
        return self

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc) -> bool:
        return False


#: Shared no-op span handed out while tracing is disabled.
NULL_SPAN = _NullSpan()


class Span:
    """One live span: a named interval with attributes and counters.

    Use as a context manager; :meth:`set` attaches attributes and
    :meth:`count` accumulates counters, both exported in the event's
    ``args``.  An exception propagating through the span records its
    type under the ``error`` attribute.
    """

    __slots__ = ("name", "attrs", "counters", "_tracer", "_start_us",
                 "_tid")

    def __init__(self, tracer: "Tracer", name: str,
                 attrs: dict[str, object]):
        self.name = name
        self.attrs = attrs
        self.counters: dict[str, int | float] = {}
        self._tracer = tracer
        self._start_us = tracer._now_us()
        self._tid = tracer._tid()

    def set(self, **attrs) -> "Span":
        """Attach attributes (exported under the event's ``args``)."""
        self.attrs.update(attrs)
        return self

    def count(self, name: str, value: int | float = 1) -> "Span":
        """Accumulate a named counter on this span."""
        self.counters[name] = self.counters.get(name, 0) + value
        return self

    def __enter__(self) -> "Span":
        self._tracer._stack().append(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        if exc_type is not None:
            self.attrs["error"] = exc_type.__name__
        stack = self._tracer._stack()
        if stack and stack[-1] is self:
            stack.pop()
        self._tracer._emit_complete(self)
        return False


class Tracer:
    """Process-global trace recorder (see the module docstring).

    The recorder is append-only while enabled; :meth:`stop` freezes and
    returns the events (writing them to the armed path, if any), and
    :meth:`start` re-arms from scratch.  ``list.append`` is atomic under
    the GIL, so concurrent spans from multiple threads interleave
    safely; each thread gets its own span stack and ``tid``.
    """

    def __init__(self) -> None:
        self._events: list[dict[str, object]] = []
        self._enabled = False
        self._path: str | None = None
        self._epoch = perf_counter()
        self._local = threading.local()
        self._tids: dict[int, int] = {}
        self._totals: dict[str, int | float] = {}
        self._gc_start_us: float | None = None

    # -- lifecycle -----------------------------------------------------
    @property
    def enabled(self) -> bool:
        return self._enabled

    @property
    def path(self) -> str | None:
        """Output path the trace will be written to on :meth:`stop`."""
        return self._path

    def start(self, path: str | None = None) -> None:
        """Arm the tracer (clearing any previous recording).

        ``path``, when given, is where :meth:`stop` (or interpreter
        exit, for env-var activation) writes the Chrome trace JSON.
        """
        self._events = []
        self._totals = {}
        self._epoch = perf_counter()
        self._path = path
        self._gc_start_us = None
        self._enabled = True
        if self._on_gc not in gc.callbacks:
            gc.callbacks.append(self._on_gc)

    def stop(self) -> list[dict[str, object]]:
        """Disarm, write to the armed path (if any), return the events."""
        self._enabled = False
        self._unhook_gc()
        if self._path and self._events:
            self.write(self._path)
        return list(self._events)

    def disarm(self) -> None:
        """Disable and forget everything — recording, armed path, events.

        Unlike :meth:`stop` nothing is written: this is for forked
        grid-pool workers that inherit the parent's armed tracer (and its
        ``atexit`` write hook) but must not clobber the parent's output
        file.  Workers re-:meth:`start` with no path and hand their
        events back for the parent to :meth:`ingest`.
        """
        self._enabled = False
        self._unhook_gc()
        self._path = None
        self._events = []
        self._totals = {}

    def ingest(self, events: list[dict[str, object]], pid: int) -> int:
        """Merge foreign events (a worker's recording) into this trace.

        ``pid`` relabels the events' process id so each shard gets its
        own track in the viewer (the parent records as pid 1).  Worker
        timestamps are kept as-is — they are relative to the worker's
        own epoch, which for pool workers starts at pool spin-up, so
        tracks align closely enough for cost attribution.  Returns the
        number of events ingested.  No-op while disabled.
        """
        if not self._enabled:
            return 0
        for event in events:
            merged = dict(event)
            merged["pid"] = pid
            self._events.append(merged)
        return len(events)

    # -- recording -----------------------------------------------------
    def span(self, name: str, **attrs) -> Span | _NullSpan:
        """Open a span (returns :data:`NULL_SPAN` while disabled)."""
        if not self._enabled:
            return NULL_SPAN
        return Span(self, name, attrs)

    def count(self, name: str, value: int | float = 1) -> None:
        """Accumulate a counter on the innermost open span.

        Outside any span the value lands in a process-wide total and is
        emitted as a Chrome counter-track (``ph: "C"``) sample instead.
        No-op while disabled.
        """
        if not self._enabled:
            return
        stack = self._stack()
        if stack:
            stack[-1].count(name, value)
            return
        self._totals[name] = self._totals.get(name, 0) + value
        self._events.append({
            "name": name, "ph": "C", "ts": self._now_us(),
            "pid": 1, "tid": self._tid(),
            "args": {"value": self._totals[name]},
        })

    def instant(self, name: str, **attrs) -> None:
        """Emit an instant event (``ph: "i"``), e.g. a proof outcome."""
        if not self._enabled:
            return
        self._events.append({
            "name": name, "ph": "i", "s": "t", "ts": self._now_us(),
            "pid": 1, "tid": self._tid(), "args": dict(attrs),
        })

    # -- export --------------------------------------------------------
    def events(self) -> list[dict[str, object]]:
        """Snapshot of the recorded events (oldest first)."""
        return list(self._events)

    def export(self) -> dict[str, object]:
        """The Chrome trace-event JSON object for the recording so far."""
        return {"traceEvents": list(self._events),
                "displayTimeUnit": "ms"}

    def write(self, path: str) -> str:
        """Write the recording so far as Chrome trace-event JSON."""
        directory = os.path.dirname(path)
        if directory:
            os.makedirs(directory, exist_ok=True)
        with open(path, "w") as handle:
            json.dump(self.export(), handle, indent=1, default=str)
            handle.write("\n")
        return path

    # -- internals -----------------------------------------------------
    def _now_us(self) -> float:
        return (perf_counter() - self._epoch) * 1e6

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _tid(self) -> int:
        ident = threading.get_ident()
        tid = self._tids.get(ident)
        if tid is None:
            tid = self._tids[ident] = len(self._tids) + 1
        return tid

    def _unhook_gc(self) -> None:
        if self._on_gc in gc.callbacks:
            gc.callbacks.remove(self._on_gc)

    def _on_gc(self, phase: str, info: dict[str, int]) -> None:
        if not self._enabled:
            return
        now = self._now_us()
        if phase == "start":
            self._gc_start_us = now
        elif self._gc_start_us is not None:
            self._events.append({
                "name": "gc", "ph": "X", "ts": self._gc_start_us,
                "dur": now - self._gc_start_us,
                "pid": 1, "tid": self._tid(),
                "args": {"generation": info["generation"],
                         "collected": info["collected"]},
            })
            self._gc_start_us = None

    def _emit_complete(self, span: Span) -> None:
        if not self._enabled:
            return  # stopped while the span was open: drop it
        args: dict[str, object] = dict(span.attrs)
        args.update(span.counters)
        self._events.append({
            "name": span.name, "ph": "X", "ts": span._start_us,
            "dur": self._now_us() - span._start_us,
            "pid": 1, "tid": span._tid, "args": args,
        })


#: The process-global tracer every instrumentation point records into.
TRACER = Tracer()


def get_tracer() -> Tracer:
    """The process-global tracer."""
    return TRACER


def span(name: str, **attrs) -> Span | _NullSpan:
    """Open a span on the process-global tracer."""
    return TRACER.span(name, **attrs)


def trace_count(name: str, value: int | float = 1) -> None:
    """Accumulate a counter on the process-global tracer."""
    TRACER.count(name, value)


def _activate_from_env() -> None:
    """Arm the global tracer when ``REPRO_TRACE`` names an output path.

    Runs once at import; the trace is written at interpreter exit (or
    earlier, by an explicit :meth:`Tracer.stop`).
    """
    path = os.environ.get(TRACE_ENV)
    if path:
        TRACER.start(path)
        atexit.register(TRACER.stop)


_activate_from_env()
