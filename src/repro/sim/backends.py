"""Simulator backend registries.

**Event-driven engines** implement the event-simulation contract
(identical constructor and observation surface, identical event-for-
event behaviour): the interpreter-style
:class:`~repro.sim.simulator.EventSimulator` and the slot-compiled
:class:`~repro.sim.compiled.CompiledSimulator`.  Code that runs
de-synchronized fabrics selects between them by name through
:func:`make_simulator`, so callers (flow-equivalence checking, hold
verification, benchmarks, the differential harness) stay engine-agnostic.

**Cycle engines** have the per-cycle stepping interface and are only
meaningful for globally-clocked netlists; they live in their own
registry.  Scalar (:mod:`repro.sim.sync`) and lane-parallel
(:mod:`repro.sim.vector`) variants exist for both the flip-flop and the
two-phase latch form; :func:`make_cycle_simulator` selects by name.
The differential harness in :mod:`repro.testing` is what relates the
cycle engines to the event engines.

**Async batch engines** run *de-synchronized* fabrics many stimuli at a
time: :class:`~repro.sim.vector_async.ScheduleReplaySimulator` records
the data-independent firing schedule from one scalar event run and
replays it lane-parallel.  It applies only when
:func:`~repro.sim.vector_async.check_schedule_replayable` proves the
control/data decomposition; callers fall back to per-stimulus event
simulation (with the recorded reason) otherwise.
"""

from __future__ import annotations

from collections.abc import Iterator
from contextlib import contextmanager

from repro.netlist.core import Netlist
from repro.sim.compiled import CompiledSimulator
from repro.sim.simulator import EventSimulator
from repro.sim.sync import CycleSimulator, LatchCycleSimulator
from repro.sim.vector import VectorCycleSimulator, VectorLatchCycleSimulator
from repro.sim.vector_async import ScheduleReplaySimulator
from repro.utils.errors import SimulationError

#: Name -> class for the interchangeable event-driven engines.
EVENT_BACKENDS: dict[str, type] = {
    "event": EventSimulator,
    "compiled": CompiledSimulator,
}

#: Name -> class for the cycle-stepping engines (globally-clocked
#: netlists only).  ``cycle``/``latch-cycle`` are the scalar reference
#: semantics; ``vector``/``vector-latch`` advance many lanes per pass
#: over bigint words.
CYCLE_BACKENDS: dict[str, type] = {
    "cycle": CycleSimulator,
    "latch-cycle": LatchCycleSimulator,
    "vector": VectorCycleSimulator,
    "vector-latch": VectorLatchCycleSimulator,
}

#: Name -> class for the lane-parallel engines that batch *asynchronous*
#: (de-synchronized) fabrics across stimuli.
ASYNC_BACKENDS: dict[str, type] = {
    "replay": ScheduleReplaySimulator,
}

#: The project-wide default event engine, and the one place that
#: decides it.  The compiled engine is event-for-event identical to the
#: interpreter and faster on every measured check (1.6-4.6x on hold and
#: equivalence runs); :class:`~repro.sim.simulator.EventSimulator` stays
#: the oracle that the parity tests and the differential harness select
#: by name (``backend="event"``).
DEFAULT_BACKEND = "compiled"


def backend_names() -> list[str]:
    """Registered event-backend names, sorted."""
    return sorted(EVENT_BACKENDS)


def cycle_backend_names() -> list[str]:
    """Registered cycle-backend names, sorted."""
    return sorted(CYCLE_BACKENDS)


def _event_backend(backend: str) -> type:
    try:
        return EVENT_BACKENDS[backend]
    except KeyError:
        raise SimulationError(
            f"unknown simulator backend {backend!r} "
            f"(have: {', '.join(backend_names())})") from None


def make_simulator(netlist: Netlist, backend: str = DEFAULT_BACKEND,
                   **kwargs) -> EventSimulator | CompiledSimulator:
    """Instantiate the event-driven engine called ``backend``.

    ``kwargs`` are forwarded to the engine constructor (``record``,
    ``record_all``, ``record_energy``, ``initial_inputs``, and
    ``delay_model`` — a :class:`repro.timing.DelayModel` perturbing
    per-instance delays, honoured identically by both engines).  Raises
    :class:`SimulationError` for an unknown backend name.
    """
    return _event_backend(backend)(netlist, **kwargs)


@contextmanager
def reused_simulator(netlist: Netlist, backend: str = DEFAULT_BACKEND,
                     initial_inputs: dict | None = None,
                     delay_model=None,
                     ) -> Iterator[EventSimulator | CompiledSimulator]:
    """An engine in its just-constructed state, reused across calls.

    Equal to ``make_simulator(netlist, backend, initial_inputs=...,
    delay_model=...)`` event for event, but when the engine the last
    call on this netlist parked has the same class, delay model and
    initial inputs, it is
    :meth:`reset <repro.sim.compiled.CompiledSimulator.reset>` instead
    of rebuilt — the fault campaign simulates one fabric under one
    stimulus dozens of times.  The engine is checked out for the
    ``with`` body (a nested call builds its own) and parked afterwards
    in the netlist's :meth:`~repro.netlist.core.Netlist.memo`, one per
    netlist, so a mutation drops it.  Keyed on the class, not the name,
    so a re-registered backend is honoured.
    """
    cls = _event_backend(backend)
    if delay_model is not None and delay_model.is_identity:
        delay_model = None
    key = (cls, delay_model, tuple(sorted((initial_inputs or {}).items())))
    parked = netlist.memo("parked-simulator", dict)
    sim = parked.pop(key, None)
    if sim is None:
        sim = cls(netlist, initial_inputs=initial_inputs,
                  delay_model=delay_model)
    else:
        sim.reset()
    try:
        yield sim
    finally:
        parked.clear()
        parked[key] = sim


def async_backend_names() -> list[str]:
    """Registered async-batch backend names, sorted."""
    return sorted(ASYNC_BACKENDS)


def make_async_simulator(netlist: Netlist, backend: str = "replay",
                         **kwargs) -> ScheduleReplaySimulator:
    """Instantiate the async-batch engine called ``backend``.

    ``kwargs`` forward to the engine constructor (``lanes``,
    ``scalar_backend``, ``initial_inputs``).  Raises
    :class:`SimulationError` for an unknown backend name — and, for the
    replay engine, when the netlist fails the data-independence proof
    (callers that want a graceful fallback check
    :func:`~repro.sim.vector_async.check_schedule_replayable` first).
    """
    try:
        cls = ASYNC_BACKENDS[backend]
    except KeyError:
        raise SimulationError(
            f"unknown async-simulator backend {backend!r} "
            f"(have: {', '.join(async_backend_names())})") from None
    return cls(netlist, **kwargs)


def make_cycle_simulator(netlist: Netlist, backend: str = "cycle", **kwargs):
    """Instantiate the cycle-stepping engine called ``backend``.

    ``kwargs`` forward to the engine constructor (``record_toggles``
    for the scalar engines, ``lanes`` for the vector ones).  Raises
    :class:`SimulationError` for an unknown backend name.
    """
    try:
        cls = CYCLE_BACKENDS[backend]
    except KeyError:
        raise SimulationError(
            f"unknown cycle-simulator backend {backend!r} "
            f"(have: {', '.join(cycle_backend_names())})") from None
    return cls(netlist, **kwargs)
