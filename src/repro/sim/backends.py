"""The event-driven engine registry.

The interchangeable event-driven engines implement the event-simulation
contract (identical constructor and observation surface, identical
event-for-event behaviour): the interpreter-style
:class:`~repro.sim.simulator.EventSimulator` and the slot-compiled
:class:`~repro.sim.compiled.CompiledSimulator`.  Code that runs
de-synchronized fabrics selects between them by name through
:func:`make_simulator`, so callers (flow-equivalence checking, hold
verification, benchmarks, the differential harness) stay engine-agnostic.
"""

from __future__ import annotations

from collections.abc import Iterator
from contextlib import contextmanager

from repro.netlist.core import Netlist
from repro.sim.compiled import CompiledSimulator
from repro.sim.simulator import EventSimulator
from repro.utils.errors import SimulationError

#: Name -> class for the interchangeable event-driven engines.
EVENT_BACKENDS: dict[str, type] = {
    "event": EventSimulator,
    "compiled": CompiledSimulator,
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
