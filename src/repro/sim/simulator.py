"""Event-driven gate-level logic simulator.

Simulates any :class:`~repro.netlist.core.Netlist` with per-cell
propagation delays: combinational gates, D flip-flops, transparent
latches, Muller C-elements and tie cells.  This is the engine that runs
the *de-synchronized* circuits, where latch controls are produced by
handshake controller gates rather than a global clock — and, symmetric
with the paper's methodology, it can also run the synchronous version by
driving the clock port with a periodic stimulus.

The simulator records, per run:

* value-change history for selected nets (waveforms);
* toggle counts for every net (the input to the power model);
* **capture streams**: the sequence of values stored by every latch at
  each closing edge and by every flip-flop at each active clock edge —
  the observable that defines *flow equivalence* between the synchronous
  and de-synchronized circuits.

Timing model: transport delay per cell; a scheduled output change is
dropped if the output already has that value when the event matures
(glitches shorter than the cell delay are filtered, which approximates
inertial behaviour closely enough for delay-matched circuits).
"""

from __future__ import annotations

import heapq
from collections import defaultdict
from collections.abc import Callable
from dataclasses import dataclass

from repro.netlist.cells import (
    CellKind,
    PIN_D,
    PIN_ENABLE,
    PIN_RESET_N,
)
from repro.netlist.core import Instance, Net, Netlist
from repro.obs.trace import TRACER as _TRACER
from repro.sim.events import EventQueue, resolve_delays
from repro.sim.logic import Value, is_falling, is_rising
from repro.utils.errors import SimulationError

#: Sentinel "net name" marking a control event on the queue: its payload
#: partner is a zero-argument callable (force/release/glitch application)
#: run when the event matures, time-ordered with the value events.
_CONTROL = object()

#: Default ``value`` of :meth:`EventSimulator.inject_glitch`: pulse to
#: the inverse of the net's value at injection time (``None`` is the X
#: value, so it cannot double as the default).
INVERT = object()


@dataclass
class Capture:
    """One sequential capture: the latch/FF stored ``value`` at ``time``."""

    time: float
    value: Value


class SimStats:
    """Aggregate results of a simulation run.

    ``toggles`` is the real-transition count per net name as of the end
    of the run.  An engine may pass it as a zero-argument callable over
    a snapshot it took; the dict is then built on first access, so a
    caller that polls ``run`` and never reads it (the paced environment
    loop of flow-equivalence checking) pays no per-net work for it.
    """

    __slots__ = ("end_time", "n_events", "_toggles")

    def __init__(self, end_time: float = 0.0, n_events: int = 0,
                 toggles: dict[str, int] | Callable[[], dict[str, int]]
                 | None = None):
        self.end_time = end_time
        self.n_events = n_events
        self._toggles = {} if toggles is None else toggles

    @property
    def toggles(self) -> dict[str, int]:
        if callable(self._toggles):
            self._toggles = self._toggles()
        return self._toggles


class EventSimulator:
    """Event-driven simulator over a validated netlist.

    Args:
        netlist: the circuit to simulate (validated; may contain
            combinational loops only through C-elements/latches).
        record: names of nets whose full value-change history to keep.
        record_all: keep history for every net (memory-heavy).
    """

    def __init__(self, netlist: Netlist, record: list[str] | None = None,
                 record_all: bool = False, record_energy: bool = False,
                 initial_inputs: dict[str, Value] | None = None,
                 delay_model=None):
        """``initial_inputs`` are input-port values present *during reset*:
        they participate in the t = 0 settle (no events, no toggles), as
        if the environment had been driving them while the circuit sat in
        reset — required when self-timed logic starts switching within a
        few gate delays of release.

        ``delay_model`` (a :class:`repro.timing.DelayModel`, or anything
        with ``is_identity``/``factor``) perturbs per-instance
        propagation delays; ``None`` keeps nominal ``cell.delay``."""
        self.netlist = netlist
        # Per-instance perturbed delays, or None for the nominal path.
        self._delays = resolve_delays(netlist, delay_model)
        # Fault-injection overrides: forced nets ignore driver events
        # until released.
        self._forced: dict[str, Value] = {}
        self.now = 0.0
        self.values: dict[str, Value] = {name: None for name in netlist.nets}
        for port, value in (initial_inputs or {}).items():
            net = netlist.nets.get(port)
            if net is None or not net.is_input_port:
                raise SimulationError(f"{port} is not an input port")
            self.values[port] = value
        self.history: dict[str, list[tuple[float, Value]]] = defaultdict(list)
        self.captures: dict[str, list[Capture]] = defaultdict(list)
        self.toggle_counts: dict[str, int] = defaultdict(int)
        self.n_events = 0
        # (time, energy fJ) per transition, for supply-current profiles.
        self.energy_events: list[tuple[float, float]] = []
        self._record_energy = record_energy
        self._recorded = set(record or [])
        self._record_all = record_all
        self._queue = EventQueue()
        # Sequential internal state: stored output value per instance.
        self._state: dict[str, Value] = {}
        for inst in netlist.instances.values():
            if inst.is_sequential or inst.is_celement:
                self._state[inst.name] = inst.init
        self._initialize()
        # What :meth:`reset` restores.
        self._reset_point = (dict(self.values), dict(self._state),
                             list(self._queue.heap),
                             {name: list(h)
                              for name, h in self.history.items()})

    # ------------------------------------------------------------------
    # stimulus
    # ------------------------------------------------------------------
    def set_input(self, port: str, value: Value, time: float | None = None) -> None:
        """Drive an input port to ``value`` at ``time`` (default: now)."""
        net = self.netlist.nets.get(port)
        if net is None or not net.is_input_port:
            raise SimulationError(f"{port} is not an input port")
        self._queue.push(self.now if time is None else time, (port, value))

    def add_clock(self, port: str, period: float, until: float,
                  first_edge: float | None = None, start_value: int = 0) -> None:
        """Schedule a 50 %-duty clock on ``port`` up to time ``until``."""
        half = period / 2.0
        time = first_edge if first_edge is not None else half
        self.set_input(port, start_value, 0.0)
        value = 1 - start_value
        while time <= until:
            self.set_input(port, value, time)
            value = 1 - value
            time += half

    # ------------------------------------------------------------------
    # fault injection
    # ------------------------------------------------------------------
    def force_net(self, net: str, value: Value,
                  time: float | None = None) -> None:
        """Stuck-at fault: pin ``net`` to ``value`` from ``time`` on.

        While forced, driver events targeting the net are dropped; the
        forced transition itself propagates to sinks like any event.
        """
        if net not in self.netlist.nets:
            raise SimulationError(f"cannot force unknown net {net}")
        when = self.now if time is None else time
        self._queue.push(when,
                         (_CONTROL, lambda: self._apply_force(net, value)))

    def release_net(self, net: str, time: float | None = None) -> None:
        """Lift a force; the driver re-asserts its value one cell delay
        after the release matures."""
        if net not in self.netlist.nets:
            raise SimulationError(f"cannot release unknown net {net}")
        when = self.now if time is None else time
        self._queue.push(when, (_CONTROL, lambda: self._apply_release(net)))

    def inject_glitch(self, net: str, at: float, duration: float,
                      value: Value | object = INVERT) -> None:
        """Transient fault: pulse ``net`` for ``duration`` starting at
        ``at``.  The default :data:`INVERT` pulses to the opposite of
        whatever the net holds at injection time (X counts as 0, so the
        pulse is 1); pass ``None`` explicitly to drive the net to X for
        the duration — the conservative model of an undersized or
        near-threshold transient, whose indeterminacy then propagates
        through the ternary gate evaluation.
        """
        if net not in self.netlist.nets:
            raise SimulationError(f"cannot glitch unknown net {net}")
        if duration <= 0:
            raise SimulationError(f"glitch duration must be > 0, "
                                  f"got {duration}")

        def fire() -> None:
            pulse = value
            if pulse is INVERT:
                pulse = 0 if self.values[net] == 1 else 1
            self._apply_force(net, pulse)

        self._queue.push(at, (_CONTROL, fire))
        self._queue.push(at + duration,
                         (_CONTROL, lambda: self._apply_release(net)))

    @property
    def forced_nets(self) -> dict[str, Value]:
        """Currently active forces (net name -> pinned value)."""
        return dict(self._forced)

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def reset(self) -> None:
        """Return to the state construction left.

        Restores the settled values, stored state, pending kick events
        and t = 0 history, and clears captures, toggles, events, energy
        events, forces and time, so the next run equals a fresh
        engine's event for event.  The queue's sequence counter keeps
        counting; every later push still orders after the restored
        events.
        """
        values, state, heap, history = self._reset_point
        self.values = dict(values)
        self._state = dict(state)
        self._queue.heap[:] = heap
        self.history = defaultdict(
            list, {name: list(h) for name, h in history.items()})
        self.captures = defaultdict(list)
        self.toggle_counts = defaultdict(int)
        self._forced = {}
        self.energy_events = []
        self.now = 0.0
        self.n_events = 0

    def peek_time(self) -> float | None:
        """Time of the next pending event, or None when none is."""
        return self._queue.peek_time()

    def run(self, until: float) -> SimStats:
        """Process events up to and including time ``until``.

        The scheduler loop binds every hot attribute to a local once and
        drains all events of one timestamp per outer iteration, so the
        time-advance bookkeeping is paid per *instant* rather than per
        event — same event order (the heap already serves ties in
        sequence order), same observable behaviour, measurably fewer
        dictionary lookups on fabric-sized runs.
        """
        heap = self._queue.heap
        pop = heapq.heappop
        values = self.values
        nets = self.netlist.nets
        evaluate = self._evaluate
        toggles = self.toggle_counts
        history = self.history
        recorded = self._recorded
        record_all = self._record_all
        record_energy = self._record_energy
        forced = self._forced
        n_events = self.n_events
        try:
            while heap:
                time = heap[0][0]
                if time > until:
                    break
                if time > self.now:
                    self.now = time
                now = self.now
                while True:
                    _, _, (net_name, value) = pop(heap)
                    if net_name is _CONTROL:
                        value()
                        if not heap or heap[0][0] != time:
                            break
                        continue
                    old = values[net_name]
                    if value != old and (not forced
                                         or net_name not in forced):
                        values[net_name] = value
                        n_events += 1
                        if old is not None and value is not None:
                            toggles[net_name] += 1
                            if record_energy:
                                net_obj = nets[net_name]
                                driver = net_obj.driver_instance()
                                if driver is not None:
                                    self.energy_events.append(
                                        (now, self.netlist.library
                                         .switching_energy(driver.cell,
                                                           net_obj.fanout)))
                        if record_all or net_name in recorded:
                            history[net_name].append((now, value))
                        for inst, pin in nets[net_name].sinks:
                            evaluate(inst, pin, old)
                    if not heap or heap[0][0] != time:
                        break
        finally:
            # A sink may raise (X clock/enable); the counter must still
            # reflect every event applied before the failure.
            if _TRACER.enabled:
                _TRACER.count("sim.events_popped",
                              n_events - self.n_events)
            self.n_events = n_events
        self.now = max(self.now, until)
        return SimStats(end_time=self.now, n_events=self.n_events,
                        toggles=dict(self.toggle_counts))

    def run_until_quiet(self, max_time: float) -> SimStats:
        """Run until the event queue drains or ``max_time`` is reached."""
        return self.run(max_time)

    def value(self, net: str) -> Value:
        return self.values[net]

    def value_vector(self, base: str, width: int) -> int | None:
        """Read nets ``base[0..width)`` as a little-endian integer."""
        from repro.sim.logic import bits_to_int
        return bits_to_int([self.values[f"{base}[{i}]"] for i in range(width)])

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _initialize(self) -> None:
        """Settle the reset state instantly at t = 0.

        A real circuit sits in reset long enough for everything to reach
        a fixed point, so sequential and C-element outputs take their
        ``init`` values and combinational logic settles through them
        *without* consuming simulated time or counting toggles (inputs
        not yet driven stay X).  State elements whose settled inputs
        already demand a change (a transparent latch whose D differs
        from its stored value, a C-element with all inputs equal) are
        then kicked so the first transient events fire at their cell
        delay past t = 0.
        """
        for inst in self.netlist.instances.values():
            if inst.is_sequential or inst.is_celement:
                self.values[inst.output_net().name] = self._state[inst.name]
            elif inst.cell.kind is CellKind.TIE:
                self.values[inst.output_net().name] = inst.cell.tt & 1
        for inst in self.netlist.topo_order_comb_only():
            if inst.cell.kind is CellKind.TIE:
                continue
            bits = [self._pin(inst, p) for p in inst.cell.inputs]
            self.values[inst.output_net().name] = inst.cell.eval_ternary(bits)
        if self._record_all or self._recorded:
            for name, value in self.values.items():
                if value is not None and (self._record_all
                                          or name in self._recorded):
                    self.history[name].append((0.0, value))
        for inst in self.netlist.instances.values():
            if inst.cell.kind is CellKind.CELEMENT:
                self._eval_celement(inst)
            elif inst.cell.kind is CellKind.ACK:
                self._eval_ack(inst)
            elif inst.cell.kind is CellKind.REQ:
                self._eval_req(inst)
            elif inst.cell.kind is CellKind.ASYM:
                self._eval_asym(inst)
            elif inst.is_sequential and inst.cell.kind in (
                    CellKind.LATCH_HIGH, CellKind.LATCH_LOW):
                transparent = 1 if inst.cell.kind is CellKind.LATCH_HIGH else 0
                if self._pin(inst, PIN_ENABLE) == transparent:
                    data = self._pin(inst, PIN_D)
                    if data != self._state[inst.name]:
                        self._state[inst.name] = data
                        self._schedule_output(inst, data)

    def _evaluate(self, inst: Instance, changed_pin: str, old: Value) -> None:
        kind = inst.cell.kind
        if kind is CellKind.COMB:
            self._eval_comb(inst)
        elif kind is CellKind.CELEMENT:
            self._eval_celement(inst)
        elif kind is CellKind.ACK:
            self._eval_ack(inst)
        elif kind is CellKind.REQ:
            self._eval_req(inst)
        elif kind is CellKind.ASYM:
            self._eval_asym(inst)
        elif kind is CellKind.DFF:
            self._eval_dff(inst, changed_pin, old)
        elif kind in (CellKind.LATCH_HIGH, CellKind.LATCH_LOW):
            self._eval_latch(inst, changed_pin, old)

    def _schedule_output(self, inst: Instance, value: Value) -> None:
        delay = (self._delays[inst.name] if self._delays is not None
                 else inst.cell.delay)
        self._queue.push(self.now + delay, (inst.output_net().name, value))

    def _pin(self, inst: Instance, pin: str) -> Value:
        return self.values[inst.pins[pin].name]

    def _apply_force(self, net: str, value: Value) -> None:
        self._forced[net] = value
        self._set_net(net, value)

    def _apply_release(self, net: str) -> None:
        self._forced.pop(net, None)
        driver = self.netlist.nets[net].driver_instance()
        if driver is None:
            return  # input port: holds the forced value until re-driven
        kind = driver.cell.kind
        if kind is CellKind.COMB:
            bits = [self._pin(driver, p) for p in driver.cell.inputs]
            self._schedule_output(driver, driver.cell.eval_ternary(bits))
        elif kind is CellKind.TIE:
            self._schedule_output(driver, driver.cell.tt & 1)
        else:
            self._schedule_output(driver, self._state[driver.name])

    def _set_net(self, net: str, value: Value) -> None:
        """Apply a value change outside the event loop's fast path.

        Mirrors the run loop's per-event bookkeeping except for
        ``n_events`` — the loop holds that counter in a local it writes
        back on exit, so a mid-run increment here would be clobbered.
        Forced transitions therefore don't count as events.
        """
        old = self.values[net]
        if value == old:
            return
        self.values[net] = value
        if old is not None and value is not None:
            self.toggle_counts[net] += 1
        if self._record_all or net in self._recorded:
            self.history[net].append((self.now, value))
        for inst, pin in self.netlist.nets[net].sinks:
            self._evaluate(inst, pin, old)

    def _eval_comb(self, inst: Instance) -> None:
        bits = [self._pin(inst, p) for p in inst.cell.inputs]
        self._schedule_output(inst, inst.cell.eval_ternary(bits))

    def _eval_celement(self, inst: Instance) -> None:
        bits = [self._pin(inst, p) for p in inst.cell.inputs]
        if all(b == 1 for b in bits):
            new = 1
        elif all(b == 0 for b in bits):
            new = 0
        else:
            new = self._state[inst.name]  # hold
        if new != self._state[inst.name]:
            self._state[inst.name] = new
            self._schedule_output(inst, new)

    def _eval_ack(self, inst: Instance) -> None:
        """Asymmetric C-element (the ACKC handshake token cell).

        Rises when P = 0 and S = 0 (predecessor closed, successor has
        captured), falls when P = 1 and R = 1 (predecessor reopened and
        its request reached the successor), holds otherwise.
        """
        pred = self._pin(inst, "P")
        request = self._pin(inst, "R")
        succ = self._pin(inst, "S")
        new = self._state[inst.name]
        if pred == 0 and succ == 0:
            new = 1
        elif pred == 1 and request == 1:
            new = 0
        if new != self._state[inst.name]:
            self._state[inst.name] = new
            self._schedule_output(inst, new)

    def _eval_req(self, inst: Instance) -> None:
        """Request token latch (REQC): set while R is high; cleared once
        R is back low during the consumer's pulse (G high)."""
        request = self._pin(inst, "R")
        consumer = self._pin(inst, "G")
        new = self._state[inst.name]
        if request == 1:
            new = 1
        elif request == 0 and consumer == 1:
            new = 0
        if new != self._state[inst.name]:
            self._state[inst.name] = new
            self._schedule_output(inst, new)

    def _eval_asym(self, inst: Instance) -> None:
        """Reset-dominant asymmetric C-element (AC2): rises on R and A
        both high, falls as soon as R is low."""
        request = self._pin(inst, "R")
        ack = self._pin(inst, "A")
        new = self._state[inst.name]
        if request == 0:
            new = 0
        elif request == 1 and ack == 1:
            new = 1
        if new != self._state[inst.name]:
            self._state[inst.name] = new
            self._schedule_output(inst, new)

    def _eval_dff(self, inst: Instance, changed_pin: str, old: Value) -> None:
        if PIN_RESET_N in inst.cell.inputs and self._pin(inst, PIN_RESET_N) == 0:
            if self._state[inst.name] != 0:
                self._state[inst.name] = 0
                self._schedule_output(inst, 0)
            return
        if changed_pin != inst.cell.clock_pin:
            return
        new_clock = self._pin(inst, inst.cell.clock_pin)
        if is_rising(old, new_clock):
            data = self._pin(inst, PIN_D)
            self.captures[inst.name].append(Capture(self.now, data))
            if data != self._state[inst.name]:
                self._state[inst.name] = data
                self._schedule_output(inst, data)
        elif new_clock is None:
            raise SimulationError(
                f"clock of {inst.name} became X at t={self.now}")

    def _eval_latch(self, inst: Instance, changed_pin: str, old: Value) -> None:
        transparent_level = 1 if inst.cell.kind is CellKind.LATCH_HIGH else 0
        if PIN_RESET_N in inst.cell.inputs and self._pin(inst, PIN_RESET_N) == 0:
            if self._state[inst.name] != 0:
                self._state[inst.name] = 0
                self._schedule_output(inst, 0)
            return
        enable = self._pin(inst, PIN_ENABLE)
        if changed_pin == inst.cell.clock_pin:
            if enable is None:
                raise SimulationError(
                    f"latch enable of {inst.name} became X at t={self.now}")
            closing = (is_falling(old, enable)
                       if transparent_level == 1 else is_rising(old, enable))
            if closing:
                captured = self._pin(inst, PIN_D)
                self.captures[inst.name].append(Capture(self.now, captured))
                if captured != self._state[inst.name]:
                    self._state[inst.name] = captured
                    self._schedule_output(inst, captured)
                return
        if enable == transparent_level:
            data = self._pin(inst, PIN_D)
            if data != self._state[inst.name]:
                self._state[inst.name] = data
                self._schedule_output(inst, data)


def settle_combinational(netlist: Netlist, inputs: dict[str, Value],
                         max_time: float = 1e7) -> dict[str, Value]:
    """Convenience: drive ``inputs`` at t=0 and run until quiet.

    Returns the final net values.  Useful for testing pure combinational
    blocks without writing a stimulus loop.
    """
    sim = EventSimulator(netlist)
    for port, value in inputs.items():
        sim.set_input(port, value, 0.0)
    sim.run(max_time)
    return dict(sim.values)
