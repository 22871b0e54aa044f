"""Compiled event-driven simulator.

:class:`CompiledSimulator` is a drop-in replacement for
:class:`~repro.sim.simulator.EventSimulator` — same constructor, same
``set_input``/``add_clock``/``run``/``captures``/``toggle_counts``/
``history`` surface, the same fault hooks (``force_net``/
``release_net``/``inject_glitch``/``forced_nets``), and
**event-for-event identical behaviour**: the same capture streams
(times included), net values, toggle counts and event counts on any
netlist, stimulus and armed fault.  What changes is the inner loop.

The interpreter-style simulator resolves, for every event, the net name
to a ``Net`` object, the sink list to ``(Instance, pin)`` pairs, the
cell kind to an ``elif`` chain, and every pin read to two dictionary
lookups.  ``CompiledSimulator`` performs that resolution **once**, at
construction:

* every net becomes an integer **slot** into flat lists (values, toggle
  counters, history, per-toggle switching energy);
* every instance is compiled into a small closure specialised for its
  cell class (and, for sequential cells, for *which pin changed*) whose
  free variables are the already-resolved slots, the cell delay and the
  truth-table mask — no per-event name resolution or kind dispatch
  survives into the run loop;
* every net's sink list becomes a tuple of those closures, so applying
  an event is: index two lists, compare, call the closures.

Events are ``(time, sequence, slot, value)`` tuples in a plain binary
heap; a fault-injection control action is ``(time, sequence, -1,
action)``.  The sequence numbers are allocated in the same order as the
interpreter's pushes (control pushes included), which is what makes the
two engines tie-break simultaneous events identically and therefore
agree exactly — the property the differential harness in
:mod:`repro.testing` asserts.

:meth:`CompiledSimulator.reset` returns an engine to the state its
construction left without recompiling, so callers that simulate one
fabric many times (the fault campaign, through
:func:`repro.sim.backends.reused_simulator`) compile it once.  What a
construction resolves from structure alone — slots, closure units, sink
wiring and the settled reset state — is an :class:`EngineLayout`
memoized on the netlist, so a further engine on it (another delay
model, other initial inputs) only binds closures to its own delays.
"""

from __future__ import annotations

import heapq
from functools import partial
from itertools import count

from repro.netlist.cells import (
    CellKind,
    PIN_D,
    PIN_ENABLE,
    PIN_RESET_N,
)
from repro.netlist.core import Instance, Netlist
from repro.obs.trace import TRACER as _TRACER
from repro.sim.events import resolve_delays
from repro.sim.logic import Value
from repro.sim.simulator import INVERT, Capture, SimStats
from repro.utils.errors import SimulationError

_STATEFUL_KINDS = (CellKind.CELEMENT, CellKind.ACK, CellKind.REQ,
                   CellKind.ASYM)


def _named_counts(names: tuple[str, ...], counts: list[int],
                  ) -> dict[str, int]:
    """Slot-indexed counters as ``{net name: count}``, zeros dropped."""
    return {names[slot]: n for slot, n in enumerate(counts) if n}


# ----------------------------------------------------------------------
# per-cell closure factories
#
# Every factory returns an ``ev(old, now)`` callable: ``old`` is the
# previous value of the net that just changed (the sequential cells need
# it for edge detection), ``now`` the current simulation time.  All
# state the closure touches — the value list, the heap, the sequence
# counter, the stored-state list, the capture streams — is captured by
# reference.  Every factory takes those five and ``delay`` first, then
# the delay-independent arguments an :class:`EngineLayout` unit holds.
# ``delay`` arrives pre-resolved (nominal ``cell.delay`` or the delay
# model's perturbed value) so the closures stay model-agnostic.
# ----------------------------------------------------------------------

def _comb_eval(vals, heap, seq, state, streams, delay, cell, in_slots,
               out_slot):
    tt = cell.tt
    heappush = heapq.heappush
    if len(in_slots) == 1:
        s0 = in_slots[0]
        v0, v1 = tt & 1, (tt >> 1) & 1
        lut = (v0, v1)
        x_out = v0 if v0 == v1 else None

        # Indexing with None raises TypeError: the X path rides the
        # (free-when-untaken) exception instead of a per-call check.
        def ev(old, now):
            try:
                value = lut[vals[s0]]
            except TypeError:
                value = x_out
            heappush(heap, (now + delay, next(seq), out_slot, value))
        return ev
    eval_ternary = cell.eval_ternary
    if len(in_slots) == 2:
        s0, s1 = in_slots
        lut = tuple((tt >> combo) & 1 for combo in range(4))

        def ev(old, now):
            a = vals[s0]
            try:
                value = lut[a + vals[s1] * 2]
            except TypeError:
                value = eval_ternary((a, vals[s1]))
            heappush(heap, (now + delay, next(seq), out_slot, value))
        return ev
    slots = tuple(in_slots)

    def ev(old, now):
        combo = 0
        for j, s in enumerate(slots):
            b = vals[s]
            if b is None:
                heappush(heap, (now + delay, next(seq), out_slot,
                                eval_ternary([vals[x] for x in slots])))
                return
            if b:
                combo |= 1 << j
        heappush(heap, (now + delay, next(seq), out_slot, (tt >> combo) & 1))
    return ev


def _celement_eval(vals, heap, seq, state, streams, delay, i, in_slots,
                   out_slot):
    heappush = heapq.heappush
    slots = tuple(in_slots)

    def ev(old, now):
        all_one = True
        all_zero = True
        for s in slots:
            b = vals[s]
            if b != 1:
                all_one = False
            if b != 0:
                all_zero = False
        if all_one:
            new = 1
        elif all_zero:
            new = 0
        else:
            return  # hold
        if new != state[i]:
            state[i] = new
            heappush(heap, (now + delay, next(seq), out_slot, new))
    return ev


def _ack_eval(vals, heap, seq, state, streams, delay, i, p_slot, r_slot,
              s_slot, out_slot):
    heappush = heapq.heappush

    def ev(old, now):
        pred = vals[p_slot]
        if pred == 0 and vals[s_slot] == 0:
            new = 1
        elif pred == 1 and vals[r_slot] == 1:
            new = 0
        else:
            return  # hold
        if new != state[i]:
            state[i] = new
            heappush(heap, (now + delay, next(seq), out_slot, new))
    return ev


def _req_eval(vals, heap, seq, state, streams, delay, i, r_slot, g_slot,
              out_slot):
    heappush = heapq.heappush

    def ev(old, now):
        request = vals[r_slot]
        if request == 1:
            new = 1
        elif request == 0 and vals[g_slot] == 1:
            new = 0
        else:
            return  # hold
        if new != state[i]:
            state[i] = new
            heappush(heap, (now + delay, next(seq), out_slot, new))
    return ev


def _asym_eval(vals, heap, seq, state, streams, delay, i, r_slot, a_slot,
               out_slot):
    heappush = heapq.heappush

    def ev(old, now):
        request = vals[r_slot]
        if request == 0:
            new = 0
        elif request == 1 and vals[a_slot] == 1:
            new = 1
        else:
            return  # hold
        if new != state[i]:
            state[i] = new
            heappush(heap, (now + delay, next(seq), out_slot, new))
    return ev


def _dff_clock_eval(vals, heap, seq, state, streams, delay, i, name,
                    d_slot, ck_slot, rn_slot, out_slot):
    heappush = heapq.heappush
    caps: list[Capture] = []
    if rn_slot < 0:
        # No asynchronous reset (the common flip-flop): the clock-pin
        # closure skips the reset check entirely — this runs once per
        # register per clock edge, the hottest sequential path.
        def ev(old, now):
            new_clock = vals[ck_slot]
            if old == 0 and new_clock == 1:
                data = vals[d_slot]
                if not caps:
                    streams[name] = caps
                caps.append(Capture(now, data))
                if data != state[i]:
                    state[i] = data
                    heappush(heap, (now + delay, next(seq), out_slot, data))
            elif new_clock is None:
                raise SimulationError(
                    f"clock of {name} became X at t={now}")
        return ev

    def ev(old, now):
        if vals[rn_slot] == 0:
            if state[i] != 0:
                state[i] = 0
                heappush(heap, (now + delay, next(seq), out_slot, 0))
            return
        new_clock = vals[ck_slot]
        if old == 0 and new_clock == 1:
            data = vals[d_slot]
            if not caps:
                streams[name] = caps
            caps.append(Capture(now, data))
            if data != state[i]:
                state[i] = data
                heappush(heap, (now + delay, next(seq), out_slot, data))
        elif new_clock is None:
            raise SimulationError(f"clock of {name} became X at t={now}")
    return ev


def _seq_reset_eval(vals, heap, seq, state, streams, delay, i, rn_slot,
                    out_slot):
    """A DFF data/reset pin changed: only the asynchronous clear can act."""
    heappush = heapq.heappush

    def ev(old, now):
        if vals[rn_slot] == 0 and state[i] != 0:
            state[i] = 0
            heappush(heap, (now + delay, next(seq), out_slot, 0))
    return ev


def _latch_clock_eval(vals, heap, seq, state, streams, delay, i, name,
                      transparent, d_slot, en_slot, rn_slot, out_slot):
    heappush = heapq.heappush
    caps: list[Capture] = []
    if rn_slot < 0:
        # No asynchronous reset (every latch the desync flow builds):
        # one closure per enable edge per latch, reset check hoisted.
        def ev(old, now):
            enable = vals[en_slot]
            if enable is None:
                raise SimulationError(
                    f"latch enable of {name} became X at t={now}")
            if transparent:
                closing = old == 1 and enable == 0
            else:
                closing = old == 0 and enable == 1
            if closing:
                captured = vals[d_slot]
                if not caps:
                    streams[name] = caps
                caps.append(Capture(now, captured))
                if captured != state[i]:
                    state[i] = captured
                    heappush(heap, (now + delay, next(seq), out_slot,
                                    captured))
                return
            if enable == transparent:
                data = vals[d_slot]
                if data != state[i]:
                    state[i] = data
                    heappush(heap, (now + delay, next(seq), out_slot, data))
        return ev

    def ev(old, now):
        if vals[rn_slot] == 0:
            if state[i] != 0:
                state[i] = 0
                heappush(heap, (now + delay, next(seq), out_slot, 0))
            return
        enable = vals[en_slot]
        if enable is None:
            raise SimulationError(
                f"latch enable of {name} became X at t={now}")
        if transparent:
            closing = old == 1 and enable == 0
        else:
            closing = old == 0 and enable == 1
        if closing:
            captured = vals[d_slot]
            if not caps:
                streams[name] = caps
            caps.append(Capture(now, captured))
            if captured != state[i]:
                state[i] = captured
                heappush(heap, (now + delay, next(seq), out_slot, captured))
            return
        if enable == transparent:
            data = vals[d_slot]
            if data != state[i]:
                state[i] = data
                heappush(heap, (now + delay, next(seq), out_slot, data))
    return ev


def _latch_data_eval(vals, heap, seq, state, streams, delay, i, transparent,
                     d_slot, en_slot, rn_slot, out_slot):
    heappush = heapq.heappush
    if rn_slot < 0:
        def ev(old, now):
            if vals[en_slot] == transparent:
                data = vals[d_slot]
                if data != state[i]:
                    state[i] = data
                    heappush(heap, (now + delay, next(seq), out_slot, data))
        return ev

    def ev(old, now):
        if vals[rn_slot] == 0:
            if state[i] != 0:
                state[i] = 0
                heappush(heap, (now + delay, next(seq), out_slot, 0))
            return
        if vals[en_slot] == transparent:
            data = vals[d_slot]
            if data != state[i]:
                state[i] = data
                heappush(heap, (now + delay, next(seq), out_slot, data))
    return ev


#: Handshake cell kind -> (closure factory, input pins in its order).
_HANDSHAKE = {
    CellKind.ACK: (_ack_eval, ("P", "R", "S")),
    CellKind.REQ: (_req_eval, ("R", "G")),
    CellKind.ASYM: (_asym_eval, ("R", "A")),
}


class EngineLayout:
    """The delay-independent part of a netlist's compiled engine.

    Everything a :class:`CompiledSimulator` construction resolves that
    depends on structure alone:

    * the slot of every net and the stored-state index (and power-up
      value) of every stateful instance;
    * one *unit* per closure to bind — ``(factory, instance name,
      nominal delay, arguments)``, the arguments being resolved slots,
      state indices and cell data — in instance order, and the sink
      wiring as unit indices per slot, in the netlist's sink order;
    * the settled t = 0 state per initial-input vector, filled in by
      the first engine that settles it: values, stored state, and the
      kick events as ``(instance, nominal delay, slot, value)``, queued
      at ``0.0 + delay`` in this order, as the interpreter does.

    Memoized on the netlist (:meth:`~repro.netlist.core.Netlist.memo`),
    so a mutation drops it; an engine only binds the units to its own
    delays, values, heap and sequence counter, and queues its kicks.
    The settled entries are never mutated once stored, so engines
    with different delay models share one layout safely.
    """

    __slots__ = ("names", "slot_of", "state_idx", "state_init", "units",
                 "sinks", "evals", "resets", "kickers", "settled")

    def __init__(self, netlist: Netlist):
        names = tuple(netlist.nets)
        slot_of = {name: slot for slot, name in enumerate(names)}
        state_idx: dict[str, int] = {}
        state_init: list[int] = []
        units: list[tuple] = []
        # Pin-independent unit per instance (combinational and stateful
        # handshake cells); the release hook and the settle use it.
        evals: dict[str, int] = {}
        clock_units: dict[str, int] = {}
        data_units: dict[str, int] = {}
        # (output slot, power-up value) of the stateful and TIE cells.
        resets: list[tuple[int, int]] = []
        # Units the reset settle kicks, in instance order: a stateful
        # cell's eval, or a latch's data unit (whose arguments say
        # whether the settled latch is transparent).
        kickers: list[int] = []
        for inst in netlist.instances.values():
            name, cell, pins = inst.name, inst.cell, inst.pins
            kind, delay = cell.kind, cell.delay
            out = slot_of[inst.output_net().name]
            if kind is CellKind.COMB:
                evals[name] = len(units)
                units.append((_comb_eval, name, delay, (
                    cell, [slot_of[pins[p].name] for p in cell.inputs],
                    out)))
                continue
            if kind is CellKind.TIE:
                # No input pins: never re-evaluates, only settles.
                resets.append((out, cell.tt & 1))
                continue
            i = state_idx[name] = len(state_init)
            state_init.append(inst.init)
            resets.append((out, inst.init))
            if kind in _STATEFUL_KINDS:
                evals[name] = len(units)
                kickers.append(len(units))
                if kind is CellKind.CELEMENT:
                    units.append((_celement_eval, name, delay, (
                        i, [slot_of[pins[p].name] for p in cell.inputs],
                        out)))
                else:
                    factory, ins = _HANDSHAKE[kind]
                    units.append((factory, name, delay, (
                        i, *[slot_of[pins[p].name] for p in ins], out)))
                continue
            rn = (slot_of[pins[PIN_RESET_N].name]
                  if PIN_RESET_N in cell.inputs else -1)
            d = slot_of[pins[PIN_D].name]
            clock_units[name] = len(units)
            if kind is CellKind.DFF:
                units.append((_dff_clock_eval, name, delay, (
                    i, name, d, slot_of[pins[cell.clock_pin].name], rn,
                    out)))
                if rn >= 0:
                    data_units[name] = len(units)
                    units.append((_seq_reset_eval, name, delay,
                                  (i, rn, out)))
                continue
            transparent = 1 if kind is CellKind.LATCH_HIGH else 0
            en = slot_of[pins[PIN_ENABLE].name]
            units.append((_latch_clock_eval, name, delay, (
                i, name, transparent, d, en, rn, out)))
            data_units[name] = len(units)
            kickers.append(len(units))
            units.append((_latch_data_eval, name, delay, (
                i, transparent, d, en, rn, out)))

        sinks: list[tuple[int, ...]] = []
        nets = netlist.nets
        for name in names:
            wired = []
            for inst, pin in nets[name].sinks:
                unit = evals.get(inst.name)
                if unit is None:
                    unit = (clock_units.get(inst.name)
                            if pin == inst.cell.clock_pin else None)
                    if unit is None:
                        unit = data_units.get(inst.name)
                        if unit is None:
                            continue
                wired.append(unit)
            sinks.append(tuple(wired))
        self.names = names
        self.slot_of = slot_of
        self.state_idx = state_idx
        self.state_init = tuple(state_init)
        self.units = tuple(units)
        self.sinks = tuple(sinks)
        self.evals = evals
        self.resets = tuple(resets)
        self.kickers = tuple(kickers)
        self.settled: dict[tuple, tuple] = {}


class CompiledSimulator:
    """Event-driven simulator compiled to slot-indexed arrays.

    Drop-in for :class:`~repro.sim.simulator.EventSimulator`; see the
    module docstring for what "compiled" buys and why the two engines
    agree event-for-event.

    Args:
        netlist: the circuit to simulate (validated).
        record: names of nets whose full value-change history to keep.
        record_all: keep history for every net (memory-heavy).
        record_energy: append ``(time, energy fJ)`` per real transition.
        initial_inputs: input-port values present during reset (settle
            at t = 0 with no events and no toggles).
        delay_model: optional per-instance delay perturbation
            (:class:`repro.timing.DelayModel`); resolved once here, so
            the compiled closures bind the perturbed delays directly.
    """

    def __init__(self, netlist: Netlist, record: list[str] | None = None,
                 record_all: bool = False, record_energy: bool = False,
                 initial_inputs: dict[str, Value] | None = None,
                 delay_model=None):
        self.netlist = netlist
        self._delays = resolve_delays(netlist, delay_model)
        self.now = 0.0
        self.n_events = 0
        self.energy_events: list[tuple[float, float]] = []
        layout = self._layout = netlist.memo(
            "engine-layout", lambda: EngineLayout(netlist))
        names = self._names = layout.names
        slot_of = self._slot_of = layout.slot_of
        vals: list[Value] = [None] * len(names)
        self._vals = vals
        for port, value in (initial_inputs or {}).items():
            net = netlist.nets.get(port)
            if net is None or not net.is_input_port:
                raise SimulationError(f"{port} is not an input port")
            vals[slot_of[port]] = value
        self._toggles = [0] * len(names)
        self._hist: list[list[tuple[float, Value]]] = [[] for _ in names]
        self._rec = bytearray(len(names))
        self._record_any = record_all or bool(record)
        if record_all:
            for index in range(len(names)):
                self._rec[index] = 1
        else:
            for name in record or []:
                slot = slot_of.get(name)
                if slot is not None:
                    self._rec[slot] = 1
        if record_energy:
            energy: list[float | None] = [None] * len(names)
            for net in netlist.nets.values():
                driver = net.driver_instance()
                if driver is not None:
                    energy[slot_of[net.name]] = \
                        netlist.library.switching_energy(driver.cell,
                                                         net.fanout)
            self._energy: list[float | None] | None = energy
        else:
            self._energy = None

        self._heap: list[tuple[float, int, int, Value]] = []
        self._seq = count()
        # Fault-injection overrides, slot -> pinned value: forced slots
        # ignore driver events until released.
        self._forced: dict[int, Value] = {}
        # Set by the first scheduled control action; from then on
        # ``run`` takes the loop that handles control entries and forces.
        self._armed = False
        # Stored output value per stateful instance, slot-indexed.
        self._state: list[int] = list(layout.state_init)
        self._state_idx = layout.state_idx
        # Capture stream per register, entered on its first capture (so
        # in the interpreter's order and with no empty streams).
        self._captured: dict[str, list[Capture]] = {}
        # (cone, net slots, state indices, slot set, exact) of the last
        # control cone :meth:`control_state` was asked about.
        self._cone_binding: tuple | None = None
        fns = self._fns = self._bind(layout)
        self._sinks = [tuple([fns[k] for k in wired])
                       for wired in layout.sinks]
        settled_vals, settled_state = self._settle_reset(
            tuple(sorted(initial_inputs.items())) if initial_inputs else ())
        # What :meth:`reset` restores: values, state, kick events and
        # the t = 0 history of the recorded nets.
        self._reset_point = (settled_vals, settled_state, list(self._heap),
                             [(slot, list(h))
                              for slot, h in enumerate(self._hist) if h])

    # ------------------------------------------------------------------
    # compilation
    # ------------------------------------------------------------------
    def _delay_of(self, inst: Instance) -> float:
        return self._delays[inst.name] if self._delays is not None \
            else inst.cell.delay

    def _bind(self, layout: EngineLayout) -> list:
        """One closure per layout unit, bound to this engine's state and
        delays."""
        shared = (self._vals, self._heap, self._seq, self._state,
                  self._captured)
        delays = self._delays
        if delays is None:
            return [factory(*shared, delay, *args)
                    for factory, _, delay, args in layout.units]
        return [factory(*shared, delays[name], *args)
                for factory, name, _, args in layout.units]

    def _settle_reset(self, key: tuple) -> tuple[tuple, tuple]:
        """Settle the reset state instantly at t = 0; returns the settled
        values and stored state.

        Mirrors ``EventSimulator._initialize`` step for step (including
        iteration order, which fixes the sequence numbers of the kick
        events and thus tie-breaking parity with the interpreter).  The
        outcome depends on structure and the initial inputs only, so
        the first engine to settle a vector stores it in the layout and
        later ones copy it and queue the same kicks at their own delays.
        """
        layout = self._layout
        vals, state, heap, seq = self._vals, self._state, self._heap, \
            self._seq
        settled = layout.settled.get(key)
        if settled is None:
            settled = layout.settled[key] = self._settle(layout)
        else:
            vals[:] = settled[0]
            state[:] = settled[1]
            delays = self._delays
            for name, delay, slot, value in settled[2]:
                if delays is not None:
                    delay = delays[name]
                heapq.heappush(heap, (0.0 + delay, next(seq), slot, value))
        if self._record_any:
            rec, hist = self._rec, self._hist
            for slot, value in enumerate(vals):
                if value is not None and rec[slot]:
                    hist[slot].append((0.0, value))
        return settled[0], settled[1]

    def _settle(self, layout: EngineLayout) -> tuple:
        """The first settle of an initial-input vector: settle the
        values, queue the kicks, and return ``(values, state, kicks)``
        for the layout."""
        vals, state, heap, seq = self._vals, self._state, self._heap, \
            self._seq
        units, evals, fns = layout.units, layout.evals, self._fns
        for slot, value in layout.resets:
            vals[slot] = value
        for inst in self.netlist.topo_order_comb_only():
            unit = evals.get(inst.name)
            if unit is not None:  # not a TIE
                cell, in_slots, out = units[unit][3]
                vals[out] = cell.eval_ternary([vals[s] for s in in_slots])
        kicks = []
        for unit in layout.kickers:
            factory, name, delay, args = units[unit]
            if factory is _latch_data_eval:
                i, transparent, d_slot, en_slot, _, out = args
                data = vals[d_slot]
                if vals[en_slot] == transparent and data != state[i]:
                    state[i] = data
                    bound = delay if self._delays is None \
                        else self._delays[name]
                    heapq.heappush(heap, (0.0 + bound, next(seq), out, data))
                    kicks.append((name, delay, out, data))
            else:
                # Same hold/act logic as the sink closure; old unused.
                pending = len(heap)
                fns[unit](None, 0.0)
                if len(heap) > pending:
                    kicks.append((name, delay, args[-1], state[args[0]]))
        return tuple(vals), tuple(state), tuple(kicks)

    # ------------------------------------------------------------------
    # stimulus
    # ------------------------------------------------------------------
    def set_input(self, port: str, value: Value,
                  time: float | None = None) -> None:
        """Drive an input port to ``value`` at ``time`` (default: now)."""
        net = self.netlist.nets.get(port)
        if net is None or not net.is_input_port:
            raise SimulationError(f"{port} is not an input port")
        heapq.heappush(self._heap,
                       (self.now if time is None else time,
                        next(self._seq), self._slot_of[port], value))

    def add_clock(self, port: str, period: float, until: float,
                  first_edge: float | None = None,
                  start_value: int = 0) -> None:
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
        slot = self._fault_slot(net, "force")
        self._control(self.now if time is None else time,
                      lambda now: self._apply_force(slot, value, now))

    def release_net(self, net: str, time: float | None = None) -> None:
        """Lift a force; the driver re-asserts its value one cell delay
        after the release matures."""
        slot = self._fault_slot(net, "release")
        self._control(self.now if time is None else time,
                      lambda now: self._apply_release(slot, now))

    def inject_glitch(self, net: str, at: float, duration: float,
                      value: Value | object = INVERT) -> None:
        """Transient fault: pulse ``net`` for ``duration`` starting at
        ``at`` — the default :data:`~repro.sim.simulator.INVERT` pulses
        to the opposite of the net's value at injection time (X counts
        as 0), ``None`` drives it to X.  Same semantics as
        :meth:`EventSimulator.inject_glitch`."""
        slot = self._fault_slot(net, "glitch")
        if duration <= 0:
            raise SimulationError(f"glitch duration must be > 0, "
                                  f"got {duration}")

        def fire(now: float) -> None:
            pulse = value
            if pulse is INVERT:
                pulse = 0 if self._vals[slot] == 1 else 1
            self._apply_force(slot, pulse, now)

        self._control(at, fire)
        self._control(at + duration,
                      lambda now: self._apply_release(slot, now))

    @property
    def forced_nets(self) -> dict[str, Value]:
        """Currently active forces (net name -> pinned value)."""
        return {self._names[slot]: value
                for slot, value in self._forced.items()}

    def _fault_slot(self, net: str, verb: str) -> int:
        slot = self._slot_of.get(net)
        if slot is None:
            raise SimulationError(f"cannot {verb} unknown net {net}")
        return slot

    def _control(self, time: float, action) -> None:
        """Queue ``action(now)`` at ``time``, ordered with value events
        by the shared sequence counter."""
        self._armed = True
        heapq.heappush(self._heap, (time, next(self._seq), -1, action))

    def _apply_force(self, slot: int, value: Value, now: float) -> None:
        self._forced[slot] = value
        self._set_net(slot, value, now)

    def _apply_release(self, slot: int, now: float) -> None:
        self._forced.pop(slot, None)
        driver = self.netlist.nets[self._names[slot]].driver_instance()
        if driver is None:
            return  # input port: holds the forced value until re-driven
        kind = driver.cell.kind
        if kind is CellKind.COMB:
            self._fns[self._layout.evals[driver.name]](None, now)
            return
        value = (driver.cell.tt & 1 if kind is CellKind.TIE
                 else self._state[self._state_idx[driver.name]])
        heapq.heappush(self._heap, (now + self._delay_of(driver),
                                    next(self._seq), slot, value))

    def _set_net(self, slot: int, value: Value, now: float) -> None:
        """Apply a forced value change outside the run loop.

        Mirrors the loop's per-event bookkeeping except for ``n_events``
        and energy, exactly as ``EventSimulator._set_net`` does: forced
        transitions don't count as events.
        """
        old = self._vals[slot]
        if value == old:
            return
        self._vals[slot] = value
        if old is not None and value is not None:
            self._toggles[slot] += 1
        if self._rec[slot]:
            self._hist[slot].append((now, value))
        for fn in self._sinks[slot]:
            fn(old, now)

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def reset(self) -> None:
        """Return to the state construction left, in place.

        Restores the settled values, stored state, pending kick events
        and t = 0 history, and clears captures, toggles, events, energy
        events, forces and time, so the next run equals a fresh
        engine's event for event.  The compiled closures stay bound,
        which is the point: a reset costs a few list copies, a
        construction recompiles the netlist.  The sequence counter
        keeps counting; every later push still orders after the
        restored events, as it would in a fresh engine.  The capture
        lists are emptied in place (the closures own them), so copy a
        run's captures before resetting.
        """
        vals, state, heap, hist = self._reset_point
        self._vals[:] = vals
        self._state[:] = state
        self._heap[:] = heap
        for caps in self._captured.values():
            caps.clear()
        self._captured.clear()
        self._toggles = [0] * len(self._names)
        if self._record_any:
            self._hist = [[] for _ in self._names]
            for slot, h in hist:
                self._hist[slot] = list(h)
        self._forced.clear()
        self._armed = False
        self.energy_events = []
        self.now = 0.0
        self.n_events = 0

    def peek_time(self) -> float | None:
        """Time of the next pending event, or None when none is."""
        heap = self._heap
        return heap[0][0] if heap else None

    def control_state(self, cone) -> tuple[tuple, float] | None:
        """The state of a closed control cone, relative to its next event.

        ``cone`` is a :class:`~repro.sim.vector_async.ControlCone` whose
        instances read only cone nets.  Returns ``(key, anchor)``:
        ``anchor`` is the time of the earliest pending event on a cone
        net, and ``key`` is hashable and covers everything the cone's
        future depends on — the cone nets' values, the stored state of
        its stateful cells, the pending cone-net events as ``(time -
        anchor, slot, value)`` in the order the heap serves them, and
        the forced cone nets.  Two equal keys therefore start the same
        cone waveform, shifted by the difference of their anchors.

        Returns ``None`` when that argument does not hold or the key
        would be meaningless: a fault action (a force, release or
        glitch edge) is still pending, no cone event is pending, or a
        cone delay or pending cone event time is not a whole number of
        ps (event times are then not exact, so a shifted run need not
        repeat bit for bit).
        """
        binding = self._cone_binding
        if binding is None or binding[0] is not cone:
            binding = self._cone_binding = self._bind_cone(cone)
        _, net_slots, state_ids, members, exact = binding
        if not exact:
            return None
        pending = []
        for entry in self._heap:
            slot = entry[2]
            if slot < 0:
                return None  # a fault action is still to come
            if slot in members:
                if entry[0] % 1.0:
                    return None
                pending.append(entry)
        if not pending:
            return None
        pending.sort()
        anchor = pending[0][0]
        vals, state = self._vals, self._state
        key = (tuple([vals[slot] for slot in net_slots]),
               tuple([state[i] for i in state_ids]),
               tuple([(time - anchor, slot, value)
                      for time, _, slot, value in pending]),
               tuple(sorted((slot, value)
                            for slot, value in self._forced.items()
                            if slot in members)))
        return key, anchor

    def _bind_cone(self, cone) -> tuple:
        instances = self.netlist.instances
        net_slots = tuple(self._slot_of[name] for name in cone.nets)
        state_ids = tuple(self._state_idx[name] for name in cone.instances
                          if name in self._state_idx)
        exact = all(float(self._delay_of(instances[name])).is_integer()
                    for name in cone.instances)
        return cone, net_slots, state_ids, frozenset(net_slots), exact

    def run(self, until: float) -> SimStats:
        """Process events up to and including time ``until``.

        All events of one timestamp drain per outer iteration, so the
        time comparison and ``now`` update are paid per instant rather
        than per event — the heap already serves simultaneous events in
        sequence order, so the event order (and therefore every
        observable) is unchanged.
        """
        heap = self._heap
        vals = self._vals
        sinks = self._sinks
        toggles = self._toggles
        rec = self._rec
        hist = self._hist
        energy = self._energy
        energy_events = self.energy_events
        record_any = self._record_any
        forced = self._forced
        heappop = heapq.heappop
        n_events = self.n_events
        now = self.now
        # The common configuration (no history, no energy accounting, no
        # fault armed) gets its own copy of the loop with those branches
        # hoisted out entirely; the general loop carries them.
        plain = not record_any and energy is None and not self._armed
        try:
            while heap:
                time = heap[0][0]
                if time > until:
                    break
                if time > now:
                    now = time
                    self.now = time
                if plain:
                    while True:
                        _, _, slot, value = heappop(heap)
                        old = vals[slot]
                        if value != old:
                            vals[slot] = value
                            n_events += 1
                            if old is not None and value is not None:
                                toggles[slot] += 1
                            for fn in sinks[slot]:
                                fn(old, now)
                        if not heap or heap[0][0] != time:
                            break
                    continue
                while True:
                    _, _, slot, value = heappop(heap)
                    if slot < 0:
                        value(now)  # a control action
                        if not heap or heap[0][0] != time:
                            break
                        continue
                    old = vals[slot]
                    if value != old and (not forced or slot not in forced):
                        vals[slot] = value
                        n_events += 1
                        if old is not None and value is not None:
                            toggles[slot] += 1
                            if energy is not None:
                                joules = energy[slot]
                                if joules is not None:
                                    energy_events.append((now, joules))
                        if record_any and rec[slot]:
                            hist[slot].append((now, value))
                        for fn in sinks[slot]:
                            fn(old, now)
                    if not heap or heap[0][0] != time:
                        break
        finally:
            # A sink may raise (X clock/enable); the counter must still
            # reflect every event applied before the failure.
            if _TRACER.enabled:
                _TRACER.count("sim.events_popped",
                              n_events - self.n_events)
            self.n_events = n_events
        if until > now:
            now = until
        self.now = now
        # Snapshot the counters, but name them only if the caller asks.
        return SimStats(end_time=now, n_events=n_events,
                        toggles=partial(_named_counts, self._names,
                                        list(toggles)))

    def run_until_quiet(self, max_time: float) -> SimStats:
        """Run until the event queue drains or ``max_time`` is reached."""
        return self.run(max_time)

    # ------------------------------------------------------------------
    # observation
    # ------------------------------------------------------------------
    def value(self, net: str) -> Value:
        return self._vals[self._slot_of[net]]

    def value_vector(self, base: str, width: int) -> int | None:
        """Read nets ``base[0..width)`` as a little-endian integer."""
        from repro.sim.logic import bits_to_int
        return bits_to_int([self._vals[self._slot_of[f"{base}[{i}]"]]
                            for i in range(width)])

    @property
    def values(self) -> dict[str, Value]:
        """Current value of every net, keyed by name."""
        return dict(zip(self._names, self._vals))

    @property
    def captures(self) -> dict[str, list[Capture]]:
        """Capture streams of every register that captured, by instance.

        The live dict, as the interpreter's attribute is: the paced
        environment loop reads it on every poll."""
        return self._captured

    @property
    def toggle_counts(self) -> dict[str, int]:
        """Real-transition count of every net that toggled, by name."""
        return _named_counts(self._names, self._toggles)

    @property
    def history(self) -> dict[str, list[tuple[float, Value]]]:
        """Value-change history of the recorded nets, by name."""
        names = self._names
        return {names[slot]: h for slot, h in enumerate(self._hist) if h}
