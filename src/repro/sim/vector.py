"""Lane-parallel, code-generated cycle simulation.

The cycle engines in :mod:`repro.sim.sync` evaluate one stimulus at a
time through per-gate dict lookups and :meth:`Cell.eval_ternary` calls.
The engines here evaluate **W independent stimulus streams per pass** by
packing, for every net, one bit per *lane* (stimulus stream) into plain
Python integers, and compiling the netlist's combinational cone — in the
cached topological order — into a single ``exec``'d function of bitwise
operations over those words.  One pass through the generated function
advances all W lanes one evaluation, so the per-stimulus cost of a sweep
drops by roughly the lane count.

**Encoding.**  Each net carries two words:

* ``value`` — bit *i* is the lane-*i* logic value (meaningful only where
  known);
* ``known`` — bit *i* set iff lane *i* is a determined 0/1 (clear = X).

The invariant ``value & ~known == 0`` is maintained everywhere, which is
what lets the generated expressions use ``known ^ value`` for
"known zero" without masking.

**Ternary exactness.**  Generated expressions must match
:meth:`repro.netlist.cells.Cell.eval_ternary` bit for bit: an output
lane is known iff every completion of its X inputs agrees.  Common
functions (BUF/INV, AND/NAND, OR/NOR, XOR/XNOR — detected from the
truth table, not the cell name) get hand-specialized expressions whose
equivalence is argued locally; every other cell (MUX2, AOI21, OAI21,
anything user-defined) goes through a *possibility-set* construction
that mirrors ``eval_ternary``'s enumeration directly: per input,
``can1 = value | ~known`` and ``can0 = ~value``; per truth-table
minterm, the AND of its input possibilities; the output is known where
not both a 1-minterm and a 0-minterm are reachable.  The test suite
closes the loop by sweeping every library cell over all ternary input
combinations, one combination per lane.

:class:`VectorCycleSimulator` mirrors the scalar
:class:`~repro.sim.sync.CycleSimulator` on DFF netlists.  It does not
model per-net toggle counts (the power model runs on the scalar/event
engines); per-register toggle counts are recoverable exactly from
``init`` plus the capture stream, which is how the differential harness
compares them.
"""

from __future__ import annotations

from collections.abc import Iterable

from repro.netlist.cells import Cell, CellKind, PIN_D, PIN_RESET_N
from repro.netlist.core import Instance, Netlist
from repro.obs.metrics import METRICS
from repro.obs.trace import TRACER as _TRACER
from repro.sim.lanes import resolve_lanes
from repro.sim.logic import Value
from repro.utils.errors import SimulationError

#: A packed lane word pair: (value bits, known bits).
Lanes = tuple[int, int]


# ----------------------------------------------------------------------
# packing helpers
# ----------------------------------------------------------------------

def pack_lanes(values: Iterable[Value]) -> Lanes:
    """Pack scalar values (lane 0 first) into a ``(value, known)`` pair."""
    value = known = 0
    bit = 1
    for scalar in values:
        if scalar is not None:
            known |= bit
            if scalar:
                value |= bit
        bit <<= 1
    return value, known


def unpack_lanes(packed: Lanes, lanes: int) -> list[Value]:
    """Unpack a ``(value, known)`` pair into ``lanes`` scalar values."""
    value, known = packed
    return [(value >> i) & 1 if (known >> i) & 1 else None
            for i in range(lanes)]


def pack_stimuli(stimuli: list[list[dict[str, Value]]],
                 ) -> list[dict[str, Lanes]]:
    """Pack N scalar per-cycle stimuli into one lane-parallel stimulus.

    ``stimuli[i]`` becomes lane *i*.  All stimuli must have the same
    length and drive the same ports each cycle — per-lane *partial*
    vectors cannot be expressed with whole-word writes (a lane whose
    scalar run would leave a port untouched has no packed equivalent),
    so mismatched port sets raise.
    """
    if not stimuli:
        return []
    lengths = {len(stimulus) for stimulus in stimuli}
    if len(lengths) != 1:
        raise SimulationError(
            f"lane stimuli have differing lengths {sorted(lengths)}")
    packed: list[dict[str, Lanes]] = []
    for cycle in range(lengths.pop()):
        ports = set(stimuli[0][cycle])
        for lane, stimulus in enumerate(stimuli[1:], start=1):
            if set(stimulus[cycle]) != ports:
                raise SimulationError(
                    f"lane {lane} drives different ports than lane 0 "
                    f"at cycle {cycle}")
        packed.append({
            port: pack_lanes([stimulus[cycle][port] for stimulus in stimuli])
            for port in sorted(ports)})
    return packed


# ----------------------------------------------------------------------
# code generation
# ----------------------------------------------------------------------

def _emit_cell(cell: Cell, ins: list[tuple[str, str]],
               vo: str, ko: str) -> list[str]:
    """Source lines computing ``(vo, ko)`` = ternary eval of ``cell``.

    ``ins`` holds the ``(value, known)`` variable names per input pin,
    in pin order.  ``M`` (the all-lanes mask) is in scope.  Relies on
    the ``value & ~known == 0`` invariant and preserves it.
    """
    n = cell.n_inputs
    size = 1 << n
    full = (1 << size) - 1
    tt = cell.tt & full
    vs = [v for v, _ in ins]
    ks = [k for _, k in ins]
    if tt == 0:  # constant 0 regardless of inputs
        return [f"{vo} = 0", f"{ko} = M"]
    if tt == full:  # constant 1
        return [f"{vo} = M", f"{ko} = M"]
    if n == 1:
        if tt == 0b10:  # buffer
            return [f"{vo} = {vs[0]}", f"{ko} = {ks[0]}"]
        # tt == 0b01: inverter — known lanes flip, X lanes stay X.
        return [f"{vo} = {ks[0]} ^ {vs[0]}", f"{ko} = {ks[0]}"]
    # known-one per input is just its value word; known-zero is k ^ v.
    ones = " & ".join(vs)
    someone = " | ".join(vs)
    somezero = " | ".join(f"({k} ^ {v})" for v, k in ins)
    allzero = " & ".join(f"({k} ^ {v})" for v, k in ins)
    if tt == 1 << (size - 1):  # AND: 1 iff all one; 0 iff any known zero
        return [f"{vo} = {ones}", f"{ko} = {vo} | {somezero}"]
    if tt == full ^ (1 << (size - 1)):  # NAND
        return [f"{vo} = {somezero}", f"{ko} = ({ones}) | {vo}"]
    if tt == full ^ 1:  # OR: 1 iff any known one; 0 iff all known zero
        return [f"{vo} = {someone}", f"{ko} = {vo} | ({allzero})"]
    if tt == 1:  # NOR
        return [f"{vo} = {allzero}", f"{ko} = {someone} | {vo}"]
    if n == 2 and tt in (0b0110, 0b1001):  # XOR / XNOR: X-strict
        lines = [f"{ko} = {ks[0]} & {ks[1]}"]
        if tt == 0b0110:
            lines.append(f"{vo} = ({vs[0]} ^ {vs[1]}) & {ko}")
        else:
            lines.append(f"{vo} = {ko} & ~({vs[0]} ^ {vs[1]})")
        return lines
    # Generic cell: possibility sets + minterm enumeration — the literal
    # lane-parallel transcription of eval_ternary.  can1/can0 per input
    # are the lanes where that input may evaluate to 1/0 under some
    # completion of its X lanes; a minterm is reachable in a lane iff
    # every factor is possible there; the output is known where only
    # one polarity of minterm is reachable.
    lines = []
    can1 = []
    can0 = []
    for j, (v, k) in enumerate(ins):
        can1.append(f"{vo}_a{j}")
        can0.append(f"{vo}_b{j}")
        lines.append(f"{can1[j]} = {v} | (M ^ {k})")
        lines.append(f"{can0[j]} = M ^ {v}")
    products1 = []
    products0 = []
    for combo in range(size):
        product = " & ".join(
            can1[j] if (combo >> j) & 1 else can0[j] for j in range(n))
        (products1 if (tt >> combo) & 1 else products0).append(f"({product})")
    lines.append(f"{vo}_c1 = " + " | ".join(products1))
    lines.append(f"{vo}_c0 = " + " | ".join(products0))
    lines.append(f"{ko} = M ^ ({vo}_c1 & {vo}_c0)")
    lines.append(f"{vo} = {vo}_c1 & {ko}")
    return lines


def compile_pass(netlist: Netlist, order: list[Instance],
                 slot_of: dict[str, int], lanes: int):
    """Compile one evaluation pass over ``order`` into a function.

    Returns ``(fn, source)``: ``fn(V, K)`` reads the slot-indexed value/
    known word lists, evaluates every instance of ``order`` (gates
    through :func:`_emit_cell`, transparent latches as buffers, TIEs as
    constants) with all intermediates held in locals, and writes every
    computed net back.  ``source`` is kept for debugging.  ``M`` is
    bound to the ``lanes``-bit all-lanes mask.
    """
    body: list[str] = []
    computed: list[int] = []
    computed_set: set[int] = set()
    reads: set[int] = set()
    for inst in order:
        out = slot_of[inst.output_net().name]
        vo, ko = f"v{out}", f"k{out}"
        if inst.is_sequential:  # transparent latch: combinational buffer
            data = slot_of[inst.data_net().name]
            reads.add(data)
            body += [f"{vo} = v{data}", f"{ko} = k{data}"]
        elif inst.cell.kind is CellKind.TIE:
            body += [f"{vo} = {'M' if inst.cell.tt & 1 else 0}",
                     f"{ko} = M"]
        else:
            ins = []
            for pin in inst.cell.inputs:
                slot = slot_of[inst.pins[pin].name]
                reads.add(slot)
                ins.append((f"v{slot}", f"k{slot}"))
            body += _emit_cell(inst.cell, ins, vo, ko)
        computed.append(out)
        computed_set.add(out)
    lines = ["def _eval(V, K):"]
    for slot in sorted(reads - computed_set):
        lines.append(f"    v{slot} = V[{slot}]; k{slot} = K[{slot}]")
    lines.extend("    " + line for line in body)
    for slot in computed:
        lines.append(f"    V[{slot}] = v{slot}; K[{slot}] = k{slot}")
    if len(lines) == 1:
        lines.append("    pass")
    source = "\n".join(lines)
    namespace: dict[str, object] = {"M": (1 << lanes) - 1}
    exec(source, namespace)  # noqa: S102 — source generated just above
    return namespace["_eval"], source


#: Process-global compiled-kernel cache, keyed ``(netlist fingerprint,
#: kind, lanes)``.  Structural fingerprints make entries valid
#: across distinct :class:`Netlist` objects (the same corpus config
#: regenerated per sweep cell, per fault-campaign cell, per worker
#: task), so repeated batch calls skip ``exec`` recompilation entirely;
#: a mutated netlist fingerprints differently, so stale entries are
#: unreachable rather than wrong.  Bounded FIFO so campaign-scale config
#: churn cannot grow it without limit.
_KERNEL_CACHE: dict[tuple, tuple] = {}
_KERNEL_CACHE_CAP = 256


def compile_pass_cached(netlist: Netlist, kind, lanes: int,
                        slot_of: dict[str, int], order_fn):
    """Fingerprint-keyed :func:`compile_pass`, with hit/miss metrics.

    ``kind`` tags the pass flavour (``"comb"`` or a replay-segment
    key); ``order_fn`` produces the evaluation order only on a miss.
    Hits and misses are surfaced through the global metrics registry as
    ``sim.vector.kernel_cache_hits`` / ``..._misses`` — the counters
    sweeps and fault campaigns fold into their envelopes.
    """
    key = (netlist.fingerprint(), kind, lanes)
    hit = _KERNEL_CACHE.get(key)
    if hit is not None:
        METRICS.counter("sim.vector.kernel_cache_hits").inc()
        return hit
    METRICS.counter("sim.vector.kernel_cache_misses").inc()
    hit = compile_pass(netlist, order_fn(), slot_of, lanes)
    if len(_KERNEL_CACHE) >= _KERNEL_CACHE_CAP:
        _KERNEL_CACHE.pop(next(iter(_KERNEL_CACHE)))
    _KERNEL_CACHE[key] = hit
    return hit


# ----------------------------------------------------------------------
# engines
# ----------------------------------------------------------------------

class VectorCycleSimulator:
    """Lane-parallel cycle simulator for DFF-based synchronous netlists.

    The lane-parallel counterpart of
    :class:`~repro.sim.sync.CycleSimulator`: same cycle convention
    (inputs applied, one topological evaluation, all DFFs sample on the
    virtual rising edge), identical per-lane capture streams — verified
    by the differential harness — at a per-stimulus cost roughly
    ``lanes`` times lower.
    """

    def __init__(self, netlist: Netlist, lanes: int | None = None):
        if netlist.latch_instances():
            raise SimulationError(
                f"{netlist.name} contains latches; "
                "use LatchCycleSimulator")
        if netlist.celement_instances():
            raise SimulationError(
                f"{netlist.name} contains C-elements; use EventSimulator")
        self.netlist = netlist
        self.lanes = resolve_lanes(netlist, lanes)
        self.mask = (1 << self.lanes) - 1
        self._names = list(netlist.nets)
        self._slot_of = {name: i for i, name in enumerate(self._names)}
        self.V = [0] * len(self._names)
        self.K = [0] * len(self._names)
        self.cycles = 0
        #: Packed capture streams: register name -> [(value, known)] per
        #: capture, lane-demuxed by :meth:`lane_captures`.
        self.captures: dict[str, list[Lanes]] = {}
        #: ``(output slot, init value word)`` per register, for
        #: :meth:`reset`.
        self._seq_inits: list[tuple[int, int]] = []
        if netlist.clock is not None:
            self.K[self._slot_of[netlist.clock]] = self.mask
        # Fingerprint-cached: every same-width construction over a
        # structurally identical netlist — across batch calls, sweep
        # cells, even regenerated Netlist objects — shares one
        # generated function instead of recompiling it.
        self._eval, self.source = compile_pass_cached(
            netlist, "comb", self.lanes, self._slot_of,
            netlist.topo_order_comb_only)
        self._ffs = [self._seq_slots(ff) for ff in netlist.dff_instances()]

    def _seq_slots(self, inst: Instance) -> tuple[int, int, int, list]:
        """(D slot, RN slot or -1, output slot, capture list) of ``inst``;
        initializes the output words to the known init value."""
        out = self._slot_of[inst.output_net().name]
        init = self.mask if inst.init else 0
        self.V[out], self.K[out] = init, self.mask
        self._seq_inits.append((out, init))
        reset = (self._slot_of[inst.pins[PIN_RESET_N].name]
                 if PIN_RESET_N in inst.cell.inputs else -1)
        caps: list[Lanes] = []
        self.captures[inst.name] = caps
        return (self._slot_of[inst.pins[PIN_D].name], reset, out, caps)

    def reset(self) -> None:
        """Return to the post-construction state.

        All nets X, clock known-0, registers at their init values,
        capture streams empty, cycle count zero.  Batch drivers reset
        one full-width simulator between blocks instead of constructing
        (and compiling a kernel for) a fresh one per block.
        """
        self.V = [0] * len(self._names)
        self.K = [0] * len(self._names)
        if self.netlist.clock is not None:
            self.K[self._slot_of[self.netlist.clock]] = self.mask
        for out, init in self._seq_inits:
            self.V[out], self.K[out] = init, self.mask
        for caps in self.captures.values():
            caps.clear()
        self.cycles = 0

    # -- stimulus ------------------------------------------------------
    def _coerce_packed(self, port: str,
                       packed: Lanes | Value) -> tuple[int, int]:
        """Validate/broadcast one port's stimulus to bigint words."""
        if isinstance(packed, tuple):
            value, known = packed
            if known >> self.lanes or value & ~known:
                raise SimulationError(
                    f"packed word for {port} spills outside "
                    f"{self.lanes} lanes or has value bits in "
                    f"unknown lanes")
            return value, known
        if packed is None:
            return 0, 0
        return (self.mask if packed else 0), self.mask

    def set_inputs(self, inputs: dict[str, Lanes | Value]) -> None:
        """Drive input ports with packed ``(value, known)`` pairs.

        Scalar values broadcast: ``0``/``1`` drive every lane, ``None``
        makes every lane X.
        """
        for port, packed in inputs.items():
            net = self.netlist.nets.get(port)
            if net is None or not net.is_input_port:
                raise SimulationError(f"{port} is not an input port")
            slot = self._slot_of[port]
            self.V[slot], self.K[slot] = self._coerce_packed(port, packed)

    def drive_lanes(self, port: str, values: Iterable[Value]) -> None:
        """Drive ``port`` with one scalar value per lane (lane 0 first)."""
        self.set_inputs({port: pack_lanes(values)})

    # -- observation ---------------------------------------------------
    def packed_value(self, net: str) -> Lanes:
        slot = self._slot_of[net]
        return self.V[slot], self.K[slot]

    def lane_value(self, net: str, lane: int) -> Value:
        slot = self._slot_of[net]
        if (self.K[slot] >> lane) & 1:
            return (self.V[slot] >> lane) & 1
        return None

    def lane_captures(self, lane: int) -> dict[str, list[Value]]:
        """Demux one lane's capture streams to scalar values."""
        return {
            name: [(value >> lane) & 1 if (known >> lane) & 1 else None
                   for value, known in stream]
            for name, stream in self.captures.items()}

    def evaluate(self) -> None:
        """One pass of the generated combinational function, all lanes."""
        self._eval(self.V, self.K)

    def step(self, inputs: dict[str, Lanes | Value] | None = None) -> None:
        """One clock cycle: apply inputs, evaluate, then clock every DFF
        at once (all D reads before any Q write, with the per-lane
        async-reset override)."""
        if inputs:
            self.set_inputs(inputs)
        V, K = self.V, self.K
        self._eval(V, K)
        writes = []
        for data, reset, out, caps in self._ffs:
            value, known = V[data], K[data]
            if reset >= 0:
                clear = K[reset] & ~V[reset]
                if clear:
                    value &= ~clear
                    known |= clear
            caps.append((value, known))
            writes.append((out, value, known))
        for out, value, known in writes:
            V[out] = value
            K[out] = known
        self.cycles += 1

    def run(self, cycles: int,
            inputs_per_cycle: list[dict[str, Lanes | Value]] | None = None,
            ) -> None:
        with _TRACER.span("sim:vector", netlist=self.netlist.name,
                          cycles=cycles, lanes=self.lanes) as span:
            for k in range(cycles):
                self.step(inputs_per_cycle[k] if inputs_per_cycle
                          else None)
            span.count("sim.kernel_passes", cycles)
