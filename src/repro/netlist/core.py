"""Gate-level netlist data model and builder API.

A :class:`Netlist` is a flat interconnection of library-cell
:class:`Instance` objects through single-bit :class:`Net` objects, with
named input/output ports.  This is the representation every stage of the
de-synchronization flow operates on: synthesis output, the latch-based
conversion, the controller network, and both simulators.

Conventions:
    * every net has exactly one driver (an instance output pin or an input
      port) once the netlist is complete — :meth:`Netlist.validate` enforces
      this;
    * vector signals are modelled as individual bit nets named
      ``base[index]`` (see :mod:`repro.utils.naming`);
    * sequential instances carry an ``init`` value, the power-up state of
      their output.
"""

from __future__ import annotations

import hashlib
from collections.abc import Iterable, Iterator, Mapping, Sequence
from dataclasses import dataclass, field

from repro.netlist.cells import Cell, CellKind, Library, GENERIC, PIN_D
from repro.obs.trace import TRACER as _TRACER
from repro.utils.errors import NetlistError
from repro.utils.naming import NameScope

#: Cache-miss marker of :meth:`Netlist.memo`, so a computed ``None`` is
#: a hit like any other value.
_MISS = object()


@dataclass(slots=True)
class Net:
    """A single-bit wire.

    Attributes:
        name: unique net name within the netlist.
        driver: ``(instance, pin)`` pair driving the net, or ``None`` while
            undriven.  Input ports drive their net with driver ``None`` but
            ``is_input_port`` set.
        sinks: list of ``(instance, pin)`` input connections.
        is_input_port / is_output_port: port flags (a net may be both a
            port and internally loaded).
    """

    name: str
    driver: tuple["Instance", str] | None = None
    sinks: list[tuple["Instance", str]] = field(default_factory=list)
    is_input_port: bool = False
    is_output_port: bool = False

    @property
    def fanout(self) -> int:
        """Number of input pins loaded by this net (output ports add one)."""
        return len(self.sinks) + (1 if self.is_output_port else 0)

    def driver_instance(self) -> "Instance | None":
        return self.driver[0] if self.driver else None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Net({self.name!r})"


@dataclass(slots=True)
class Instance:
    """An instantiated library cell.

    Attributes:
        name: unique instance name.
        cell: the library :class:`Cell`.
        pins: mapping pin name -> connected :class:`Net`.
        init: power-up output value for sequential cells and C-elements.
    """

    name: str
    cell: Cell
    pins: dict[str, Net] = field(default_factory=dict)
    init: int = 0

    @property
    def is_sequential(self) -> bool:
        return self.cell.kind in (CellKind.DFF, CellKind.LATCH_HIGH,
                                  CellKind.LATCH_LOW)

    @property
    def is_combinational(self) -> bool:
        return self.cell.kind in (CellKind.COMB, CellKind.TIE)

    @property
    def is_celement(self) -> bool:
        """True for state-holding handshake cells (C-elements and the
        asymmetric token cells)."""
        return self.cell.kind in (CellKind.CELEMENT, CellKind.ACK,
                                  CellKind.REQ, CellKind.ASYM)

    def input_nets(self) -> list[Net]:
        return [self.pins[p] for p in self.cell.inputs if p in self.pins]

    def output_net(self) -> Net:
        try:
            return self.pins[self.cell.output]
        except KeyError:
            raise NetlistError(
                f"instance {self.name} has no connected output") from None

    def data_net(self) -> Net:
        """The D input net of a sequential instance."""
        return self.pins[PIN_D]

    def clock_net(self) -> Net:
        """The clock/enable net of a sequential instance."""
        if self.cell.clock_pin is None:
            raise NetlistError(f"instance {self.name} has no clock pin")
        return self.pins[self.cell.clock_pin]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Instance({self.name!r}:{self.cell.name})"


class Netlist:
    """A flat gate-level netlist plus its builder API.

    Structural queries that every simulator construction repeats
    (:meth:`topo_order_comb_only`, :meth:`dff_instances`,
    :meth:`latch_instances`, :meth:`comb_instances`), a passing
    :meth:`validate` and the flow analyses parked in :meth:`memo` are
    cached and invalidated by the mutating builder calls (:meth:`net`
    creating a net, :meth:`add_input`, :meth:`add_output`, :meth:`add`,
    :meth:`connect`).  Code that mutates structure *directly* — editing
    ``Net.driver``/``Net.sinks``, ``Instance.pins`` or ``clock``
    without going through the builder — must call
    :meth:`invalidate_query_caches` afterwards.
    """

    def __init__(self, name: str, library: Library | None = None):
        self.name = name
        self.library = library if library is not None else GENERIC
        self.nets: dict[str, Net] = {}
        self.instances: dict[str, Instance] = {}
        self.inputs: list[str] = []      # ordered input port names
        self.outputs: list[str] = []     # ordered output port names
        self.clock: str | None = None    # name of the clock input, if any
        self._net_scope = NameScope()
        self._inst_scope = NameScope()
        self._query_cache: dict[object, object] = {}

    def invalidate_query_caches(self) -> None:
        """Drop cached structural queries after a direct mutation."""
        self._query_cache.clear()

    def release(self) -> None:
        """Free this netlist's object graph by reference counting.

        Nets and instances point at each other (``Net.driver``/
        ``Net.sinks`` against ``Instance.pins``), and the query cache
        holds engines compiled from them, so a dropped netlist is a
        graph of reference cycles that only a full collection frees.
        Clearing those links and the cache leaves no cycle: the graph is
        freed as soon as its last outside reference goes.  The netlist
        keeps its names but has no connectivity afterwards; call this
        only on a netlist nothing will read again.
        """
        for net in self.nets.values():
            net.driver = None
            net.sinks = []
        for inst in self.instances.values():
            inst.pins = {}
        self._query_cache.clear()

    def memo(self, key, compute):
        """Memoize a structure-derived value in the query cache.

        Invalidated together with the structural queries (any ``add``/
        ``connect`` or :meth:`invalidate_query_caches`), so engines may
        park per-netlist compilation artifacts here — e.g. the vector
        simulator's generated evaluation functions — without their own
        invalidation plumbing.  The value is returned as stored: share
        only immutable (or never-mutated) values — with one kind of
        exception, simulation engines parked for reuse that are checked
        out by one caller at a time and reset before every use (see
        :func:`repro.sim.backends.reused_simulator`).  Any value counts
        as a hit once computed, ``None`` included.
        """
        hit = self._query_cache.get(key, _MISS)
        if hit is not _MISS:
            if _TRACER.enabled:
                _TRACER.count("netlist.memo_hits")
            return hit
        hit = compute()
        self._query_cache[key] = hit
        if _TRACER.enabled:
            _TRACER.count("netlist.memo_misses")
        return hit

    def fingerprint(self) -> str:
        """sha256 of the construction-order structural identity.

        Covers everything the compiled simulator artifacts depend on:
        net insertion order (slot assignment follows it), ports and
        clock, instances in insertion order with cell, init and pin
        bindings, and the library's cell inventory (truth tables,
        delays, areas).  The module *name* is excluded — the fingerprint
        identifies structure, so regenerating a corpus config yields the
        same fingerprint.  Cached in the query cache, hence recomputed
        after any mutation.
        """
        cached = self._query_cache.get("fingerprint")
        if cached is not None:
            return cached
        digest = hashlib.sha256()

        def feed(*parts: object) -> None:
            digest.update("\x1f".join(str(part) for part in parts)
                          .encode() + b"\n")

        feed("library", self.library.name)
        for cell in sorted(self.library.cells):
            entry = self.library.cells[cell]
            feed(cell, entry.kind.name, entry.tt, entry.delay, entry.area)
        feed("nets", *self.nets)
        feed("inputs", *self.inputs)
        feed("outputs", *self.outputs)
        feed("clock", self.clock)
        for inst in self.instances.values():
            feed(inst.name, inst.cell.name, inst.init,
                 *(f"{pin}={inst.pins[pin].name}"
                   for pin in inst.cell.pins if pin in inst.pins))
        cached = digest.hexdigest()
        self._query_cache["fingerprint"] = cached
        return cached

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def net(self, name: str) -> Net:
        """Return the net called ``name``, creating it if needed."""
        existing = self.nets.get(name)
        if existing is not None:
            return existing
        created = Net(name)
        self.nets[name] = created
        self._net_scope.reserve(name)
        self._query_cache.clear()
        return created

    def new_net(self, base: str) -> Net:
        """Create a fresh net with a unique name derived from ``base``."""
        return self.net(self._net_scope.unique(base))

    def add_input(self, name: str, clock: bool = False) -> Net:
        """Declare an input port (and its net)."""
        net = self.net(name)
        if net.is_input_port:
            raise NetlistError(f"duplicate input port {name}")
        if net.driver is not None:
            raise NetlistError(f"input port {name} conflicts with a driven net")
        net.is_input_port = True
        self.inputs.append(name)
        if clock:
            self.clock = name
        self._query_cache.clear()
        return net

    def add_output(self, name: str) -> Net:
        """Declare an output port on the net called ``name``."""
        net = self.net(name)
        if net.is_output_port:
            raise NetlistError(f"duplicate output port {name}")
        net.is_output_port = True
        self.outputs.append(name)
        self._query_cache.clear()
        return net

    def add(self, cell: str | Cell, name: str | None = None,
            init: int = 0, **connections: Net | str) -> Instance:
        """Instantiate ``cell`` with pin connections given as keywords.

        Connection values may be :class:`Net` objects or net names (created
        on demand).  Returns the new :class:`Instance`.
        """
        cell_obj = self.library[cell] if isinstance(cell, str) else cell
        inst_name = self._inst_scope.unique(
            name if name is not None else f"u_{cell_obj.name.lower()}")
        if name is not None and inst_name != name:
            raise NetlistError(f"duplicate instance name {name}")
        inst = Instance(inst_name, cell_obj, init=init)
        self.instances[inst_name] = inst
        self._query_cache.clear()
        for pin, target in connections.items():
            self.connect(inst, pin, target)
        return inst

    def connect(self, inst: Instance, pin: str, target: Net | str) -> Net:
        """Connect ``pin`` of ``inst`` to ``target`` (net or net name)."""
        if pin not in inst.cell.pins:
            raise NetlistError(
                f"cell {inst.cell.name} has no pin {pin!r} "
                f"(pins: {', '.join(inst.cell.pins)})")
        if pin in inst.pins:
            raise NetlistError(f"pin {inst.name}.{pin} already connected")
        net = self.net(target) if isinstance(target, str) else target
        if net.name not in self.nets:
            raise NetlistError(f"net {net.name} does not belong to {self.name}")
        if pin == inst.cell.output:
            if net.driver is not None:
                other = net.driver[0].name
                raise NetlistError(
                    f"net {net.name} already driven by {other}; "
                    f"cannot also drive from {inst.name}")
            if net.is_input_port:
                raise NetlistError(
                    f"net {net.name} is an input port; cannot drive it")
            net.driver = (inst, pin)
        else:
            net.sinks.append((inst, pin))
        inst.pins[pin] = net
        self._query_cache.clear()
        return net

    def add_copies(self, entries: Iterable[
            tuple[str, Cell, int, Sequence[tuple[str, str]]]]) -> None:
        """Instantiate cells copied from an already-built netlist.

        ``entries`` are ``(name, cell, init, ((pin, net name), ...))``;
        nets are created on first use.  Equivalent to one :meth:`add`
        per entry — same instance, pin and net-creation order, and the
        same duplicate-name and double-driver errors — without its
        per-pin checks that the source netlist already passed (each pin
        exists on the cell and is bound once).
        """
        nets, instances = self.nets, self.instances
        net_scope, inst_scope = self._net_scope, self._inst_scope
        for name, cell, init, pins in entries:
            if name in inst_scope:
                raise NetlistError(f"duplicate instance name {name}")
            inst_scope.reserve(name)
            inst = Instance(name, cell, init=init)
            instances[name] = inst
            bound = inst.pins
            for pin, net_name in pins:
                net = nets.get(net_name)
                if net is None:
                    net = nets[net_name] = Net(net_name)
                    net_scope.reserve(net_name)
                if pin == cell.output:
                    if net.driver is not None or net.is_input_port:
                        raise NetlistError(
                            f"net {net_name} cannot also be driven from "
                            f"{name}")
                    net.driver = (inst, pin)
                else:
                    net.sinks.append((inst, pin))
                bound[pin] = net
        self._query_cache.clear()

    def add_gate(self, cell: str | Cell, inputs: Sequence[Net | str],
                 output: Net | str | None = None,
                 name: str | None = None) -> Net:
        """Convenience: instantiate a combinational cell positionally.

        ``inputs`` are connected to the cell's input pins in order; the
        output net is created if not given.  Returns the output net.
        """
        cell_obj = self.library[cell] if isinstance(cell, str) else cell
        if len(inputs) != cell_obj.n_inputs:
            raise NetlistError(
                f"cell {cell_obj.name} needs {cell_obj.n_inputs} inputs, "
                f"got {len(inputs)}")
        if output is None:
            base = name if name is not None else f"n_{cell_obj.name.lower()}"
            output = self.new_net(base)
        connections: dict[str, Net | str] = {
            pin: net for pin, net in zip(cell_obj.inputs, inputs)}
        connections[cell_obj.output] = output
        inst = self.add(cell_obj, name=name, **connections)
        return inst.output_net()

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def _cached(self, key: str, compute) -> list:
        """Memoized structural query; returns a fresh list each call so
        callers may sort/consume it without corrupting the cache."""
        return list(self.memo(key, lambda: tuple(compute())))

    def comb_instances(self) -> list[Instance]:
        return self._cached("comb", lambda: (
            i for i in self.instances.values() if i.is_combinational))

    def seq_instances(self) -> list[Instance]:
        return [i for i in self.instances.values() if i.is_sequential]

    def celement_instances(self) -> list[Instance]:
        return [i for i in self.instances.values() if i.is_celement]

    def dff_instances(self) -> list[Instance]:
        return self._cached("dffs", lambda: (
            i for i in self.instances.values()
            if i.cell.kind is CellKind.DFF))

    def latch_instances(self) -> list[Instance]:
        return self._cached("latches", lambda: (
            i for i in self.instances.values()
            if i.cell.kind in (CellKind.LATCH_HIGH, CellKind.LATCH_LOW)))

    def validate(self) -> None:
        """Check structural sanity; raises :class:`NetlistError` on failure.

        A pass is memoized until the next mutation, so the flow can
        re-validate its input on every run for free.
        """
        self.memo("validated", self._check_structure)

    def _check_structure(self) -> None:
        for net in self.nets.values():
            if net.driver is None and not net.is_input_port:
                if net.fanout:
                    raise NetlistError(f"net {net.name} has sinks but no driver")
        for inst in self.instances.values():
            for pin in inst.cell.pins:
                if pin not in inst.pins:
                    raise NetlistError(
                        f"pin {inst.name}.{pin} ({inst.cell.name}) unconnected")
        # Combinational cycles are an error; cycles through C-elements are
        # legitimate (handshake controllers are feedback structures).
        self.topo_order_comb_only()

    def topo_order(self) -> list[Instance]:
        """Topological order of combinational and C-element instances.

        Sequential outputs and ports act as sources.  Raises
        :class:`NetlistError` if the combinational logic contains a cycle
        (C-elements count as combinational here because their output
        feeds forward; controller feedback loops go through named cut
        nets only in the event simulator, so flows that build controller
        loops must tolerate this by excluding C-elements — see
        :meth:`topo_order_comb_only`).
        """
        return self._topo(include_celements=True)

    def topo_order_comb_only(self) -> list[Instance]:
        """Topological order of purely combinational instances (cached)."""
        return self._cached("topo_comb",
                            lambda: self._topo(include_celements=False))

    def _topo(self, include_celements: bool) -> list[Instance]:
        members = {
            inst.name: inst for inst in self.instances.values()
            if inst.is_combinational or (include_celements and inst.is_celement)
        }
        indegree: dict[str, int] = {name: 0 for name in members}
        dependents: dict[str, list[str]] = {name: [] for name in members}
        for inst in members.values():
            for net in inst.input_nets():
                drv = net.driver_instance()
                if drv is not None and drv.name in members:
                    indegree[inst.name] += 1
                    dependents[drv.name].append(inst.name)
        ready = sorted(name for name, deg in indegree.items() if deg == 0)
        order: list[Instance] = []
        queue = list(reversed(ready))
        while queue:
            name = queue.pop()
            order.append(members[name])
            for dep in dependents[name]:
                indegree[dep] -= 1
                if indegree[dep] == 0:
                    queue.append(dep)
        if len(order) != len(members):
            remaining = sorted(set(members) - {i.name for i in order})
            raise NetlistError(
                "combinational cycle involving: " + ", ".join(remaining[:10]))
        return order

    def fanin_cone(self, net: Net) -> set[str]:
        """Names of combinational instances in the transitive fanin of ``net``."""
        cone: set[str] = set()
        stack = [net]
        while stack:
            current = stack.pop()
            drv = current.driver_instance()
            if drv is None or not (drv.is_combinational or drv.is_celement):
                continue
            if drv.name in cone:
                continue
            cone.add(drv.name)
            stack.extend(drv.input_nets())
        return cone

    def total_area(self) -> float:
        """Sum of instance areas in um^2."""
        return sum(inst.cell.area for inst in self.instances.values())

    def counts_by_kind(self) -> dict[CellKind, int]:
        counts: dict[CellKind, int] = {}
        for inst in self.instances.values():
            counts[inst.cell.kind] = counts.get(inst.cell.kind, 0) + 1
        return counts

    def __len__(self) -> int:
        return len(self.instances)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"Netlist({self.name!r}, {len(self.instances)} instances, "
                f"{len(self.nets)} nets)")


def clone(netlist: Netlist, name: str | None = None) -> Netlist:
    """Deep-copy a netlist (fresh Net/Instance objects, same Library)."""
    copy = Netlist(name if name is not None else netlist.name,
                   netlist.library)
    for port in netlist.inputs:
        copy.add_input(port, clock=(port == netlist.clock))
    copy.add_copies(
        (inst.name, inst.cell, inst.init,
         [(pin, net.name) for pin, net in inst.pins.items()])
        for inst in netlist.instances.values())
    for port in netlist.outputs:
        copy.add_output(port)
    return copy


@dataclass(frozen=True)
class RegisterFanin:
    """Which sequential instances reach each sequential D input.

    Attributes:
        index: sequential instance name -> its bit position in a mask.
        fanin: sequential instance name -> bit mask of the sequential
            instances whose outputs reach its D input through
            combinational logic (or directly).
    """

    index: dict[str, int]
    fanin: dict[str, int]

    def bank_sources(self, banks: Mapping[str, Sequence[Instance]],
                     ) -> dict[str, list[str]]:
        """Per bank, the banks with a member that reaches one of its
        members' D inputs (the bank itself included).  ``banks`` must
        cover every sequential source that reaches a member."""
        owner: dict[int, str] = {}
        members: dict[str, int] = {}
        for bank, insts in banks.items():
            bits = 0
            for inst in insts:
                position = self.index[inst.name]
                owner[position] = bank
                bits |= 1 << position
            members[bank] = bits
        sources: dict[str, list[str]] = {}
        for bank, insts in banks.items():
            mask = 0
            for inst in insts:
                mask |= self.fanin[inst.name]
            found = sources[bank] = []
            while mask:
                source = owner[(mask & -mask).bit_length() - 1]
                found.append(source)
                mask &= ~members[source]
        return sources


def register_fanin(netlist: Netlist) -> RegisterFanin:
    """The sequential fanin of every flip-flop and latch of ``netlist``.

    One pass over :meth:`Netlist.topo_order_comb_only` carries, per
    net, the set of sequential sources reaching it as an int bit mask.
    Memoized on ``netlist`` (:meth:`Netlist.memo`); callers must only
    read the result.  Flip-flop and latch netlists only: raises
    :class:`NetlistError` on C-elements and on a combinational cycle.
    """
    return netlist.memo("register_fanin",
                        lambda: _register_fanin(netlist))


def _register_fanin(netlist: Netlist) -> RegisterFanin:
    handshake = netlist.celement_instances()
    if handshake:
        raise NetlistError(
            f"{netlist.name} has handshake cell {handshake[0].name}: "
            "register fanin covers flip-flop and latch netlists only")
    sequential = netlist.seq_instances()
    index = {inst.name: position
             for position, inst in enumerate(sequential)}
    reach: dict[str, int] = {
        inst.output_net().name: 1 << position
        for position, inst in enumerate(sequential)}
    for gate in netlist.topo_order_comb_only():
        mask = 0
        for net in gate.input_nets():
            mask |= reach.get(net.name, 0)
        if mask:
            reach[gate.output_net().name] = mask
    return RegisterFanin(index, {
        inst.name: reach.get(inst.data_net().name, 0)
        for inst in sequential})


def iter_register_banks(netlist: Netlist) -> Iterator[tuple[str, list[Instance]]]:
    """Group sequential instances into banks by name prefix.

    Instances named ``bank/bit[i]`` (or any ``prefix/suffix``) group under
    ``prefix``; unprefixed registers form singleton banks.  Banks are the
    unit that shares one local-clock controller after de-synchronization.
    """
    banks: dict[str, list[Instance]] = {}
    for inst in netlist.seq_instances():
        prefix = inst.name.rsplit("/", 1)[0] if "/" in inst.name else inst.name
        banks.setdefault(prefix, []).append(inst)
    for bank_name in sorted(banks):
        yield bank_name, banks[bank_name]
