"""Schedule-replay lane-parallel simulation of de-synchronized fabrics.

The event-driven engines run a de-synchronized netlist one stimulus at a
time, and flow-equivalence sweeps pay one full event simulation per
seed.  This module exploits the paper's own structural decomposition to
batch that cost away: in a de-synchronized circuit the **handshake
control network** (controllers, C-elements, request/acknowledge token
cells, matched delay lines) is *data-independent* — its inputs are other
control signals only, never data values — so the firing **schedule**
(when each local clock rises and falls, when each latch captures, when
the environment presents each stimulus vector) is the same for every
stimulus.  Only the *data* values flowing through the latches and the
combinational islands between them differ.

:class:`ScheduleReplaySimulator` therefore runs in three phases:

1. **Record** — one instrumented scalar event simulation (interpreter or
   compiled engine) carrying stimulus lane 0, with the latch-enable nets
   recorded: this yields the exact firing schedule — every enable-net
   transition (the latch transparency windows), every capture instant,
   and the instant each stimulus vector was driven.
2. **Prove** — :func:`check_schedule_replayable` establishes *why* the
   schedule transfers to the other lanes: the transitive fanin cone of
   every latch enable (the control cone) must be disjoint from the
   transitive fanin cone of every latch D pin and primary output (the
   data cone), must read no primary input, and every cell delay must be
   a genuine constant.  When the proof fails the caller falls back to
   per-lane scalar event simulation with the recorded reason — the
   fallback is a first-class, logged outcome, never silent.
3. **Replay** — the recorded schedule is re-executed over ``lanes``
   stimulus lanes at once (any width; defaults to the
   :func:`repro.sim.lanes.resolve_lanes` policy), using the per-net
   ``(value, known)`` lane words and the exec-compiled bitwise kernels
   of :mod:`repro.sim.vector`.  The data cone is compiled once per
   **latch half** (one bank's masters or slaves plus their D cone, with
   the latches inlined as buffers); at each control timestamp the
   currently transparent halves' segments run in dependency order,
   closing latches capture their D words, opening halves join the next
   configuration.  Segment granularity is what keeps compilation linear
   in the design (each segment compiles once, cached process-wide by
   netlist fingerprint) while a settle evaluates only the transparent
   part of the cone.

Lane 0 of the replay is checked **capture-for-capture against the
recording engine** (values and times) at the end of phase 3 — a runtime
proof that the window-settlement semantics reproduced the event-driven
semantics on this run; a mismatch raises, and callers treat it like a
failed phase-2 proof (scalar fallback, reason recorded).  Since the
recording engine is event-for-event identical to
:class:`~repro.sim.simulator.EventSimulator` (PR 2's contract), lane-0
captures and toggle counts reported by this simulator *are* the event
simulator's, exactly.

Soundness beyond lane 0 rests on the same timing discipline the fabric
is built to guarantee: matched delays cover the worst combinational path
(so data has settled at every capture, for any lane's values) and the
handshake discipline keeps next-token launches out of the capture window
(the hold conditions).  Those are worst-case — data-independent —
properties, which is why the settled capture values transfer across
lanes; the differential harness
(``run_differential_async`` in ``tests/differential.py``) closes the
loop empirically per seed.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.netlist.cells import CellKind, PIN_D, PIN_RESET_N
from repro.netlist.core import Instance, Netlist
from repro.obs.trace import TRACER as _TRACER
from repro.sim.lanes import resolve_lanes
from repro.sim.logic import Value
from repro.sim.simulator import Capture
from repro.sim.vector import Lanes, compile_pass_cached
from repro.utils.errors import SimulationError

#: A latch half: all latches sharing one enable net and one transparency
#: level — a bank's masters or a bank's slaves.  Halves are the atoms of
#: the transparency configuration (an enable edge flips whole halves)
#: and the compilation unit of the replay.
HalfKey = tuple[str, int]


# ----------------------------------------------------------------------
# phase 2: the data-independence proof
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class ControlCone:
    """The transitive fanin of every latch enable of a netlist.

    ``nets`` lists the cone's nets in walk order (each once), starting
    from the latch enables; ``instances`` lists their drivers.  The walk
    stops at primary inputs, undriven nets and sequential drivers, so in
    a fabric that passes :func:`check_schedule_replayable` the cone is
    closed: every input of a cone instance is a cone net, and the cone's
    future is a function of its own values, stored state and pending
    events.
    """

    nets: tuple[str, ...]
    instances: tuple[str, ...]


def control_cone(netlist: Netlist) -> ControlCone:
    """The netlist's :class:`ControlCone`, memoized on ``netlist``.

    One analysis for every reader, so the replay proof and the paced
    loop's stall watch agree on what counts as control.
    """
    return netlist.memo("control_cone", lambda: _walk_control_cone(netlist))


def _walk_control_cone(netlist: Netlist) -> ControlCone:
    nets: dict[str, None] = {}
    instances: dict[str, None] = {}
    stack = [latch.clock_net() for latch in netlist.latch_instances()]
    while stack:
        net = stack.pop()
        if net.name in nets:
            continue
        nets[net.name] = None
        driver = net.driver_instance()
        if driver is None:
            continue
        instances[driver.name] = None
        if not driver.is_sequential:
            stack.extend(driver.input_nets())
    return ControlCone(tuple(nets), tuple(instances))


def check_schedule_replayable(netlist: Netlist) -> str | None:
    """Why the firing schedule of ``netlist`` transfers across stimuli.

    Returns ``None`` when the schedule is provably data-independent, or
    a human-readable reason when it is not (the caller's fallback
    record).  The reason is memoized on ``netlist``
    (:meth:`~repro.netlist.core.Netlist.memo`), and every call leaves a
    ``replay:proof`` instant event on the tracer carrying the outcome.
    The proof is structural:

    * the netlist is a latch fabric (no flip-flops, at least one latch,
      no asynchronously-resettable latch — an async clear can fire
      mid-window, which has no schedule representation);
    * the **control cone** — transitive fanin of every latch enable —
      contains no primary input and no sequential data state, so every
      enable waveform is a pure function of the fabric's reset state;
    * the **data cone** — transitive fanin of every latch D pin and
      primary output, traversing latches through D — shares no instance
      with the control cone (this also rules out data logic *reading* a
      control net: the control driver would land in both cones) and
      contains only combinational cells, ties and latches;
    * every cell delay is a constant number (matched delays cannot vary
      with data).
    """
    reason = netlist.memo("replay_proof", lambda: _proof(netlist))
    if _TRACER.enabled:
        _TRACER.instant("replay:proof", netlist=netlist.name,
                        replayable=reason is None, reason=reason)
    return reason


def _proof(netlist: Netlist) -> str | None:
    latches = netlist.latch_instances()
    if not latches:
        return "no latches: not a de-synchronized latch fabric"
    if netlist.dff_instances():
        return "contains flip-flops: the replay engine models latch fabrics"
    for latch in latches:
        if PIN_RESET_N in latch.cell.inputs:
            return (f"latch {latch.name} has an asynchronous reset: "
                    "mid-window clears are not schedule-replayable")
    for inst in netlist.instances.values():
        delay = inst.cell.delay
        if not isinstance(delay, (int, float)) or isinstance(delay, bool):
            return (f"cell {inst.cell.name} of {inst.name} has a "
                    f"non-constant delay {delay!r}: the schedule would "
                    "be data-dependent")
    cone = control_cone(netlist)
    for name in cone.nets:
        net = netlist.nets[name]
        driver = net.driver_instance()
        if driver is None:
            if net.is_input_port:
                return (f"control cone of the latch enables reads input "
                        f"port {net.name!r}: the firing schedule is "
                        "data-dependent")
        elif driver.is_sequential:
            return (f"control cone of the latch enables observes "
                    f"sequential data state {driver.name!r}: the firing "
                    "schedule is data-dependent")
    data: set[str] = set()
    stack = [latch.data_net() for latch in latches]
    stack.extend(netlist.nets[port] for port in netlist.outputs)
    while stack:
        net = stack.pop()
        driver = net.driver_instance()
        if driver is None or driver.name in data:
            continue
        data.add(driver.name)
        if driver.is_sequential:
            stack.append(driver.data_net())
        elif driver.is_combinational:
            stack.extend(driver.input_nets())
        else:
            return (f"data cone contains handshake cell {driver.name!r} "
                    f"({driver.cell.name}): state-holding cells in the "
                    "data path are not replayable")
    shared = data.intersection(cone.instances)
    if shared:
        return ("control and data cones share "
                f"{sorted(shared)[:3]}: the firing schedule is "
                "data-dependent")
    return None


# ----------------------------------------------------------------------
# the engine
# ----------------------------------------------------------------------

@dataclass
class _LatchSlots:
    """Slot-resolved view of one latch for the replay loop."""

    name: str
    d_slot: int
    out_slot: int


@dataclass
class _Half:
    """One latch half plus its compiled-segment ingredients."""

    key: HalfKey
    latches: list[_LatchSlots] = field(default_factory=list)
    #: Combinational instances of the half's D cone (up to any latch
    #: output, port or tie) — recomputed by the segment on every run, so
    #: cones shared between halves may overlap without coordination.
    cone: list[str] = field(default_factory=list)
    #: Halves whose latch outputs the cone reads: they must settle first
    #: when simultaneously transparent.
    deps: set[HalfKey] = field(default_factory=set)


def _segment_order(netlist: Netlist, half: _Half,
                   members_extra: list[Instance]) -> list[Instance]:
    """Topological evaluation order of one half's segment.

    ``members_extra`` are the half's latches (inlined as buffers after
    their D cones); opaque latches, other halves' latches and ports act
    as sources.
    """
    members: dict[str, Instance] = {
        name: netlist.instances[name] for name in half.cone}
    for inst in members_extra:
        members[inst.name] = inst
    indegree = {name: 0 for name in members}
    dependents: dict[str, list[str]] = {name: [] for name in members}
    for inst in members.values():
        nets = (inst.input_nets() if inst.is_combinational
                else [inst.data_net()])
        for net in nets:
            driver = net.driver_instance()
            if driver is not None and driver.name in members:
                indegree[inst.name] += 1
                dependents[driver.name].append(inst.name)
    ready = sorted(name for name, degree in indegree.items() if degree == 0)
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
        raise SimulationError(
            f"{netlist.name}: combinational cycle inside the data cone "
            f"of latch half {half.key}")
    return order


class ScheduleReplaySimulator:
    """Lane-parallel simulator for de-synchronized latch fabrics.

    Records the firing schedule from a scalar event simulation of lane 0
    and replays it across ``lanes`` stimulus lanes (see the module
    docstring for the three phases and the soundness argument).

    The recording phase is caller-driven through the event-simulation
    surface (:meth:`run`, :meth:`set_input`, :attr:`captures`), so any
    environment-pacing protocol — e.g. the observational pacing of
    :func:`repro.equiv.desync_streams` — works unchanged: pacing
    decisions read capture *counts*, which are schedule facts and
    therefore identical on every lane.  ``set_input`` takes packed
    ``(value, known)`` lane words (scalars broadcast); lane 0 drives the
    recording simulation immediately, the full words are logged for the
    replay.  After the caller's protocol completes, :meth:`replay`
    executes phases 2-3 and the per-lane observations become available.

    Args:
        netlist: the de-synchronized netlist (must pass
            :func:`check_schedule_replayable`, else ``SimulationError``).
        lanes: stimulus lane count (lane 0 is the recorded lane);
            ``None`` asks :func:`repro.sim.lanes.resolve_lanes`.
        scalar_backend: event backend carrying the recording run;
            ``None`` means :data:`repro.sim.backends.DEFAULT_BACKEND`.
        initial_inputs: input-port words present during reset (packed
            pairs or broadcast scalars), the lane-parallel counterpart
            of the event engines' ``initial_inputs``.
    """

    def __init__(self, netlist: Netlist, lanes: int | None = None,
                 scalar_backend: str | None = None,
                 initial_inputs: dict[str, Lanes | Value] | None = None):
        from repro.sim.backends import DEFAULT_BACKEND, make_simulator
        lanes = resolve_lanes(netlist, lanes)
        reason = check_schedule_replayable(netlist)
        if reason is not None:
            raise SimulationError(
                f"{netlist.name} is not schedule-replayable: {reason}")
        self.netlist = netlist
        self.lanes = lanes
        self.mask = (1 << lanes) - 1
        self.scalar_backend = scalar_backend or DEFAULT_BACKEND
        self._names = list(netlist.nets)
        self._slot_of = {name: i for i, name in enumerate(self._names)}
        self.V: list[int] = [0] * len(self._names)
        self.K: list[int] = [0] * len(self._names)
        self._initial: dict[int, Lanes] = {}
        for port, packed in (initial_inputs or {}).items():
            self._initial[self._slot_of[port]] = self._pack(port, packed)

        latches = netlist.latch_instances()
        self._latch_inst = {latch.name: latch for latch in latches}
        self._halves: dict[HalfKey, _Half] = {}
        half_of_latch: dict[str, HalfKey] = {}
        for latch in latches:
            level = 1 if latch.cell.kind is CellKind.LATCH_HIGH else 0
            key: HalfKey = (latch.clock_net().name, level)
            half = self._halves.get(key)
            if half is None:
                half = self._halves[key] = _Half(key)
            half.latches.append(_LatchSlots(
                name=latch.name,
                d_slot=self._slot_of[latch.data_net().name],
                out_slot=self._slot_of[latch.output_net().name]))
            half_of_latch[latch.name] = key
        for half in self._halves.values():
            cone: set[str] = set()
            stack = [self._latch_inst[slots.name].data_net()
                     for slots in half.latches]
            while stack:
                net = stack.pop()
                driver = net.driver_instance()
                if driver is None:
                    continue
                if driver.is_sequential:
                    dep = half_of_latch[driver.name]
                    if dep != half.key:
                        half.deps.add(dep)
                    continue
                if driver.name in cone:
                    continue
                cone.add(driver.name)
                stack.extend(driver.input_nets())
            half.cone = sorted(cone)
        self._plan_cache: dict[frozenset, list] = {}
        self._segment_cache: dict[HalfKey, object] = {}

        #: Packed capture streams (phase 3): latch name -> word pairs,
        #: with :attr:`capture_times` carrying the recorded instants.
        self.packed_captures: dict[str, list[Lanes]] = {
            latch.name: [] for latch in latches}
        self.capture_times: dict[str, list[float]] = {
            latch.name: [] for latch in latches}
        self._drives: list[tuple[float, int, int, int]] = []
        self._replayed = False

        scalar_initial = {
            self._names[slot]: self._lane0(words)
            for slot, words in self._initial.items()}
        self._recorder = make_simulator(
            netlist, self.scalar_backend,
            record=sorted({net for net, _level in self._halves}),
            initial_inputs=scalar_initial)

    # -- packing helpers -----------------------------------------------
    def _pack(self, port: str, packed: Lanes | Value) -> Lanes:
        if isinstance(packed, tuple):
            value, known = packed
            if known >> self.lanes or value & ~known:
                raise SimulationError(
                    f"packed word for {port} spills outside {self.lanes} "
                    "lanes or has value bits in unknown lanes")
            return value, known
        if packed is None:
            return 0, 0
        return (self.mask if packed else 0), self.mask

    @staticmethod
    def _lane0(words: Lanes) -> Value:
        value, known = words
        return (value & 1) if (known & 1) else None

    # -- recording surface (phase 1) -----------------------------------
    @property
    def now(self) -> float:
        return self._recorder.now

    @property
    def n_events(self) -> int:
        """Event count of the lane-0 recording run (exact)."""
        return self._recorder.n_events

    @property
    def captures(self) -> dict[str, list[Capture]]:
        """Lane-0 capture streams, straight from the recording engine.

        Before :meth:`replay` these pace the caller's protocol; after,
        they remain the exact (event-for-event) lane-0 observation.
        """
        return self._recorder.captures

    @property
    def toggle_counts(self) -> dict[str, int]:
        """Lane-0 per-net toggle counts (exact, glitches included)."""
        return self._recorder.toggle_counts

    def run(self, until: float):
        """Advance the recording simulation (lane 0) to ``until``."""
        return self._recorder.run(until)

    def peek_time(self) -> float | None:
        """Next pending event time of the recording simulation."""
        return self._recorder.peek_time()

    def set_input(self, port: str, value: Lanes | Value,
                  time: float | None = None) -> None:
        """Drive ``port`` on every lane with packed ``(value, known)``
        words (scalars broadcast); lane 0 drives the recording run at
        its current time, the words are logged for the replay."""
        if time is not None and time != self._recorder.now:
            raise SimulationError(
                "schedule recording only supports driving inputs at the "
                "current time")
        words = self._pack(port, value)
        self._recorder.set_input(port, self._lane0(words))
        self._drives.append((self._recorder.now, self._slot_of[port],
                             words[0], words[1]))

    # -- replay (phases 2-3) -------------------------------------------
    def _segment_fn(self, key: HalfKey):
        fn = self._segment_cache.get(key)
        if fn is None:
            half = self._halves[key]
            fn, _source = compile_pass_cached(
                self.netlist, ("replay_seg", key), self.lanes,
                self._slot_of,
                lambda: _segment_order(self.netlist, half,
                                       [self._latch_inst[slots.name]
                                        for slots in half.latches]))
            self._segment_cache[key] = fn
        return fn

    def _plan_for(self, config: frozenset) -> list:
        """Segment functions of the transparent halves, settle-ordered.

        A half reading another transparent half's latch outputs settles
        after it; opaque halves are stable sources and impose no order.
        Acyclic for any reachable configuration — masters and slaves of
        one bank are never transparent together, so every register on a
        data cycle breaks it.
        """
        plan = self._plan_cache.get(config)
        if plan is not None:
            return plan
        indegree = {key: 0 for key in config}
        dependents: dict[HalfKey, list[HalfKey]] = {
            key: [] for key in config}
        for key in config:
            for dep in self._halves[key].deps:
                if dep in config:
                    indegree[key] += 1
                    dependents[dep].append(key)
        ready = sorted(key for key, degree in indegree.items()
                       if degree == 0)
        order: list[HalfKey] = []
        queue = list(reversed(ready))
        while queue:
            key = queue.pop()
            order.append(key)
            for dep in sorted(dependents[key]):
                indegree[dep] -= 1
                if indegree[dep] == 0:
                    queue.append(dep)
        if len(order) != len(config):
            raise SimulationError(
                f"{self.netlist.name}: simultaneously transparent latch "
                "halves form a combinational loop — the configuration "
                "is not settleable")
        plan = [self._segment_fn(key) for key in order]
        self._plan_cache[config] = plan
        return plan

    def _enable_timeline(self) -> tuple[dict[str, int], list]:
        """Initial enable levels + time-ordered enable/drive steps."""
        history = self._recorder.history
        initial: dict[str, int] = {}
        steps: list[tuple[float, int, object]] = []
        for net in {net for net, _level in self._halves}:
            changes = history.get(net, [])
            if not changes or changes[0][0] != 0.0 \
                    or changes[0][1] is None:
                raise SimulationError(
                    f"latch enable {net} was undetermined at reset: the "
                    "schedule cannot be replayed")
            initial[net] = changes[0][1]
            for time, value in changes[1:]:
                if value is None:
                    raise SimulationError(
                        f"latch enable {net} became X at t={time}")
                steps.append((time, 0, (net, value)))
        # Input drives order after the simulation events of the same
        # instant: the recording protocol drives after run(now), i.e.
        # after every event at `now` has been processed.
        for time, slot, value, known in self._drives:
            steps.append((time, 1, (slot, value, known)))
        steps.sort(key=lambda step: (step[0], step[1]))
        return initial, steps

    def replay(self) -> None:
        """Re-execute the recorded schedule across all lanes (phase 3).

        Raises :class:`SimulationError` if lane 0 of the replay does not
        reproduce the recording engine's captures exactly (values and
        times) — the runtime check that the settlement semantics held on
        this run; callers fall back to scalar simulation on it.
        """
        if self._replayed:
            raise SimulationError("schedule already replayed")
        self._replayed = True
        with _TRACER.span("sim:replay", netlist=self.netlist.name,
                          lanes=self.lanes) as span:
            self._replay_inner(span)

    def _replay_inner(self, span) -> None:
        settles = 0
        segments = 0
        V, K, mask = self.V, self.K, self.mask
        for latch in self._latch_inst.values():
            out = self._slot_of[latch.output_net().name]
            V[out] = mask if latch.init else 0
            K[out] = mask
        for slot, (value, known) in self._initial.items():
            V[slot] = value
            K[slot] = known
        initial_levels, steps = self._enable_timeline()
        transparent = frozenset(
            key for key in self._halves
            if initial_levels[key[0]] == key[1])
        dirty = True
        index = 0
        times = self.capture_times
        words = self.packed_captures
        while index < len(steps):
            time, priority, payload = steps[index]
            if priority == 1:  # input drive
                slot, value, known = payload
                V[slot] = value
                K[slot] = known
                dirty = True
                index += 1
                continue
            # Gather every enable change of this instant: captures read
            # the settled state of the *preceding* window, and openings
            # only become visible one cell delay later — i.e. to the
            # next settle, never to a same-instant capture.
            group: list[tuple[str, int]] = []
            while index < len(steps) and steps[index][0] == time \
                    and steps[index][1] == 0:
                group.append(steps[index][2])
                index += 1
            if dirty:
                plan = self._plan_for(transparent)
                for fn in plan:
                    fn(V, K)
                settles += 1
                segments += len(plan)
                dirty = False
            opened: list[HalfKey] = []
            closed: list[HalfKey] = []
            for net, level in group:
                opened.append((net, level))
                closing: HalfKey = (net, 1 - level)
                closed.append(closing)
                for slots in self._halves.get(closing,
                                              _Half(closing)).latches:
                    captured = (V[slots.d_slot], K[slots.d_slot])
                    words[slots.name].append(captured)
                    times[slots.name].append(time)
                    V[slots.out_slot], K[slots.out_slot] = captured
            changed = [key for key in opened + closed
                       if key in self._halves]
            if changed:
                transparent = transparent.union(
                    key for key in opened
                    if key in self._halves).difference(closed)
                dirty = True
        span.count("replay.settles", settles)
        span.count("replay.segments_executed", segments)
        self._self_check()
        span.set(self_check="ok")

    def _self_check(self) -> None:
        """Assert replay lane 0 == the recording engine, capture-for-
        capture (count, time and value per latch)."""
        recorded = self._recorder.captures
        for name in self._latch_inst:
            reference = recorded.get(name, [])
            mine_times = self.capture_times[name]
            mine = self.packed_captures[name]
            if len(reference) != len(mine):
                raise SimulationError(
                    f"schedule replay diverged from the {self.scalar_backend} "
                    f"engine on lane 0: latch {name} captured "
                    f"{len(mine)} times, reference {len(reference)}")
            for k, capture in enumerate(reference):
                value, known = mine[k]
                lane0 = (value & 1) if (known & 1) else None
                if capture.value != lane0 or capture.time != mine_times[k]:
                    raise SimulationError(
                        f"schedule replay diverged from the "
                        f"{self.scalar_backend} engine on lane 0: latch "
                        f"{name} capture {k} is "
                        f"{lane0}@{mine_times[k]}, reference "
                        f"{capture.value}@{capture.time}")

    # -- per-lane observation ------------------------------------------
    def _check_lane(self, lane: int) -> None:
        if not self._replayed:
            raise SimulationError("call replay() before reading lanes")
        if not 0 <= lane < self.lanes:
            raise SimulationError(
                f"lane {lane} out of range (simulator has {self.lanes})")

    def lane_captures(self, lane: int) -> dict[str, list[Capture]]:
        """One lane's capture streams as :class:`Capture` objects."""
        self._check_lane(lane)
        return {
            name: [Capture(time, (value >> lane) & 1
                           if (known >> lane) & 1 else None)
                   for time, (value, known) in zip(self.capture_times[name],
                                                   stream)]
            for name, stream in self.packed_captures.items()}

    def lane_capture_values(self, lane: int) -> dict[str, list[Value]]:
        """One lane's capture streams as plain values."""
        self._check_lane(lane)
        return {
            name: [(value >> lane) & 1 if (known >> lane) & 1 else None
                   for value, known in stream]
            for name, stream in self.packed_captures.items()}
