"""Flow-equivalence checking between synchronous and de-synchronized circuits.

Flow equivalence [Guernic et al., ref 2 of the paper] is the correctness
criterion of de-synchronization: *every register stores the same sequence
of values in both circuits* (time is abstracted away; only the order of
stored values per register matters).  Reference [1] proves the property
for the model; here we check it observationally, which is the testable
content of the theorem:

* the synchronous reference streams come from the cycle-accurate
  simulator (one capture per flip-flop per cycle);
* the de-synchronized streams come from the event-driven simulator
  running the controller fabric, recording what each master latch
  captures at each of its closing edges.

The k-th master-latch capture corresponds to the k-th flip-flop capture
(both are "the value the register stores at the end of cycle k"), so the
comparison is a plain per-register prefix check.

:func:`check_flow_equivalence_batch` checks N seeded stimuli as one
lane word: stimulus *i* rides lane *i* of one N-lane vector pass on the
synchronous side and of one recorded-and-replayed schedule on the
de-synchronized side.
"""

from __future__ import annotations

from collections.abc import Iterable
from itertools import repeat

from dataclasses import dataclass, field

from repro.desync.flow import DesyncResult
from repro.desync.latchify import master_name
from repro.netlist.core import Netlist
from repro.obs.metrics import METRICS
from repro.obs.trace import TRACER
from repro.sim.backends import DEFAULT_BACKEND, make_simulator, \
    reused_simulator
from repro.sim.logic import Value
from repro.sim.sync import CycleSimulator
from repro.sim.vector import VectorCycleSimulator, lane_count, pack_stimuli
from repro.sim.vector_async import (
    ScheduleReplaySimulator,
    check_schedule_replayable,
    control_cone,
)
from repro.utils.errors import FlowEquivalenceError, SimulationError
from repro.utils.naming import clock_net_name

@dataclass
class Divergence:
    """First mismatch found for one register."""

    register: str
    cycle: int
    sync_value: Value
    desync_value: Value


@dataclass
class FlowEquivalenceReport:
    """Outcome of a flow-equivalence check.

    ``desync_engine`` records which engine produced the de-synchronized
    streams (``"scalar"`` for a per-stimulus event run, ``"replay"`` for
    the lane-parallel schedule-replay engine); ``fallback_reason`` is
    set when a batch check ran a seed on scalar simulation instead of
    replay — fallbacks are reported, never silent.
    """

    equivalent: bool
    cycles_compared: int
    registers: int
    divergences: list[Divergence] = field(default_factory=list)
    desync_engine: str = "scalar"
    fallback_reason: str | None = None

    def assert_ok(self) -> None:
        if not self.equivalent:
            first = self.divergences[0]
            raise FlowEquivalenceError(
                f"flow equivalence violated at register {first.register}, "
                f"cycle {first.cycle}: sync={first.sync_value} "
                f"desync={first.desync_value} "
                f"({len(self.divergences)} diverging registers)")


def reference_streams(netlist: Netlist, cycles: int,
                      inputs: dict[str, Value] | None = None,
                      inputs_per_cycle: list[dict[str, Value]] | None = None,
                      ) -> dict[str, list[Value]]:
    """Per-flip-flop capture streams from the synchronous reference.

    Memoized on ``netlist`` per (cycles, inputs, stimulus): every delay
    and fault cell of a campaign config checks against the same
    reference.  Each call gets lists of its own.
    """
    key = ("reference-streams", cycles, _frozen(inputs),
           tuple(_frozen(vector) for vector in inputs_per_cycle or ()))
    streams = netlist.memo(key, lambda: _simulate_reference(
        netlist, cycles, inputs, inputs_per_cycle))
    return {name: list(values) for name, values in streams}


def _frozen(vector: dict[str, Value] | None) -> tuple:
    return tuple(sorted((vector or {}).items()))


def _simulate_reference(netlist, cycles, inputs, inputs_per_cycle,
                        ) -> tuple[tuple[str, tuple[Value, ...]], ...]:
    sim = CycleSimulator(netlist, record_toggles=False)
    if inputs:
        sim.set_inputs(inputs)
    sim.run(cycles, inputs_per_cycle)
    return tuple((name, tuple(values))
                 for name, values in sim.captures.items())


def reference_streams_batch(netlist: Netlist, cycles: int,
                            stimuli: list[list[dict[str, Value]]],
                            ) -> list[dict[str, list[Value]]]:
    """Per-flip-flop reference streams for N stimuli, in one pass.

    Runs the lane-parallel :class:`~repro.sim.vector.VectorCycleSimulator`
    at width N — stimulus *i* rides lane *i* — and demuxes one scalar
    stream dict per stimulus, in input order.  Lane demux equals an
    independent :func:`reference_streams` call per stimulus (the
    differential harness asserts this); the per-stimulus cost is what
    drops.
    """
    if not stimuli:
        return []
    with TRACER.span("equiv:reference-block", netlist=netlist.name,
                     lanes=len(stimuli)):
        sim = VectorCycleSimulator(netlist, len(stimuli))
        sim.run(cycles, pack_stimuli(stimuli))
        return [sim.lane_captures(lane) for lane in range(len(stimuli))]


def _reference_batch(netlist: Netlist, seeds: list[int], cycles: int,
                     ) -> tuple[list[list[dict[str, Value]]],
                                list[dict[str, list[Value]]]]:
    """The seeded stimuli of a batch check and their
    :func:`reference_streams_batch`, memoized on ``netlist`` per
    ``(seeds, cycles)``: every fabric checked against one synchronous
    netlist shares them, so callers must only read them."""
    from repro.testing.stimulus import random_stimulus

    def compute():
        stimuli = [random_stimulus(netlist, cycles, seed) for seed in seeds]
        return stimuli, reference_streams_batch(netlist, cycles, stimuli)

    return netlist.memo(("reference-batch", tuple(seeds), cycles), compute)


def _input_fed_masters(netlist: Netlist,
                       masters: dict[str, str]) -> tuple[str, ...]:
    """Master latches whose data cone reaches a primary data input, sorted.

    These are the registers whose captures pace the environment when the
    stimulus varies per cycle: a new input vector may be presented only
    once every one of them has consumed the previous vector.  Memoized
    on ``netlist`` per master set.
    """
    return netlist.memo(("input-fed-masters", frozenset(masters)),
                        lambda: _walk_input_fed(netlist, masters))


def _walk_input_fed(netlist: Netlist, masters) -> tuple[str, ...]:
    fed: list[str] = []
    for master in masters:
        inst = netlist.instances.get(master)
        if inst is None:
            continue
        seen: set[str] = set()
        stack = [inst.data_net()]
        while stack:
            net = stack.pop()
            if net.name in seen:
                continue
            seen.add(net.name)
            if net.is_input_port and net.name != netlist.clock:
                fed.append(master)
                break
            driver = net.driver_instance()
            if driver is not None and driver.is_combinational:
                stack.extend(driver.input_nets())
    return tuple(sorted(fed))


def _masters(result: DesyncResult) -> dict[str, str]:
    """Master-latch name -> original flip-flop name."""
    return {master_name(inst.name): inst.name
            for inst in result.sync_netlist.dff_instances()}


def _paced_run(sim, result: DesyncResult, cycles: int,
               inputs_per_cycle, masters: dict[str, str],
               delay_model=None) -> None:
    """Drive the fabric simulation ``sim`` under observational pacing.

    This is the environment protocol shared by the scalar and the
    lane-parallel desync engines (``sim`` is any object with the event-
    simulation surface: ``run``/``set_input``/``captures``): vector 0 is
    present during reset, vector k is driven as soon as every input-fed
    master has completed its k-th capture, and the run ends when every
    master has captured ``cycles`` values — or raises when the horizon
    passes first (a stalled handshake is a real failure).  Pacing reads
    capture *counts* only, which are facts of the firing schedule, so
    the protocol is identical for every stimulus lane.

    Polls fall on a fixed grid (``now += chunk`` up to the horizon), but
    a poll that would process no event is skipped: until the next
    pending event (``sim.peek_time()``) matures, the captures cannot
    change, so neither can the pacing decisions.  A wedged fabric then
    costs one ``run`` call instead of one per grid point up to the
    horizon, with the same events, captures, final ``sim.now`` and
    stall error as polling every grid point.

    A *live* stall — some masters stop short while the rest of the
    fabric keeps firing — ends as soon as it is provably final.  The
    watch runs when the engine offers ``control_state`` (the compiled
    engine) and the fabric passes
    :func:`~repro.sim.vector_async.check_schedule_replayable`: the
    latch-enable fanin cone (:func:`~repro.sim.vector_async.control_cone`)
    then reads no data and no input port, so it is a closed,
    deterministic system, and the engine's key of its state (values,
    stored state, pending events relative to the earliest, forces)
    fixes its whole future.  When two polls see equal keys at anchors
    T < T' and no master still short of ``cycles`` captured between
    them, the enable waveforms are periodic from T with period T' - T,
    and every short master, having skipped one period, never captures
    again: the shortfall at the horizon is the current one, so the loop
    raises the horizon's stall error at once, word for word.  The keys
    are dropped whenever a short master captures.  Keys are exact only
    on a grid of whole-ps event times, which the engine checks; with
    fractional delays, a pending fault action or no pending control
    event it offers no key and the run goes on to the horizon.
    :class:`~repro.sim.simulator.EventSimulator` has no such key and
    stays the oracle that always runs to the horizon.
    """
    with TRACER.span("sim:paced-run",
                     engine=type(sim).__name__, cycles=cycles) as span:
        horizon, periodic = _paced_run_inner(
            sim, result, cycles, inputs_per_cycle, masters, delay_model)
        span.count("sim.events_popped", getattr(sim, "n_events", 0))
        captures = sim.captures
        shortfall = {m for m in masters
                     if len(captures.get(m, [])) < cycles}
        if not shortfall:
            return
        if periodic is None:
            span.set(stall="horizon")
        else:
            span.set(stall="periodic", period_ps=periodic[0],
                     stopped_ps=periodic[1])
            METRICS.counter("equiv.stall.periodic").inc()
        raise FlowEquivalenceError(
            f"de-synchronized circuit stalled: {sorted(shortfall)[:5]} "
            f"captured fewer than {cycles} values within {horizon:.0f} ps")


def free_run(result: DesyncResult, rounds: int,
             record: list[str] | None = None):
    """Run ``result``'s fabric without stimulus until every master latch
    has ``rounds`` captures (:func:`_paced_run`, raising its stall error),
    recording ``record`` (``None``: every net); returns the engine."""
    sim = make_simulator(result.desync_netlist, DEFAULT_BACKEND,
                         record=record, record_all=record is None)
    _paced_run(sim, result, rounds, None, _masters(result))
    return sim


def enable_rises(result: DesyncResult, rounds: int,
                 sim=None) -> dict[str, tuple[float, ...]]:
    """The first ``rounds`` rise times of every cluster's local clock
    ``lt:<bank>`` (a high level at reset counts as a rise at 0) in the
    finished paced run ``sim``, else in a :func:`free_run`; memoized on
    the fabric per ``rounds``.  Masters close on their bank's rises, so
    every bank has ``rounds``.  :func:`desync_streams_batch` passes its
    replay recordings: the replay proof keeps data and inputs out of the
    enable cone, so lane 0's enable edges are any stimulus's, or none's.
    """
    netlist = result.desync_netlist
    banks = sorted(result.clustering.clusters)

    def first_rises():
        run = sim if sim is not None else free_run(
            result, rounds, [clock_net_name(bank) for bank in banks])
        return {bank: tuple([t for t, value
                             in run.history.get(clock_net_name(bank), ())
                             if value == 1][:rounds])
                for bank in banks}

    return netlist.memo(("enable-rises", rounds), first_rises)


def _stall_watch(sim, result: DesyncResult):
    """The control cone to watch on ``sim``, or None when the periodic
    stall rule does not apply (see :func:`_paced_run`).  The verdict is
    memoized per fabric, so the replay proof runs, and is traced, once.
    """
    if getattr(sim, "control_state", None) is None:
        return None
    netlist = result.desync_netlist
    return netlist.memo("stall_watch", lambda: (
        control_cone(netlist) if check_schedule_replayable(netlist) is None
        else None))


def _paced_run_inner(sim, result, cycles, inputs_per_cycle, masters,
                     delay_model=None):
    """The paced loop; returns the horizon and, for a stall proved
    periodic, ``(period, stop time)``."""
    period = result.desync_cycle_time().cycle_time
    # The pacing horizon and polling granularity derive from the
    # *nominal* cycle time; a delay model dilates real time without
    # touching that model, so stretch the stall horizon by its upper
    # bound and refine the polling chunk by its lower bound — otherwise
    # slowed fabrics are misreported as stalled and sped-up ones are
    # fed their vectors a local cycle late.
    stretch, shrink = 1.0, 1.0
    if delay_model is not None and not delay_model.is_identity:
        stretch = max(1.0, delay_model.max_factor())
        shrink = min(1.0, max(delay_model.min_factor(), 1e-3))
    horizon = max(1.0, period) * (cycles + 8) * 2 * stretch
    feeds: tuple[str, ...] = ()
    # Registers-only circuits produce all-empty vectors; there is then
    # nothing to pace and the cheap polling granularity suffices.
    if inputs_per_cycle and any(vector for vector in inputs_per_cycle[1:]):
        feeds = _input_fed_masters(result.desync_netlist, masters) \
            or tuple(sorted(masters))
        # Poll at gate-delay granularity: an input-fed bank free-runs at
        # its *local* cycle (often far shorter than the fabric's
        # steady-state period while the pipeline slack fills), and each
        # vector must be driven within a fraction of that local cycle
        # after the capture that frees it.
        max_cell_delay = max(
            cell.delay
            for cell in result.desync_netlist.library.cells.values())
        chunk = max(1.0, min(period / 8.0, max_cell_delay) * shrink)
    else:
        chunk = max(1.0, period) * 2
    cone = _stall_watch(sim, result)
    short = list(masters)  # masters short of ``cycles`` at the last count
    counts: list[int] = []  # their capture counts then
    seen: dict = {}        # control-state key -> anchor since then
    next_vector = 1
    now = 0.0
    while now < horizon:
        now = min(horizon, now + chunk)
        sim.run(now)
        captures = sim.captures
        fed = False
        if feeds and next_vector < min(cycles, len(inputs_per_cycle)):
            if all(len(captures.get(m, [])) >= next_vector for m in feeds):
                for port, value in inputs_per_cycle[next_vector].items():
                    sim.set_input(port, value)
                next_vector += 1
                fed = True
        if all(len(captures.get(m, [])) >= cycles for m in masters):
            break
        if cone is not None:
            now_counts = list(map(len, map(captures.get, short, repeat(()))))
            if now_counts != counts:  # a short master captured
                if max(now_counts) >= cycles:
                    short = [m for m, n in zip(short, now_counts)
                             if n < cycles]
                    now_counts = [n for n in now_counts if n < cycles]
                counts = now_counts
                seen.clear()
            else:
                state = sim.control_state(cone)
                if state is not None:
                    key, anchor = state
                    first = seen.setdefault(key, anchor)
                    if first != anchor:
                        return horizon, (anchor - first, now)
        if fed:
            continue  # the next vector may be due at the next poll
        # Grid points before the next pending event would poll an idle
        # fabric and re-read these captures: step over them.
        pending = sim.peek_time()
        skipped = False
        while now < horizon:
            step = min(horizon, now + chunk)
            if pending is not None and step >= pending:
                break
            now, skipped = step, True
        if skipped and now >= horizon:
            sim.run(now)  # end at the horizon, as the last poll would
    return horizon, None


def desync_streams(result: DesyncResult, cycles: int,
                   inputs: dict[str, Value] | None = None,
                   inputs_per_cycle: list[dict[str, Value]] | None = None,
                   backend: str = DEFAULT_BACKEND,
                   delay_model=None,
                   arm=None,
                   ) -> dict[str, list[Value]]:
    """Per-register capture streams from the de-synchronized circuit.

    ``result`` is the :class:`~repro.desync.flow.DesyncResult` of any
    pass sequence that materialized a controller network — including
    partial-desync hybrids, whose sync island is just another local
    clock domain to the fabric simulation.

    Runs the event-driven simulator (the engine named by ``backend``) on
    the controller fabric until every master latch has captured
    ``cycles`` values, or raises when the pacing horizon of
    :func:`_paced_run` passes first (a stalled handshake is a real
    failure).  Streams are keyed by the *original flip-flop name*.

    ``inputs_per_cycle`` supplies a varying stimulus with the same
    alignment as :func:`reference_streams`: vector k is the environment
    of cycle k, i.e. the value the input-fed registers store at their
    k-th capture.  The de-synchronized circuit has no global clock, so
    the environment is paced observationally — vector 0 is present
    during reset, and vector k is driven as soon as every input-fed
    master has completed its k-th capture (self-timed input stages run
    ahead of deeper ones, which is why only the input-fed registers
    gate the stepping).  This models the paper's environment assumption
    that new data arrives early in each local cycle.

    ``delay_model`` perturbs the fabric's per-instance delays (the
    pacing horizon and granularity scale with its bounds); ``arm`` is a
    fault-injection hook called with the simulator before the run —
    e.g. to schedule a stuck-at force or a glitch.

    The simulator comes from :func:`~repro.sim.backends.reused_simulator`:
    a call with the same engine, delay model and initial inputs as the
    previous one on this fabric resets that call's engine instead of
    compiling a new one, so the fault cells of a campaign config, which
    all check one fabric under one stimulus, share one engine.  A reset
    engine runs event for event like a fresh one.  The engine handed to
    ``arm`` belongs to this call only: a later check may reset it.
    """
    initial = dict(inputs or {})
    if inputs_per_cycle:
        initial.update(inputs_per_cycle[0])
    masters = _masters(result)
    with reused_simulator(result.desync_netlist, backend,
                          initial_inputs=initial,
                          delay_model=delay_model) as sim:
        if arm is not None:
            arm(sim)
        _paced_run(sim, result, cycles, inputs_per_cycle, masters,
                   delay_model=delay_model)
        captures = sim.captures
        return {
            masters[m]: [capture.value for capture in captures[m][:cycles]]
            for m in masters
        }


def replay_simulator(result: DesyncResult,
                     stimuli: list[list[dict[str, Value]]],
                     cycles: int,
                     backend: str = DEFAULT_BACKEND,
                     ) -> ScheduleReplaySimulator:
    """Run one lane-parallel schedule-replay pass over ``stimuli``.

    Packs the N scalar stimuli into N lanes (stimulus *i* rides lane
    *i*), records the firing schedule from lane 0 on the scalar engine
    named ``backend`` under the same observational pacing as
    :func:`desync_streams`, and replays it across all lanes.  Returns
    the replayed simulator — lane captures (with times) via
    :meth:`~repro.sim.vector_async.ScheduleReplaySimulator.lane_captures`,
    exact lane-0 observations via its recorder surface.  Raises
    :class:`SimulationError` when the netlist fails the
    data-independence proof or the lane-0 replay check.
    """
    packed = pack_stimuli(stimuli)
    sim = ScheduleReplaySimulator(
        result.desync_netlist, len(stimuli), scalar_backend=backend,
        initial_inputs=packed[0] if packed else None)
    _paced_run(sim, result, cycles, packed, _masters(result))
    sim.replay()
    return sim


def desync_streams_batch(result: DesyncResult, cycles: int,
                         stimuli: list[list[dict[str, Value]]],
                         backend: str = DEFAULT_BACKEND,
                         ) -> tuple[list[dict[str, list[Value]]],
                                    tuple[str, str | None]]:
    """De-synchronized capture streams for N stimuli, batched.

    The desync-side counterpart of :func:`reference_streams_batch`: the
    batch costs one scalar recording run on the event engine named
    ``backend`` plus one N-lane replay instead of N event simulations.
    When the netlist fails the data-independence proof — or the lane-0
    replay check fails — the batch falls back to per-stimulus scalar
    simulation and the reason is recorded.

    Returns ``(streams, engine)``: per stimulus, the streams keyed by
    original flip-flop name, and for the batch one ``(engine,
    fallback_reason)`` pair (``("replay", None)`` or ``("scalar",
    reason)``).  Every fallback counts on the ``sim.replay.fallbacks``
    counter.  An empty batch raises :class:`SimulationError`, like a
    zero-lane engine.
    """
    lane_count(len(stimuli))
    masters = _masters(result)
    reason = check_schedule_replayable(result.desync_netlist)
    if reason is None:
        try:
            with TRACER.span("equiv:desync-block", engine="replay",
                             lanes=len(stimuli)):
                sim = replay_simulator(result, stimuli, cycles,
                                       backend=backend)
        except SimulationError as exc:
            # The lane-0 replay check failed: the settlement semantics
            # did not hold on this run (e.g. data in flight at a capture
            # under a violated hold assumption).  Fall back, loudly.
            reason = str(exc)
        else:
            enable_rises(result, cycles, sim)
            streams = []
            for lane in range(len(stimuli)):
                values = sim.lane_capture_values(lane)
                streams.append({
                    masters[m]: values[m][:cycles] for m in masters})
            return streams, ("replay", None)
    with TRACER.span("equiv:desync-block", engine="scalar",
                     lanes=len(stimuli), fallback_reason=reason):
        streams = [desync_streams(result, cycles, inputs_per_cycle=stimulus,
                                  backend=backend)
                   for stimulus in stimuli]
    METRICS.counter("sim.replay.fallbacks").inc()
    return streams, ("scalar", reason)


def check_flow_equivalence(result: DesyncResult,
                           cycles: int = 20,
                           inputs: dict[str, Value] | None = None,
                           inputs_per_cycle: list[dict[str, Value]] | None = None,
                           backend: str = DEFAULT_BACKEND,
                           delay_model=None,
                           arm=None,
                           ) -> FlowEquivalenceReport:
    """Compare the two circuits over ``cycles`` register captures.

    ``inputs`` drives the primary data inputs with constant values in
    both simulations (the circuits' dynamics then come from their state
    evolution, which is what flow equivalence constrains);
    ``inputs_per_cycle`` overlays a varying stimulus, vector k landing
    in cycle k on both sides.  ``backend`` selects the event-driven
    engine that runs the de-synchronized fabric.

    ``delay_model`` and ``arm`` perturb the *de-synchronized* side only
    (the synchronous reference defines what the streams must be): the
    former rescales per-instance delays, the latter injects faults into
    the constructed fabric simulator before the run.  An injected fault
    is **detected** when this check reports non-equivalence, localizing
    it to register and cycle, or when the fabric stalls
    (:class:`FlowEquivalenceError`) — a silent pass means the fault was
    masked.
    """
    if inputs_per_cycle is not None and len(inputs_per_cycle) < cycles:
        raise FlowEquivalenceError(
            f"inputs_per_cycle has {len(inputs_per_cycle)} vectors but "
            f"{cycles} cycles are compared")
    with TRACER.span("equiv:check", netlist=result.sync_netlist.name,
                     cycles=cycles, desync_engine="scalar") as span:
        sync = reference_streams(result.sync_netlist, cycles, inputs=inputs,
                                 inputs_per_cycle=inputs_per_cycle)
        desync = desync_streams(result, cycles, inputs=inputs,
                                inputs_per_cycle=inputs_per_cycle,
                                backend=backend, delay_model=delay_model,
                                arm=arm)
        report = compare_streams(sync, desync, cycles)
        span.set(equivalent=report.equivalent)
    return report


def compare_streams(sync: dict[str, list[Value]],
                    desync: dict[str, list[Value]],
                    cycles: int) -> FlowEquivalenceReport:
    """Per-register prefix comparison of two capture-stream sets."""
    divergences: list[Divergence] = []
    for register, sync_stream in sorted(sync.items()):
        desync_stream = desync.get(register)
        if desync_stream is None:
            divergences.append(Divergence(register, 0, sync_stream[0], None))
            continue
        for k, (expected, actual) in enumerate(zip(sync_stream,
                                                   desync_stream)):
            if expected != actual:
                divergences.append(Divergence(register, k, expected, actual))
                break
    return FlowEquivalenceReport(
        equivalent=not divergences,
        cycles_compared=cycles,
        registers=len(sync),
        divergences=divergences,
    )


def check_flow_equivalence_batch(result: DesyncResult,
                                 seeds: Iterable[int],
                                 cycles: int = 20,
                                 backend: str = DEFAULT_BACKEND,
                                 ) -> dict[int, FlowEquivalenceReport]:
    """Flow-equivalence sweep over N seeded random stimuli, batched on
    **both** sides.

    One seeded stimulus per entry of ``seeds`` (see
    :func:`repro.testing.stimulus.random_stimulus`), and one lane per
    stimulus: the batch is one lane word of width N.  The synchronous
    reference side runs in one vector pass
    (:func:`reference_streams_batch`); the de-synchronized side runs on
    the schedule-replay engine (:func:`desync_streams_batch`) — one
    scalar recording plus one lane-parallel replay — falling back to
    per-seed event simulation, with the reason recorded on the reports,
    when the fabric fails the data-independence proof.  ``backend``
    names the event engine that records the schedule and runs any
    scalar seed.  The check runs at nominal delays; a delay model
    perturbs the scalar :func:`check_flow_equivalence`.  Returns a
    report per seed, in ``seeds`` order.
    """
    seeds = list(seeds)
    if len(set(seeds)) != len(seeds):
        raise FlowEquivalenceError(
            "duplicate seeds in batch sweep (reports are keyed by seed)")
    if not seeds:
        return {}
    with TRACER.span("equiv:batch", netlist=result.sync_netlist.name,
                     seeds=len(seeds), cycles=cycles,
                     lanes=len(seeds)) as span:
        stimuli, sync_streams = _reference_batch(result.sync_netlist,
                                                 seeds, cycles)
        desync_list, (engine, reason) = desync_streams_batch(
            result, cycles, stimuli, backend=backend)
        reports: dict[int, FlowEquivalenceReport] = {}
        for seed, sync, desync in zip(seeds, sync_streams, desync_list):
            report = compare_streams(sync, desync, cycles)
            report.desync_engine = engine
            report.fallback_reason = reason
            reports[seed] = report
        span.set(equivalent=all(r.equivalent for r in reports.values()))
    return reports
