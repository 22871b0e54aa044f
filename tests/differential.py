"""Cross-backend differential testing: the suite's harness.

Three independent execution models can run the same synchronous
netlist: the interpreter event simulator, the compiled event simulator
(:mod:`repro.sim.compiled`) and the cycle-accurate simulator
(:mod:`repro.sim.sync`).  They share no evaluation code paths beyond the
cell truth tables, so agreement under randomized stimulus is strong
evidence that each one implements the intended semantics — the
observational analogue of checking a refinement relation between
execution models (cf. Beillahi et al., *Automated Synthesis of
Asynchronizations*, which validates sync-to-async transformations the
same way: by differencing behaviours against the synchronous original).

The harness:

* generates a seeded per-cycle stimulus (:mod:`repro.testing.stimulus`,
  the one part that stays in the library: the fault campaign and the
  batched equivalence check draw their stimuli from it);
* runs every requested backend on it, driving the event engines with an
  explicit clock whose period comes from static timing analysis (so
  every cycle fully settles, making the engines cycle-comparable);
* compares **capture streams** (per register, the flow-equivalence
  observable), **final register state** and **register toggle counts**
  across all backends — plus, between the two event engines, the full
  event-level observables (every net value, every toggle, the event
  count, capture *times*), which must match exactly;
* on disagreement, **minimizes** the failing stimulus to its shortest
  prefix by binary search, so the report points at the first cycle any
  two backends part ways.

Backends are pluggable: a runner is any callable
``(netlist, stimulus) -> BackendRun``, so an experimental engine can be
differentially tested against the reference ones by passing it in
``runners`` — which is also how the harness's own failure path is
tested.

Run from the repository root (``python -m pytest``), so the suite and
the benchmarks import it as ``tests.differential``.
"""

from __future__ import annotations

import os
from collections.abc import Callable, Iterable, Mapping
from dataclasses import dataclass, field

from repro.netlist.core import Netlist
from repro.obs.trace import TRACER
from repro.sim.backends import EVENT_BACKENDS, make_simulator
from repro.sim.lanes import resolve_lanes
from repro.sim.logic import Value
from repro.sim.sync import CycleSimulator
from repro.sim.vector import VectorCycleSimulator, pack_stimuli
from repro.testing.stimulus import DEFAULT_SEED, random_stimulus
from repro.timing.sta import analyze
from repro.utils.errors import DifferentialError

#: Backends compared by default, reference first.
DEFAULT_BACKENDS = ("cycle", "event", "compiled")

#: Scalar backends the batched vector sweep compares against by default.
#: The cycle engine shares the vector engine's timing abstraction, so it
#: is the natural reference; add the event engines for full-depth sweeps.
DEFAULT_BATCH_BACKENDS = ("cycle",)

#: Settle factor applied to the STA period when clocking the event
#: engines: inputs change half a period before the sampling edge, so
#: double the synchronous period guarantees both the input wave and the
#: post-edge register wave settle within their half-cycles.
_PERIOD_FACTOR = 2.0

#: Environment variable naming a directory for mismatch artifacts.
#: When set (or ``dump_dir`` is passed explicitly), a failing
#: differential run re-simulates the event backends with full net
#: recording and drops one GTKWave-openable VCD per backend — plus the
#: active trace, if the tracer is armed — so a CI disagreement arrives
#: with its waveforms attached.
DUMP_ENV = "REPRO_DUMP_DIR"


@dataclass
class BackendRun:
    """Everything one backend observed over one stimulus."""

    backend: str
    captures: dict[str, list[Value]]
    final_state: dict[str, Value]
    register_toggles: dict[str, int]
    # Event-engine-only observables (None for the cycle backend):
    n_events: int | None = None
    net_values: dict[str, Value] | None = None
    net_toggles: dict[str, int] | None = None
    capture_times: dict[str, list[float]] | None = None


@dataclass
class Mismatch:
    """One observed disagreement between two backends."""

    kind: str                 # captures | final_state | toggles | events
    reference: str            # backend name supplying ``expected``
    backend: str              # backend name supplying ``actual``
    register: str | None
    cycle: int | None
    expected: object
    actual: object

    def describe(self) -> str:
        where = self.register if self.register is not None else "<global>"
        cycle = f" cycle {self.cycle}" if self.cycle is not None else ""
        return (f"{self.kind} @ {where}{cycle}: "
                f"{self.reference}={self.expected!r} "
                f"{self.backend}={self.actual!r}")


@dataclass
class DifferentialReport:
    """Outcome of one differential run."""

    netlist: str
    cycles: int
    seed: int
    backends: tuple[str, ...]
    mismatches: list[Mismatch] = field(default_factory=list)
    minimized_cycles: int | None = None
    dumps: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.mismatches

    def describe(self) -> str:
        if self.ok:
            return (f"{self.netlist}: {', '.join(self.backends)} agree over "
                    f"{self.cycles} cycles (seed {self.seed})")
        lines = [f"{self.netlist}: {len(self.mismatches)} disagreement(s) "
                 f"over {self.cycles} cycles (seed {self.seed})"]
        if self.minimized_cycles is not None:
            lines.append(f"  minimal failing stimulus prefix: "
                         f"{self.minimized_cycles} cycle(s)")
        lines.extend(f"  {m.describe()}" for m in self.mismatches[:8])
        lines.extend(f"  dumped: {path}" for path in self.dumps)
        return "\n".join(lines)

    def assert_ok(self) -> None:
        if not self.ok:
            raise DifferentialError(self.describe())


# ----------------------------------------------------------------------
# backend runners
# ----------------------------------------------------------------------

def _run_cycle(netlist: Netlist,
               stimulus: list[dict[str, Value]]) -> BackendRun:
    sim = CycleSimulator(netlist)
    sim.run(len(stimulus), stimulus)
    ffs = netlist.dff_instances()
    return BackendRun(
        backend="cycle",
        captures={ff.name: list(sim.captures[ff.name]) for ff in ffs},
        final_state={ff.name: sim.values[ff.output_net().name]
                     for ff in ffs},
        register_toggles={
            ff.name: sim.toggle_counts.get(ff.output_net().name, 0)
            for ff in ffs},
    )


def drive_clocked(netlist: Netlist, backend: str,
                  stimulus: list[dict[str, Value]],
                  period: float | None = None,
                  record_all: bool = False):
    """Run one clocked stimulus on an event engine; returns the sim.

    This is *the* protocol that makes the event engines cycle-comparable
    with :class:`~repro.sim.sync.CycleSimulator` (and with each other):
    rising edges at ``(k + 1/2) * period`` for k = 0 .. cycles-1, vector
    k driven at ``k * period`` — half a period ahead of the edge that
    samples it, the cycle simulator's convention — and one extra period
    of settling after the last edge.  ``period`` defaults to
    ``_PERIOD_FACTOR`` times the STA synchronous period so every
    half-cycle fully settles.  The throughput bench uses the same helper,
    so what it measures is exactly what the harness verifies.
    ``record_all`` turns on full net-history recording (for VCD export
    of a failing run).
    """
    if netlist.clock is None:
        raise DifferentialError(
            f"{netlist.name} has no clock input; the event engines "
            "need one to be cycle-comparable")
    cycles = len(stimulus)
    if period is None:
        period = _PERIOD_FACTOR * analyze(netlist).sync_period()
    sim = make_simulator(netlist, backend, record_all=record_all,
                         initial_inputs=stimulus[0] if stimulus else {})
    sim.add_clock(netlist.clock, period, until=cycles * period)
    for k in range(1, cycles):
        for port, value in stimulus[k].items():
            sim.set_input(port, value, k * period)
    sim.run((cycles + 1) * period)
    return sim


def _event_runner(backend: str) -> Callable[..., BackendRun]:
    def run(netlist: Netlist,
            stimulus: list[dict[str, Value]]) -> BackendRun:
        sim = drive_clocked(netlist, backend, stimulus)
        captures = sim.captures
        ffs = netlist.dff_instances()
        return BackendRun(
            backend=backend,
            captures={ff.name: [c.value for c in captures.get(ff.name, [])]
                      for ff in ffs},
            final_state={ff.name: sim.value(ff.output_net().name)
                         for ff in ffs},
            register_toggles={
                ff.name: sim.toggle_counts.get(ff.output_net().name, 0)
                for ff in ffs},
            n_events=sim.n_events,
            net_values=dict(sim.values),
            net_toggles=dict(sim.toggle_counts),
            capture_times={name: [c.time for c in caps]
                           for name, caps in captures.items()},
        )
    return run


def _register_toggles_from_stream(init: int, stream: list[Value]) -> int:
    """Toggle count of a register's output net, from init + captures.

    A flip-flop's output net changes only at the sampling edge, so the
    scalar engines' per-net toggle count for it is exactly the number of
    adjacent known-to-known changes along ``[init] + captures`` — which
    is how the vector engine (which doesn't model per-net toggles)
    reports comparable register toggles.
    """
    toggles = 0
    previous: Value = init
    for value in stream:
        if value != previous and previous is not None and value is not None:
            toggles += 1
        previous = value
    return toggles


def vector_runs(netlist: Netlist, stimuli: list[list[dict[str, Value]]],
                lanes: int | None = None) -> list[BackendRun]:
    """Run N stimuli through the vector engine in ``ceil(N/lanes)`` passes.

    ``lanes=None`` asks :func:`repro.sim.lanes.resolve_lanes`; one
    simulator is built at full width and reset between blocks.  Returns one demuxed
    :class:`BackendRun` per stimulus, in order — the same observables
    :func:`_run_cycle` reports, so the runs drop straight into
    :func:`compare_runs`.
    """
    if not stimuli:
        return []
    lanes = resolve_lanes(netlist, lanes)
    ffs = netlist.dff_instances()
    sim = VectorCycleSimulator(netlist, lanes=lanes)
    runs: list[BackendRun] = []
    for start in range(0, len(stimuli), lanes):
        block = stimuli[start:start + lanes]
        if start:
            sim.reset()
        sim.run(len(block[0]), pack_stimuli(block))
        for lane in range(len(block)):
            captures = sim.lane_captures(lane)
            runs.append(BackendRun(
                backend="vector",
                captures=captures,
                final_state={ff.name: sim.lane_value(ff.output_net().name,
                                                     lane)
                             for ff in ffs},
                register_toggles={
                    ff.name: _register_toggles_from_stream(
                        ff.init, captures[ff.name])
                    for ff in ffs},
            ))
    return runs


def _run_vector(netlist: Netlist,
                stimulus: list[dict[str, Value]]) -> BackendRun:
    """Single-stimulus vector runner (one lane) for the RUNNERS table."""
    return vector_runs(netlist, [stimulus], lanes=1)[0]


#: Name -> runner.  ``run_differential`` copies and optionally extends
#: this mapping, so experimental backends plug in without registration.
RUNNERS: dict[str, Callable[[Netlist, list], BackendRun]] = {
    "cycle": _run_cycle,
    "event": _event_runner("event"),
    "compiled": _event_runner("compiled"),
    "vector": _run_vector,
}


# ----------------------------------------------------------------------
# comparison
# ----------------------------------------------------------------------

def compare_runs(runs: list[BackendRun]) -> list[Mismatch]:
    """All disagreements of ``runs[1:]`` against ``runs[0]``.

    Capture streams, final state and register toggles are compared for
    every pair; the event-level observables (net values, net toggles,
    event count) only between runs that expose them — the cycle engine
    legitimately differs there (it never glitches, so per-net toggle
    counts are incomparable).
    """
    mismatches: list[Mismatch] = []
    reference = runs[0]
    for other in runs[1:]:
        pair = dict(kind="captures", reference=reference.backend,
                    backend=other.backend)
        registers = sorted(set(reference.captures) | set(other.captures))
        for register in registers:
            expected = reference.captures.get(register)
            actual = other.captures.get(register)
            if expected is None or actual is None:
                mismatches.append(Mismatch(**pair, register=register,
                                           cycle=None, expected=expected,
                                           actual=actual))
                continue
            if len(expected) != len(actual):
                mismatches.append(Mismatch(
                    **pair, register=register, cycle=min(len(expected),
                                                         len(actual)),
                    expected=len(expected), actual=len(actual)))
            for cycle, (want, got) in enumerate(zip(expected, actual)):
                if want != got:
                    mismatches.append(Mismatch(**pair, register=register,
                                               cycle=cycle, expected=want,
                                               actual=got))
                    break
        for register in sorted(reference.final_state):
            want = reference.final_state[register]
            got = other.final_state.get(register)
            if want != got:
                mismatches.append(Mismatch(
                    kind="final_state", reference=reference.backend,
                    backend=other.backend, register=register, cycle=None,
                    expected=want, actual=got))
        for register in sorted(reference.register_toggles):
            want = reference.register_toggles[register]
            got = other.register_toggles.get(register)
            if want != got:
                mismatches.append(Mismatch(
                    kind="toggles", reference=reference.backend,
                    backend=other.backend, register=register, cycle=None,
                    expected=want, actual=got))
    event_runs = [run for run in runs if run.n_events is not None]
    for other in event_runs[1:]:
        reference = event_runs[0]
        for kind, attr in (("events", "n_events"),
                           ("events", "net_values"),
                           ("events", "net_toggles"),
                           ("events", "capture_times")):
            want = getattr(reference, attr)
            got = getattr(other, attr)
            if want != got:
                mismatches.append(Mismatch(
                    kind=kind, reference=reference.backend,
                    backend=other.backend, register=attr, cycle=None,
                    expected=_shrink(want, got), actual=_shrink(got, want)))
    return mismatches


def _shrink(value: object, other: object) -> object:
    """Reduce a big mapping mismatch to its differing keys for reports."""
    if isinstance(value, Mapping) and isinstance(other, Mapping):
        keys = [k for k in set(value) | set(other)
                if value.get(k) != other.get(k)]
        return {k: value.get(k) for k in sorted(map(str, keys))[:5]}
    return value


# ----------------------------------------------------------------------
# mismatch artifacts
# ----------------------------------------------------------------------

def _dump_trace(dump_dir: str, tag: str) -> list[str]:
    """Snapshot the armed tracer next to the waveform dumps (if armed)."""
    if not TRACER.enabled:
        return []
    path = os.path.join(dump_dir, f"{tag}_trace.json")
    TRACER.write(path)
    return [path]


def dump_mismatch(netlist: Netlist, stimulus: list[dict[str, Value]],
                  backends: Iterable[str], dump_dir: str,
                  tag: str | None = None) -> list[str]:
    """Dump per-backend VCDs (plus the trace) for a disagreeing stimulus.

    Re-runs each *event* backend in ``backends`` on ``stimulus`` with
    full net recording — the comparison runs record only register
    observables, so the waveforms must be regenerated — and writes one
    VCD per backend under ``dump_dir``.  Deterministic simulation makes
    the re-run exactly the disagreeing run.  Returns the written paths.
    """
    from repro.obs.vcd import write_vcd
    os.makedirs(dump_dir, exist_ok=True)
    tag = tag or netlist.name
    paths: list[str] = []
    for backend in backends:
        if backend not in EVENT_BACKENDS:
            continue  # cycle engines keep no event-level history
        sim = drive_clocked(netlist, backend, stimulus, record_all=True)
        path = os.path.join(dump_dir, f"{tag}_{backend}.vcd")
        write_vcd(path, sim.history, module=netlist.name,
                  comment=(f"{backend} engine re-run of mismatching "
                           f"stimulus, {len(stimulus)} cycles"))
        paths.append(path)
    paths.extend(_dump_trace(dump_dir, tag))
    return paths


# ----------------------------------------------------------------------
# the harness
# ----------------------------------------------------------------------

def minimize_prefix(diverges: Callable[[int], bool],
                    cycles: int) -> int | None:
    """Shortest stimulus prefix length on which ``diverges`` holds.

    Binary search: simulation is deterministic and divergence is
    prefix-monotonic (once two backends disagree within k cycles they
    still disagree within any longer run), so the predicate is
    monotone in the prefix length.  Returns None if even the full
    ``cycles`` do not diverge.
    """
    if cycles < 1 or not diverges(cycles):
        return None
    low, high = 1, cycles
    while low < high:
        mid = (low + high) // 2
        if diverges(mid):
            high = mid
        else:
            low = mid + 1
    return low


def run_differential(netlist: Netlist, cycles: int = 16,
                     seed: int = DEFAULT_SEED,
                     backends: Iterable[str] = DEFAULT_BACKENDS,
                     runners: Mapping[str, Callable] | None = None,
                     stimulus: list[dict[str, Value]] | None = None,
                     minimize: bool = True,
                     dump_dir: str | None = None) -> DifferentialReport:
    """Differentially test ``backends`` on ``netlist``.

    ``stimulus`` defaults to :func:`random_stimulus` for ``(cycles,
    seed)``.  ``runners`` overlays :data:`RUNNERS`, letting callers
    plug in experimental backends.  When the backends disagree and
    ``minimize`` is set, the stimulus is re-run on shrinking prefixes
    to find the shortest failing one (``minimized_cycles`` in the
    report).  On disagreement, per-backend VCDs (and the active trace)
    are dumped into ``dump_dir`` — defaulting to :data:`DUMP_ENV` from
    the environment; no dumps when both are unset.
    """
    backends = tuple(backends)
    if len(backends) < 2:
        raise DifferentialError("differential testing needs >= 2 backends")
    table = dict(RUNNERS)
    table.update(runners or {})
    missing = [b for b in backends if b not in table]
    if missing:
        raise DifferentialError(
            f"unknown backend(s) {missing} (have: {', '.join(sorted(table))})")
    if stimulus is None:
        stimulus = random_stimulus(netlist, cycles, seed)
    cycles = len(stimulus)

    def runs_for(prefix: list[dict[str, Value]]) -> list[BackendRun]:
        runs = []
        for backend in backends:
            run = table[backend](netlist, prefix)
            run.backend = backend  # a plugged-in runner may wrap another
            runs.append(run)
        return runs

    mismatches = compare_runs(runs_for(stimulus))
    minimized = None
    if mismatches and minimize and cycles > 1:
        # The full run is already known to diverge; seed the search's
        # cache so the binary search never repeats it.
        known: dict[int, bool] = {cycles: True}

        def diverges(n: int) -> bool:
            if n not in known:
                known[n] = bool(compare_runs(runs_for(stimulus[:n])))
            return known[n]

        minimized = minimize_prefix(diverges, cycles)
    dumps: list[str] = []
    if mismatches:
        if dump_dir is None:
            dump_dir = os.environ.get(DUMP_ENV)
        if dump_dir:
            dumps = dump_mismatch(netlist, stimulus, backends, dump_dir,
                                  tag=f"{netlist.name}_seed{seed}")
    return DifferentialReport(
        netlist=netlist.name, cycles=cycles, seed=seed, backends=backends,
        mismatches=mismatches, minimized_cycles=minimized, dumps=dumps)


def run_differential_batch(netlist: Netlist, seeds: Iterable[int],
                           cycles: int = 16,
                           backends: Iterable[str] = DEFAULT_BATCH_BACKENDS,
                           lanes: int | None = None,
                           runners: Mapping[str, Callable] | None = None,
                           minimize: bool = True,
                           ) -> dict[int, DifferentialReport]:
    """Differentially test the vector engine against scalar ``backends``.

    One seeded stimulus per entry of ``seeds`` (``lanes=None`` asks
    :func:`repro.sim.lanes.resolve_lanes`); the vector engine runs
    them all in ``ceil(N / lanes)`` lane-parallel passes, each lane is
    demuxed, and every per-seed run is compared against the scalar
    ``backends`` on the same stimulus (capture streams, final register
    state, register toggles).  Disagreeing seeds fall back to
    :func:`run_differential` (vector riding along as a plugged-in
    backend) so their reports carry the minimized stimulus prefix.
    Returns a report per seed, in ``seeds`` order.
    """
    seeds = list(seeds)
    if len(set(seeds)) != len(seeds):
        raise DifferentialError(
            "duplicate seeds in batch sweep (reports are keyed by seed)")
    backends = tuple(backends)
    if not backends:
        raise DifferentialError(
            "batched differential testing needs >= 1 scalar backend")
    table = dict(RUNNERS)
    table.update(runners or {})
    missing = [b for b in backends if b not in table]
    if missing:
        raise DifferentialError(
            f"unknown backend(s) {missing} (have: {', '.join(sorted(table))})")
    stimuli = [random_stimulus(netlist, cycles, seed) for seed in seeds]
    batched = vector_runs(netlist, stimuli, lanes=lanes)
    reports: dict[int, DifferentialReport] = {}
    for seed, stimulus, vector_run in zip(seeds, stimuli, batched):
        runs = []
        for backend in backends:
            run = table[backend](netlist, stimulus)
            run.backend = backend
            runs.append(run)
        runs.append(vector_run)
        mismatches = compare_runs(runs)
        if mismatches and minimize and cycles > 1:
            minimized = run_differential(
                netlist, seed=seed, backends=(*backends, "vector"),
                runners=runners, stimulus=stimulus)
            if minimized.mismatches:
                reports[seed] = minimized
                continue
            # The single-lane rerun came back clean: the divergence is
            # lane-dependent (a multi-lane-only defect).  Keep the
            # batched mismatches — masking them behind the clean rerun
            # would hide exactly the class of bug this sweep exists to
            # catch; no minimized prefix is available for it.
        reports[seed] = DifferentialReport(
            netlist=netlist.name, cycles=len(stimulus), seed=seed,
            backends=(*backends, "vector"), mismatches=mismatches)
    return reports


def _dump_async_mismatch(result, stimulus: list[dict[str, Value]],
                         cycles: int, backend: str, dump_dir: str,
                         tag: str) -> list[str]:
    """Dump the fabric's scalar-side VCD (plus the trace) for one seed.

    The replay engine's lane-0 run *is* the scalar recording run, so one
    fully-recorded scalar re-simulation reproduces the waveforms of both
    sides of the disagreement.
    """
    from repro.equiv.flow_equivalence import _masters, _paced_run
    from repro.obs.vcd import write_vcd
    os.makedirs(dump_dir, exist_ok=True)
    initial = dict(stimulus[0]) if stimulus else {}
    sim = make_simulator(result.desync_netlist, backend, record_all=True,
                         initial_inputs=initial)
    _paced_run(sim, result, cycles, stimulus, _masters(result))
    path = os.path.join(dump_dir, f"{tag}_{backend}.vcd")
    write_vcd(path, sim.history, module=result.desync_netlist.name,
              comment=(f"{backend} engine re-run of mismatching desync "
                       f"stimulus, {cycles} cycles"))
    return [path] + _dump_trace(dump_dir, tag)


def run_differential_async(result, seeds: Iterable[int], cycles: int = 10,
                           backend: str = "event",
                           lanes: int | None = None,
                           dump_dir: str | None = None,
                           ) -> dict[int, DifferentialReport]:
    """Differentially test the schedule-replay engine on a desync fabric.

    ``result`` is the :class:`~repro.desync.flow.DesyncResult` of a
    pass sequence that built a controller network.  One seeded stimulus
    per entry of ``seeds``: the lane-parallel
    :class:`~repro.sim.vector_async.ScheduleReplaySimulator` runs them
    in ``ceil(N / lanes)`` recorded-and-replayed blocks (via
    :func:`repro.equiv.desync_streams_batch`), each lane is demuxed, and
    every per-seed capture-stream set is compared against an independent
    scalar event simulation of the same stimulus on ``backend``.  A
    fabric that fails the data-independence proof makes the batch side
    fall back to the scalar engine — the comparison then degenerates to
    scalar-vs-scalar, so the reports stay meaningful (and carry the
    fallback in their backend tuple).  Disagreeing seeds dump a
    fully-recorded fabric VCD (and the active trace) into ``dump_dir``
    (default: :data:`DUMP_ENV` from the environment).  Returns a report
    per seed, in ``seeds`` order.
    """
    from repro.equiv.flow_equivalence import (
        desync_streams,
        desync_streams_batch,
    )
    seeds = list(seeds)
    if len(set(seeds)) != len(seeds):
        raise DifferentialError(
            "duplicate seeds in batch sweep (reports are keyed by seed)")
    stimuli = [random_stimulus(result.sync_netlist, cycles, seed)
               for seed in seeds]
    batched, engines = desync_streams_batch(result, cycles, stimuli,
                                            backend=backend, lanes=lanes)
    reports: dict[int, DifferentialReport] = {}
    for seed, stimulus, streams, (engine, _reason) in zip(
            seeds, stimuli, batched, engines):
        reference = desync_streams(result, cycles,
                                   inputs_per_cycle=stimulus,
                                   backend=backend)
        mismatches: list[Mismatch] = []
        for register in sorted(set(reference) | set(streams)):
            expected = reference.get(register)
            actual = streams.get(register)
            if expected == actual:
                continue
            cycle = None
            if expected is not None and actual is not None:
                diffs = [k for k, (want, got)
                         in enumerate(zip(expected, actual)) if want != got]
                cycle = diffs[0] if diffs else min(len(expected),
                                                   len(actual))
            mismatches.append(Mismatch(
                kind="captures", reference=backend, backend=engine,
                register=register, cycle=cycle,
                expected=expected, actual=actual))
        dumps: list[str] = []
        if mismatches:
            directory = dump_dir if dump_dir is not None \
                else os.environ.get(DUMP_ENV)
            if directory:
                dumps = _dump_async_mismatch(
                    result, stimulus, cycles, backend, directory,
                    tag=f"{result.desync_netlist.name}_seed{seed}")
        reports[seed] = DifferentialReport(
            netlist=result.desync_netlist.name, cycles=cycles, seed=seed,
            backends=(backend, engine), mismatches=mismatches, dumps=dumps)
    return reports


def differential_corpus(configs: Iterable[str] | None = None,
                        cycles: int = 16, seed: int = DEFAULT_SEED,
                        backends: Iterable[str] = DEFAULT_BACKENDS,
                        ) -> dict[str, DifferentialReport]:
    """Run the differential harness over corpus configurations.

    ``configs`` defaults to the full registry.  Returns a report per
    configuration name; callers assert ``report.ok`` (or collect
    ``describe()`` strings) as suits them.
    """
    from repro.corpus import generate, names
    reports: dict[str, DifferentialReport] = {}
    for config in (configs if configs is not None else names()):
        reports[config] = run_differential(generate(config), cycles=cycles,
                                           seed=seed, backends=backends)
    return reports
