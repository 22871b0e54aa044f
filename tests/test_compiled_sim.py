"""Compiled-simulator tests: drop-in parity with ``EventSimulator``.

The contract is *event-for-event identity*: on any netlist and any
stimulus, the compiled engine must produce the same capture streams
(times included), net values, toggle counts, histories, energy events
and event counts as the interpreter — not merely equivalent ones.
"""

import pytest

from repro.corpus import generate
from repro.desync import DesyncOptions, HandshakeMode, desynchronize
from repro.faults.inject import control_nets
from repro.netlist import Netlist
from repro.sim import (
    CompiledSimulator,
    EventSimulator,
    backend_names,
    make_simulator,
)
from repro.sim.backends import EVENT_BACKENDS, reused_simulator
from repro.sim.simulator import INVERT
from repro.testing import drive_clocked, random_stimulus
from repro.timing import DelayModel
from repro.timing.sta import analyze
from repro.utils.errors import SimulationError

from tests.circuits import all_circuits, lfsr3

CIRCUITS = all_circuits()


def clocked_pair(netlist, cycles=24, seed=5):
    """Run both engines on the same seeded clocked stimulus, using the
    exact driving protocol the differential harness and the throughput
    bench use."""
    stimulus = random_stimulus(netlist, cycles, seed=seed)
    return [drive_clocked(netlist, backend, stimulus)
            for backend in ("event", "compiled")]


def assert_identical(event, compiled):
    assert event.n_events == compiled.n_events
    assert dict(event.values) == dict(compiled.values)
    assert dict(event.toggle_counts) == dict(compiled.toggle_counts)
    assert dict(event.captures) == dict(compiled.captures)
    assert dict(event.history) == dict(compiled.history)


class TestExactParity:
    @pytest.mark.parametrize("circuit", sorted(CIRCUITS))
    def test_clocked_parity(self, circuit):
        event, compiled = clocked_pair(CIRCUITS[circuit]())
        assert_identical(event, compiled)

    @pytest.mark.parametrize("config", ["mult4", "pipe8x2", "fir8",
                                        "diamond2x4"])
    def test_corpus_parity(self, config):
        event, compiled = clocked_pair(generate(config))
        assert_identical(event, compiled)

    @pytest.mark.parametrize("mode", [HandshakeMode.OVERLAP,
                                      HandshakeMode.SERIAL],
                             ids=lambda m: m.value)
    def test_desync_fabric_parity(self, mode):
        # The self-timed fabric exercises every handshake cell kind.
        result = desynchronize(lfsr3(), DesyncOptions(mode=mode))
        horizon = 30 * max(1.0, result.desync_cycle_time().cycle_time)
        event = EventSimulator(result.desync_netlist)
        compiled = CompiledSimulator(result.desync_netlist)
        stats_e = event.run(horizon)
        stats_c = compiled.run(horizon)
        assert stats_e.end_time == stats_c.end_time
        assert stats_e.toggles == stats_c.toggles
        assert_identical(event, compiled)

    def test_recorded_history_parity(self):
        netlist = generate("counter6")
        nets = [f"q[{i}]" for i in range(3) if f"q[{i}]" in netlist.nets] \
            or list(netlist.nets)[:3]
        period = 2.0 * analyze(netlist).sync_period()
        sims = []
        for cls in (EventSimulator, CompiledSimulator):
            sim = cls(netlist, record=nets)
            sim.add_clock(netlist.clock, period, until=20 * period)
            sim.run(21 * period)
            sims.append(sim)
        assert dict(sims[0].history) == dict(sims[1].history)

    def test_energy_events_parity(self):
        netlist = generate("lfsr8")
        period = 2.0 * analyze(netlist).sync_period()
        sims = []
        for cls in (EventSimulator, CompiledSimulator):
            sim = cls(netlist, record_energy=True)
            sim.add_clock(netlist.clock, period, until=16 * period)
            sim.run(17 * period)
            sims.append(sim)
        assert sims[0].energy_events == sims[1].energy_events
        assert sims[0].energy_events  # non-trivial run


_FABRICS: dict[str, object] = {}


def serial_fabric(config):
    if config not in _FABRICS:
        _FABRICS[config] = desynchronize(
            generate(config), DesyncOptions(mode=HandshakeMode.SERIAL))
    return _FABRICS[config]


def fault_site(netlist, prefix):
    """First interior handshake net with ``prefix``; for ``"input"``,
    the first data input port; for ``"tie"``, a tie-cell output."""
    if prefix == "input":
        return next(name for name, net in netlist.nets.items()
                    if net.is_input_port)
    if prefix == "tie":
        return next(name for name, net in netlist.nets.items()
                    if net.driver_instance() is not None
                    and net.driver_instance().cell.kind.name == "TIE")
    return next(name for name in control_nets(netlist)
                if name.startswith(prefix) and "<env>" not in name)


def stuck(prefix, value):
    def arm(sim, netlist, period):
        sim.force_net(fault_site(netlist, prefix), value, time=0.0)
    return arm


def force_then_release(prefix):
    def arm(sim, netlist, period):
        net = fault_site(netlist, prefix)
        sim.force_net(net, 0, time=1.5 * period)
        sim.release_net(net, time=3.0 * period)
    return arm


def glitch(prefix, value):
    def arm(sim, netlist, period):
        gate = max(c.delay for c in netlist.library.cells.values())
        sim.inject_glitch(fault_site(netlist, prefix), at=2.3 * period,
                          duration=2.0 * gate, value=value)
    return arm


def same_instant(sim, netlist, period):
    """Controls and value events at one instant fire in push order."""
    port, at = fault_site(netlist, "input"), 2.0 * period
    sim.set_input(port, 1, at)   # applied, then overridden by the force
    sim.force_net(port, 0, at)
    sim.set_input(port, 1, at)   # dropped: the port is forced
    sim.release_net(port, 3.0 * period)
    sim.set_input(port, 1, 3.0 * period)


FAULT_CASES = {
    "same-instant-input": same_instant,
    **{f"{kind}-{prefix.rstrip(':')}": stuck(prefix, value)
       for prefix in ("lt:", "req:", "ack:", "input")
       for kind, value in (("stuck0", 0), ("stuck1", 1))},
    **{f"release-{prefix.rstrip(':')}": force_then_release(prefix)
       for prefix in ("lt:", "req:", "ack:", "input", "tie")},
    **{f"glitch-{label}-{prefix.rstrip(':')}": glitch(prefix, value)
       for prefix in ("lt:", "req:")
       for label, value in (("invert", INVERT), ("zero", 0), ("x", None))},
}


def drive_fabric(sim, result, stimulus):
    """Drive ``result``'s fabric on ``sim``, whose reset saw vector 0:
    one new vector per slice of the horizon, so the run crosses several
    ``run`` calls.  Returns the message of the ``SimulationError`` it
    raised, if any."""
    horizon = 12 * result.desync_cycle_time().cycle_time
    try:
        for k, vector in enumerate(stimulus[1:], 1):
            sim.run(horizon * k / len(stimulus))
            for port, value in vector.items():
                sim.set_input(port, value)
        sim.run(horizon)
    except SimulationError as exc:
        return str(exc)
    return None


def faulted_run(cls, result, arm, record):
    """Drive ``result``'s fabric on engine ``cls`` with ``arm`` applied.
    Returns the simulator and the message of the ``SimulationError`` it
    raised, if any."""
    netlist = result.desync_netlist
    stimulus = random_stimulus(result.sync_netlist, 6, seed=3)
    sim = cls(netlist, record=record, initial_inputs=stimulus[0])
    arm(sim, netlist, result.desync_cycle_time().cycle_time)
    return sim, drive_fabric(sim, result, stimulus)


class TestFaultParity:
    """The fault hooks are event-for-event identical across engines:
    same captures (with times), events, toggles, histories and active
    forces under every stuck-at, release and glitch shape."""

    @pytest.mark.parametrize("case", sorted(FAULT_CASES))
    @pytest.mark.parametrize("config", ["pipe4x1", "fir8"])
    def test_armed_parity(self, config, case):
        result = serial_fabric(config)
        record = control_nets(result.desync_netlist) + [
            fault_site(result.desync_netlist, "input")]
        (event, raised_e), (compiled, raised_c) = (
            faulted_run(cls, result, FAULT_CASES[case], record)
            for cls in (EventSimulator, CompiledSimulator))
        assert raised_e == raised_c
        assert event.n_events == compiled.n_events
        assert dict(event.captures) == dict(compiled.captures)
        assert dict(event.toggle_counts) == dict(compiled.toggle_counts)
        assert dict(event.history) == dict(compiled.history)
        assert dict(event.values) == dict(compiled.values)
        assert event.forced_nets == compiled.forced_nets
        assert event.n_events  # the fabric did run

    def test_stuck_at_stays_forced(self):
        result = serial_fabric("pipe4x1")
        net = fault_site(result.desync_netlist, "ack:")
        sim, _ = faulted_run(CompiledSimulator, result,
                             stuck("ack:", 1), [net])
        assert sim.forced_nets == {net: 1}
        assert sim.value(net) == 1

    @pytest.mark.parametrize("cls", [EventSimulator, CompiledSimulator])
    def test_unknown_net_and_bad_duration_raise(self, cls):
        sim = cls(serial_fabric("pipe4x1").desync_netlist)
        with pytest.raises(SimulationError, match="cannot force unknown"):
            sim.force_net("nope", 1)
        with pytest.raises(SimulationError, match="cannot release unknown"):
            sim.release_net("nope")
        with pytest.raises(SimulationError, match="cannot glitch unknown"):
            sim.inject_glitch("nope", at=10.0, duration=5.0)
        with pytest.raises(SimulationError, match="duration must be > 0"):
            sim.inject_glitch("lt:st0", at=10.0, duration=0.0)
        with pytest.raises(SimulationError, match="duration must be > 0"):
            sim.inject_glitch("lt:st0", at=10.0, duration=-1.0)
        assert sim.forced_nets == {}


def every_fault(sim, netlist, period):
    """A glitch, a force/release and a late stuck-at in one run."""
    glitch("lt:", INVERT)(sim, netlist, period)
    force_then_release("req:")(sim, netlist, period)
    sim.force_net(fault_site(netlist, "ack:"), 1, time=8.0 * period)


#: Runs before the reset: every fault hook, and an X enable glitch that
#: aborts the run midway with a ``SimulationError``.
RESET_ARMS = {"every-fault": every_fault, "x-enable": glitch("lt:", None)}


@pytest.mark.parametrize("cls", [EventSimulator, CompiledSimulator],
                         ids=lambda cls: cls.__name__)
class TestResetParity:
    """A reset engine runs like a fresh one, event for event, whatever
    the run before the reset did: captures with times, events, toggles,
    histories, energy, values, time and forces."""

    @pytest.mark.parametrize("arm", sorted(RESET_ARMS))
    def test_reset_run_equals_fresh_run(self, cls, arm):
        result = serial_fabric("pipe4x1")
        netlist = result.desync_netlist
        stimulus = random_stimulus(result.sync_netlist, 6, seed=3)

        def build():
            return cls(netlist, record=control_nets(netlist),
                       record_energy=True, initial_inputs=stimulus[0])
        reused = build()
        RESET_ARMS[arm](reused, netlist,
                        result.desync_cycle_time().cycle_time)
        drive_fabric(reused, result, stimulus)
        assert reused.captures and reused.n_events  # state to reset
        reused.reset()
        fresh = build()
        raised = [drive_fabric(sim, result, stimulus)
                  for sim in (reused, fresh)]
        assert raised == [None, None]
        assert reused.n_events == fresh.n_events
        assert reused.now == fresh.now
        assert dict(reused.captures) == dict(fresh.captures)
        assert dict(reused.toggle_counts) == dict(fresh.toggle_counts)
        assert dict(reused.history) == dict(fresh.history)
        assert reused.energy_events == fresh.energy_events
        assert dict(reused.values) == dict(fresh.values)
        assert reused.forced_nets == fresh.forced_nets == {}

    def test_reset_returns_to_time_zero(self, cls):
        result = serial_fabric("pipe4x1")
        sim = cls(result.desync_netlist)
        settled = dict(sim.values)
        pending = sim.peek_time()
        sim.run(5 * result.desync_cycle_time().cycle_time)
        sim.reset()
        assert (sim.now, sim.n_events, dict(sim.captures)) == (0.0, 0, {})
        assert dict(sim.values) == settled
        assert pending is not None and sim.peek_time() == pending


class TestReusedSimulator:
    """The engine pool behind ``desync_streams``."""

    def test_same_key_reuses_one_engine(self):
        netlist = serial_fabric("pipe4x1").desync_netlist
        with reused_simulator(netlist, "compiled") as first:
            first.run(500.0)
        with reused_simulator(netlist, "compiled") as second:
            assert second is first
            assert (second.now, second.n_events) == (0.0, 0)
            with reused_simulator(netlist, "compiled") as nested:
                assert nested is not second  # checked out, not shared

    def test_keyed_on_engine_class(self, monkeypatch):
        netlist = serial_fabric("pipe4x1").desync_netlist
        with reused_simulator(netlist, "compiled"):
            pass
        monkeypatch.setitem(EVENT_BACKENDS, "compiled", EventSimulator)
        with reused_simulator(netlist, "compiled") as swapped:
            assert type(swapped) is EventSimulator
        with reused_simulator(netlist, "compiled") as sim:
            assert sim is swapped
        monkeypatch.undo()
        with reused_simulator(netlist, "compiled") as sim:
            assert type(sim) is CompiledSimulator

    def test_keyed_on_delay_model_and_initial_inputs(self):
        from repro.timing import DelayModel
        netlist = serial_fabric("pipe4x1").desync_netlist
        port = fault_site(netlist, "input")
        for kwargs, shared in (
                ({"delay_model": DelayModel.scaled(1.0)}, True),  # identity
                ({"delay_model": DelayModel.scaled(2.0)}, False),
                ({"initial_inputs": {port: 1}}, False)):
            with reused_simulator(netlist, "compiled") as nominal:
                pass
            with reused_simulator(netlist, "compiled", **kwargs) as sim:
                assert (sim is nominal) == shared

    def test_mutation_drops_the_engine(self):
        netlist = generate("counter6")
        with reused_simulator(netlist, "compiled") as before:
            pass
        netlist.add_input("spare")
        with reused_simulator(netlist, "compiled") as after:
            assert after is not before
            assert "spare" in after.values

    def test_one_engine_parked_per_netlist(self):
        netlist = generate("counter6")
        port = netlist.inputs[0]
        for value in (0, 1, None):
            for backend in ("event", "compiled"):
                with reused_simulator(netlist, backend,
                                      initial_inputs={port: value}) as sim:
                    pass
        assert netlist.memo("parked-simulator", dict) == {
            (CompiledSimulator, None, ((port, None),)): sim}


def campaign_models(result):
    """The delay models of the fault campaign's cells on ``result``:
    both scalings, jitter, adversarial skew, and erosion of the
    fabric's longest matched delay line."""
    plans = result.network.delay_plans
    pred, succ = max(plans, key=lambda edge: plans[edge].achieved)
    return {"scaled-1/3": DelayModel.scaled(1.0 / 3.0),
            "scaled-3": DelayModel.scaled(3.0),
            "jittered": DelayModel.jittered(0.01, seed=0),
            "adversarial": DelayModel.adversarial(0.02),
            "eroded": DelayModel.eroded(pred, succ, 0.5)}


def modeled_run(cls, result, model):
    """Drive ``result``'s fabric on a fresh ``cls`` under ``model``.
    Returns the simulator, the events it had queued when built, and the
    message of the ``SimulationError`` the run raised, if any."""
    netlist = result.desync_netlist
    stimulus = random_stimulus(result.sync_netlist, 6, seed=3)
    sim = cls(netlist, record=control_nets(netlist),
              initial_inputs=stimulus[0], delay_model=model)
    return sim, pending_events(sim), drive_fabric(sim, result, stimulus)


def pending_events(sim):
    """The queued events as ``(time, sequence, net, value)``, sorted."""
    if isinstance(sim, EventSimulator):
        return sorted((time, seq, *event)
                      for time, seq, event in sim._queue.heap)
    return sorted((time, seq, sim._names[slot], value)
                  for time, seq, slot, value in sim._heap)


@pytest.mark.parametrize("config", ["pipe4x1", "fir8"])
class TestDelayModelParity:
    """Engines on one netlist share its delay-independent layout
    (:class:`~repro.sim.compiled.EngineLayout`) and differ only in the
    delays they bind: each still matches the interpreter event for
    event, under every delay model the fault campaign uses."""

    @pytest.mark.parametrize("model", ["scaled-1/3", "scaled-3",
                                       "jittered", "adversarial", "eroded"])
    def test_model_parity(self, config, model):
        result = serial_fabric(config)
        CompiledSimulator(result.desync_netlist)  # the layout exists
        (event, kicks_e, raised_e), (compiled, kicks_c, raised_c) = (
            modeled_run(cls, result, campaign_models(result)[model])
            for cls in (EventSimulator, CompiledSimulator))
        assert kicks_e == kicks_c  # times and sequence numbers
        assert raised_e == raised_c
        assert_identical(event, compiled)
        assert event.now == compiled.now
        assert compiled.n_events

    def test_engines_on_one_netlist_do_not_interfere(self, config):
        # Two engines under different models built from one layout, run
        # in alternation, each equal the interpreter under its model.
        result = serial_fabric(config)
        netlist = result.desync_netlist
        stimulus = random_stimulus(result.sync_netlist, 6, seed=3)
        models = campaign_models(result)
        pair = [CompiledSimulator(netlist, record=control_nets(netlist),
                                  initial_inputs=stimulus[0],
                                  delay_model=models[name])
                for name in ("scaled-3", "jittered")]
        assert pair[0]._layout is pair[1]._layout
        horizon = 12 * result.desync_cycle_time().cycle_time
        for k, vector in enumerate(stimulus[1:], 1):
            for sim in pair:
                sim.run(horizon * k / len(stimulus))
                for port, value in vector.items():
                    sim.set_input(port, value)
        for sim in pair:
            sim.run(horizon)
        for sim, name in zip(pair, ("scaled-3", "jittered")):
            event, _, _ = modeled_run(EventSimulator, result, models[name])
            assert_identical(event, sim)

    def test_layout_built_once_and_dropped_on_mutation(self, config):
        netlist = generate(config)
        first = CompiledSimulator(netlist)
        scaled = CompiledSimulator(netlist,
                                   delay_model=DelayModel.scaled(3.0))
        assert scaled._layout is first._layout
        assert netlist.memo("engine-layout", None) is first._layout
        assert dict(scaled.values) == dict(first.values)
        netlist.add_input("spare")
        after = CompiledSimulator(netlist)
        assert after._layout is not first._layout
        assert "spare" in after.values

    def test_settled_per_initial_inputs(self, config):
        # The layout keeps one settled state per initial-input vector;
        # engines alternating between vectors each settle their own.
        result = serial_fabric(config)
        netlist = result.desync_netlist
        port = fault_site(netlist, "input")
        horizon = 6 * result.desync_cycle_time().cycle_time
        for value in (1, 0, None, 1):
            event, compiled = (cls(netlist, initial_inputs={port: value})
                               for cls in (EventSimulator, CompiledSimulator))
            assert compiled.peek_time() == event.peek_time()
            event.run(horizon)
            compiled.run(horizon)
            assert_identical(event, compiled)


class TestDropInSurface:
    def test_run_stats_are_snapshots(self):
        # run() hands back the toggle counts as of its return, even when
        # the simulator runs on before the caller reads them.
        sims = [cls(generate("counter6"))
                for cls in (EventSimulator, CompiledSimulator)]
        netlist = sims[0].netlist
        period = 2.0 * analyze(netlist).sync_period()
        snapshots = []
        for sim in sims:
            sim.add_clock(netlist.clock, period, until=8 * period)
            early = sim.run(3 * period)
            expected = dict(sim.toggle_counts)
            sim.run(9 * period)
            assert early.toggles == expected
            assert dict(sim.toggle_counts) != expected
            snapshots.append(early.toggles)
        assert snapshots[0] == snapshots[1]

    def test_set_input_rejects_non_port(self):
        sim = CompiledSimulator(lfsr3())
        with pytest.raises(SimulationError, match="not an input port"):
            sim.set_input("nope", 1)
        with pytest.raises(SimulationError, match="not an input port"):
            CompiledSimulator(lfsr3(), initial_inputs={"nope": 1})

    def test_value_and_vector(self):
        netlist = generate("counter6")
        sim = CompiledSimulator(netlist)
        period = 2.0 * analyze(netlist).sync_period()
        sim.add_clock(netlist.clock, period, until=5 * period)
        sim.run(6 * period)
        reference = EventSimulator(netlist)
        reference.add_clock(netlist.clock, period, until=5 * period)
        reference.run(6 * period)
        assert sim.value_vector("q", 6) == reference.value_vector("q", 6)
        for net in netlist.nets:
            assert sim.value(net) == reference.value(net)

    def test_x_propagation_matches(self):
        # Undriven inputs stay X and propagate pessimistically in both.
        netlist = Netlist("xprop")
        a = netlist.add_input("a")
        b = netlist.add_input("b")
        netlist.add_gate("AND2", [a, b], output=netlist.net("y"))
        netlist.add_output("y")
        for cls in (EventSimulator, CompiledSimulator):
            sim = cls(netlist)
            sim.set_input("a", 0, 0.0)   # 0 AND X is 0
            sim.run(1000.0)
            assert sim.value("y") == 0
            assert sim.value("b") is None

    def test_run_until_quiet(self):
        event, compiled = (cls(lfsr3())
                           for cls in (EventSimulator, CompiledSimulator))
        se = event.run_until_quiet(1e6)
        sc = compiled.run_until_quiet(1e6)
        assert se.end_time == sc.end_time
        assert se.n_events == sc.n_events


class TestBackendRegistry:
    def test_names(self):
        assert backend_names() == ["compiled", "event"]

    def test_make_simulator(self):
        assert isinstance(make_simulator(lfsr3(), "event"), EventSimulator)
        assert isinstance(make_simulator(lfsr3(), "compiled"),
                          CompiledSimulator)

    def test_unknown_backend(self):
        with pytest.raises(SimulationError, match="unknown simulator"):
            make_simulator(lfsr3(), "verilator")
