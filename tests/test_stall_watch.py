"""Exact early stall verdicts in the paced loop.

On the compiled engine, ``_paced_run`` ends a live stall — some masters
stop short while the rest of the fabric keeps firing — as soon as the
state of the latch-enable fanin cone repeats with no short master
capturing in between.  These tests hold the rule to its contract: the
verdict and every capture up to the stop are the ones
:class:`~repro.sim.simulator.EventSimulator` (which has no watch and
always runs to the horizon) produces, and the watch stays idle wherever
its argument does not hold.
"""

from __future__ import annotations

import pytest

from repro.corpus import generate, names
from repro.desync import DesyncOptions, HandshakeMode, desynchronize
from repro.equiv.flow_equivalence import _masters, _paced_run, _stall_watch
from repro.faults import inject
from repro.faults.campaign import _campaign_result
from repro.faults.inject import (
    CONTROL_PREFIXES,
    GLITCH_PREFIXES,
    FaultSite,
    sample_control_nets,
)
from repro.obs.metrics import METRICS
from repro.obs.trace import TRACER
from repro.sim import make_simulator
from repro.sim.vector_async import check_schedule_replayable, control_cone
from repro.testing import random_stimulus
from repro.timing import DelayModel
from repro.utils.errors import FlowEquivalenceError

#: The campaign's configs: the core tier plus pipe12x2.
CONFIGS = names("core") + ["pipe12x2"]
CYCLES = 8


def serial_fabric(config: str):
    return desynchronize(generate(config),
                         DesyncOptions(mode=HandshakeMode.SERIAL))


def detect_with(monkeypatch, backend: str, result, site: FaultSite,
                seed: int):
    """``run_detection`` with every check on ``backend``.

    Returns the verdict and, per check, the engine's captures, final
    time and event count, copied before the next check resets it.
    """
    real = inject.check_flow_equivalence
    checks = []

    def check(result, arm=None, **kwargs):
        engines = []

        def spy(sim):
            engines.append(sim)
            if arm is not None:
                arm(sim)
        kwargs["backend"] = backend
        try:
            return real(result, arm=spy, **kwargs)
        finally:
            (sim,) = engines
            checks.append(({name: list(caps)
                            for name, caps in sim.captures.items()},
                           sim.now, sim.n_events))
    monkeypatch.setattr(inject, "check_flow_equivalence", check)
    verdict = inject.run_detection(result, site, cycles=CYCLES, seed=seed)
    monkeypatch.setattr(inject, "check_flow_equivalence", real)
    return verdict, checks


def campaign_sites(result) -> list[FaultSite]:
    """Every fault site a default campaign samples on this fabric."""
    netlist = result.desync_netlist
    sites = [FaultSite(net, kind)
             for net in sample_control_nets(netlist, 4,
                                            prefixes=CONTROL_PREFIXES)
             for kind in ("stuck0", "stuck1")]
    sites += [FaultSite(net, "glitch")
              for net in sample_control_nets(netlist, 4,
                                             prefixes=GLITCH_PREFIXES)]
    return sites


def until(captures, stop: float):
    """Captures at or before ``stop``, registers with none dropped."""
    kept = {name: [c for c in caps if c.time <= stop]
            for name, caps in captures.items()}
    return {name: caps for name, caps in kept.items() if caps}


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("config", CONFIGS)
def test_watch_agrees_with_the_event_oracle(monkeypatch, config, seed):
    result = _campaign_result(config)
    for site in campaign_sites(result):
        watched, fast = detect_with(monkeypatch, "compiled", result, site,
                                    seed)
        oracle, slow = detect_with(monkeypatch, "event", result, site, seed)
        assert watched == oracle, site.label
        assert len(fast) == len(slow), site.label
        for (caps, stop, _), (oracle_caps, end, _) in zip(fast, slow):
            assert stop <= end
            assert caps == until(oracle_caps, stop), site.label


def stuck_run(result, net: str, value: int, backend: str = "compiled",
              delay_model=None, arm=None):
    """One paced run with ``net`` forced to ``value`` from t = 0."""
    stimulus = random_stimulus(result.sync_netlist, CYCLES, seed=0)
    sim = make_simulator(result.desync_netlist, backend,
                         initial_inputs=stimulus[0], delay_model=delay_model)
    if arm is None:
        sim.force_net(net, value, time=0.0)
    else:
        arm(sim)
    with pytest.raises(FlowEquivalenceError, match="stalled") as exc:
        _paced_run(sim, result, CYCLES, stimulus, _masters(result),
                   delay_model=delay_model)
    return sim, str(exc.value)


def horizon_of(result, delay_model=None) -> float:
    stretch = 1.0
    if delay_model is not None and not delay_model.is_identity:
        stretch = max(1.0, delay_model.max_factor())
    period = result.desync_cycle_time().cycle_time
    return max(1.0, period) * (CYCLES + 8) * 2 * stretch


class TestLiveStall:
    def test_pipe12x2_stops_ten_times_sooner(self):
        result = _campaign_result("pipe12x2")
        watched, error = stuck_run(result, "lt:st11", 1)
        oracle, oracle_error = stuck_run(result, "lt:st11", 1,
                                         backend="event")
        assert error == oracle_error
        assert "st11.M/b0" in error
        assert oracle.now == horizon_of(result)
        assert watched.now < oracle.now
        assert 10 * watched.n_events <= oracle.n_events

    def test_span_and_counter_name_the_verdict(self):
        result = serial_fabric("crc5")
        before = METRICS.counter("equiv.stall.periodic").value
        TRACER.start()
        try:
            stuck_run(result, "lt:crc", 1)
            stuck_run(result, "lt:crc", 0)  # wedged: no control event
        finally:
            events = TRACER.stop()
        spans = [event["args"] for event in events
                 if event["name"] == "sim:paced-run"]
        periodic, wedged = spans
        assert periodic["stall"] == "periodic"
        assert 0 < periodic["period_ps"] <= periodic["stopped_ps"]
        assert periodic["stopped_ps"] < horizon_of(result)
        assert wedged["stall"] == "horizon"
        assert "period_ps" not in wedged
        assert METRICS.counter("equiv.stall.periodic").value == before + 1


class TestWatchStaysIdle:
    """Where the periodicity argument does not hold, the run goes on to
    the horizon exactly as the oracle does."""

    def test_fractional_delays(self):
        result = serial_fabric("crc5")
        model = DelayModel.scaled(1 / 3)
        sim, error = stuck_run(result, "lt:crc", 1, delay_model=model)
        assert sim.now == horizon_of(result, model)
        assert sim.control_state(control_cone(result.desync_netlist)) \
            is None
        oracle, oracle_error = stuck_run(result, "lt:crc", 1,
                                         backend="event", delay_model=model)
        assert error == oracle_error
        assert (sim.captures, sim.n_events) == \
            (oracle.captures, oracle.n_events)

    def test_pending_glitch_release(self):
        # The pulse pins lt:crc high like the stuck-at does, and its
        # release stays pending until just before the horizon: the
        # stalled fabric's period proves nothing while it is.
        result = serial_fabric("crc5")
        horizon = horizon_of(result)

        def arm(sim):
            sim.inject_glitch("lt:crc", at=100.0,
                              duration=horizon - 1000.0, value=1)
        sim, error = stuck_run(result, "lt:crc", 1, arm=arm)
        assert sim.now == horizon
        oracle, oracle_error = stuck_run(result, "lt:crc", 1,
                                         backend="event", arm=arm)
        assert error == oracle_error
        assert (sim.captures, sim.n_events) == \
            (oracle.captures, oracle.n_events)

    def test_recovery_after_a_long_glitch(self):
        # Pinned high, lt:st0 stalls the pipeline's first stage while
        # the others keep firing; released at 8.1 ns, the fabric
        # recovers and finishes.  Periodic as it is while the release
        # is pending, this is no stall.
        result = serial_fabric("pipe4x1")
        stimulus = random_stimulus(result.sync_netlist, CYCLES, seed=0)
        outcomes = []
        for backend in ("compiled", "event"):
            sim = make_simulator(result.desync_netlist, backend,
                                 initial_inputs=stimulus[0])
            sim.inject_glitch("lt:st0", at=100.0, duration=8000.0, value=1)
            _paced_run(sim, result, CYCLES, stimulus, _masters(result))
            outcomes.append((sim.captures, sim.n_events, sim.now))
        assert outcomes[0] == outcomes[1]
        assert outcomes[0][2] > 8100.0

    def test_fabric_with_flip_flops(self):
        result = serial_fabric("crc5")
        netlist = result.desync_netlist
        data = result.desync_netlist.latch_instances()[0].data_net()
        netlist.add("DFF", name="spy", D=data, CK=netlist.nets["lt:crc"],
                    Q="spy_q")
        assert "flip-flops" in check_schedule_replayable(netlist)
        sim, _ = stuck_run(result, "lt:crc", 1)
        assert _stall_watch(sim, result) is None
        assert sim.now == horizon_of(result)


class TestControlState:
    """The key covers what the cone's future depends on."""

    def test_event_offsets(self):
        # Doubling every delay doubles every event time exactly, so the
        # two engines step through the same values, state and pending
        # events; only the pending events' spacing differs.
        result = serial_fabric("pipe4x1")
        cone = control_cone(result.desync_netlist)
        nominal = make_simulator(result.desync_netlist, "compiled")
        slow = make_simulator(result.desync_netlist, "compiled",
                              delay_model=DelayModel.scaled(2.0))
        while True:
            (key, anchor), (slow_key, slow_anchor) = \
                nominal.control_state(cone), slow.control_state(cone)
            assert slow_anchor == 2 * anchor
            assert key[:2] == slow_key[:2]
            assert [event[1:] for event in key[2]] == \
                [event[1:] for event in slow_key[2]]
            if len({event[0] for event in key[2]}) > 1:
                break
            nominal.run(anchor)
            slow.run(slow_anchor)
        assert key != slow_key

    def test_forces(self):
        # Forcing a cone net to the value it already holds changes no
        # value and schedules nothing, but the net no longer follows
        # its driver.
        result = serial_fabric("pipe4x1")
        cone = control_cone(result.desync_netlist)
        sim = make_simulator(result.desync_netlist, "compiled")
        sim.run(1000.0)
        before = sim.control_state(cone)
        sim.force_net("lt:st1", sim.value("lt:st1"))
        assert sim.control_state(cone) is None  # the force is pending
        sim.run(sim.now)
        after = sim.control_state(cone)
        assert after[1] == before[1]
        assert after[0][:3] == before[0][:3]
        assert after[0] != before[0]

    def test_cone_is_shared_with_the_replay_proof(self):
        netlist = serial_fabric("crc5").desync_netlist
        assert check_schedule_replayable(netlist) is None
        cone = control_cone(netlist)
        assert control_cone(netlist) is cone
        assert "lt:crc" in cone.nets
        enables = {latch.clock_net().name
                   for latch in netlist.latch_instances()}
        assert enables <= set(cone.nets)
        for name in cone.instances:
            for net in netlist.instances[name].input_nets():
                assert net.name in cone.nets
