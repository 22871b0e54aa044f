"""Flow-equivalence tests: the paper's correctness criterion, checked
observationally on the gate-level de-synchronized circuits."""

import pytest

from repro.corpus import generate
from repro.desync import DesyncOptions, HandshakeMode, desynchronize
from repro.equiv import check_flow_equivalence, desync_streams, \
    reference_streams
from repro.equiv.flow_equivalence import (_input_fed_masters, _masters,
                                          _paced_run)
from repro.netlist import Netlist
from repro.sim import make_simulator
from repro.testing import random_stimulus
from repro.timing import DelayModel
from repro.utils.errors import FlowEquivalenceError

from tests.circuits import (
    inverter_pipeline,
    lfsr3,
    mixed_feedback,
    ripple_counter,
    wide_register_exchange,
)

MODES = [HandshakeMode.OVERLAP, HandshakeMode.SERIAL]


def two_stage_pipeline() -> Netlist:
    """din -> r0 -> r1 -> q1: the smallest circuit with an inter-bank
    handshake, used by the mutation tests below."""
    netlist = Netlist("two")
    clk = netlist.add_input("clk", clock=True)
    din = netlist.add_input("din")
    q0 = netlist.add("DFF", name="r0/b", D=din, CK=clk, Q="q0").output_net()
    netlist.add("DFF", name="r1/b", D=q0, CK=clk, Q="q1")
    netlist.add_output("q1")
    return netlist


@pytest.mark.parametrize("mode", MODES, ids=lambda m: m.value)
class TestFlowEquivalence:
    def test_lfsr(self, mode):
        result = desynchronize(lfsr3(), DesyncOptions(mode=mode))
        report = check_flow_equivalence(result, cycles=40)
        assert report.equivalent, report.divergences[:3]

    def test_counter(self, mode):
        result = desynchronize(ripple_counter(4), DesyncOptions(mode=mode))
        report = check_flow_equivalence(result, cycles=40)
        assert report.equivalent, report.divergences[:3]

    def test_pipeline(self, mode):
        result = desynchronize(inverter_pipeline(4),
                               DesyncOptions(mode=mode))
        report = check_flow_equivalence(result, cycles=30,
                                        inputs={"din": 1})
        assert report.equivalent, report.divergences[:3]

    def test_mixed_feedback(self, mode):
        result = desynchronize(mixed_feedback(), DesyncOptions(mode=mode))
        report = check_flow_equivalence(result, cycles=40, inputs={"d": 1})
        assert report.equivalent, report.divergences[:3]

    def test_register_exchange(self, mode):
        result = desynchronize(wide_register_exchange(),
                               DesyncOptions(mode=mode))
        report = check_flow_equivalence(result, cycles=30)
        assert report.equivalent, report.divergences[:3]


class TestReportMechanics:
    def test_report_counts(self):
        result = desynchronize(lfsr3())
        report = check_flow_equivalence(result, cycles=10)
        assert report.cycles_compared == 10
        assert report.registers == 3

    def test_assert_ok_passes(self):
        result = desynchronize(lfsr3())
        check_flow_equivalence(result, cycles=10).assert_ok()

    def test_assert_ok_raises_on_divergence(self):
        from repro.equiv.flow_equivalence import (
            Divergence,
            FlowEquivalenceReport,
        )
        report = FlowEquivalenceReport(
            equivalent=False, cycles_compared=5, registers=1,
            divergences=[Divergence("r", 2, 1, 0)])
        with pytest.raises(FlowEquivalenceError):
            report.assert_ok()

    def test_reference_streams_shape(self):
        streams = reference_streams(lfsr3(), cycles=8)
        assert set(streams) == {"r0/b", "r1/b", "r2/b"}
        assert all(len(s) == 8 for s in streams.values())

    def test_lfsr_reference_sequence(self):
        # XNOR LFSR from 000: fb = XNOR(q1,q2).
        streams = reference_streams(lfsr3(), cycles=7)
        assert streams["r0/b"] == [1, 1, 0, 1, 0, 0, 0]

    def test_varying_inputs_per_cycle(self):
        netlist = Netlist("dpass")
        clk = netlist.add_input("clk", clock=True)
        d = netlist.add_input("d")
        netlist.add("DFF", name="r/b", D=d, CK=clk, Q="q")
        netlist.add_output("q")
        streams = reference_streams(
            netlist, cycles=4,
            inputs_per_cycle=[{"d": v} for v in (1, 0, 0, 1)])
        assert streams["r/b"] == [1, 0, 0, 1]


class TestVaryingInputs:
    """``inputs_per_cycle`` on the de-synchronized side: the self-timed
    environment presents vector k once the input-fed registers have
    consumed vector k-1."""

    def test_two_stage_tracks_sequence(self):
        result = desynchronize(two_stage_pipeline())
        cycles = 10
        sequence = [1, 0, 0, 1, 1, 1, 0, 1, 0, 0]
        ipc = [{"din": value} for value in sequence]
        report = check_flow_equivalence(result, cycles=cycles,
                                        inputs_per_cycle=ipc)
        assert report.equivalent, report.divergences[:3]
        # and the streams really do track the stimulus, shifted by rank
        streams = desync_streams(result, cycles, inputs_per_cycle=ipc)
        assert streams["r0/b"] == sequence

    @pytest.mark.parametrize("mode", MODES, ids=lambda m: m.value)
    @pytest.mark.parametrize("config", ["mult2", "crc5"])
    def test_corpus_configs_under_random_stimulus(self, config, mode):
        netlist = generate(config)
        result = desynchronize(netlist, DesyncOptions(mode=mode))
        cycles = 12
        ipc = random_stimulus(netlist, cycles, seed=99)
        report = check_flow_equivalence(result, cycles=cycles,
                                        inputs_per_cycle=ipc,
                                        backend="compiled")
        assert report.equivalent, report.divergences[:3]

    def test_constant_vectors_match_constant_inputs(self):
        result = desynchronize(inverter_pipeline(3),
                               DesyncOptions(mode=HandshakeMode.SERIAL))
        constant = desync_streams(result, 10, inputs={"din": 1})
        repeated = desync_streams(result, 10,
                                  inputs_per_cycle=[{"din": 1}] * 10)
        assert constant == repeated

    def test_short_stimulus_rejected(self):
        result = desynchronize(lfsr3())
        with pytest.raises(FlowEquivalenceError, match="4 vectors"):
            check_flow_equivalence(result, cycles=10,
                                   inputs_per_cycle=[{}] * 4)

    def test_backend_parity_on_desync_side(self):
        result = desynchronize(two_stage_pipeline())
        ipc = [{"din": k % 2} for k in range(8)]
        event = desync_streams(result, 8, inputs_per_cycle=ipc,
                               backend="event")
        compiled = desync_streams(result, 8, inputs_per_cycle=ipc,
                                  backend="compiled")
        assert event == compiled

    def test_negative_hold_margin_is_observable(self):
        """Varying stimulus detects exactly the fabrics whose gate-level
        hold margins are violated — the overlap-mode pipeline races
        transiently (a wave is overwritten before its consumer closes),
        which constant-input streams can never show."""
        netlist = generate("pipe4x1")
        cycles = 12
        ipc = random_stimulus(netlist, cycles, seed=11)
        racy = desynchronize(netlist,
                             DesyncOptions(mode=HandshakeMode.OVERLAP))
        worst = min(check.margin
                    for check in racy.verify_hold(rounds=cycles + 2))
        assert worst < 0.0  # the fabric's RT assumption really is broken
        report = check_flow_equivalence(racy, cycles=cycles,
                                        inputs_per_cycle=ipc)
        assert not report.equivalent
        # ... while the statically race-free serial fabric stays clean.
        safe = desynchronize(generate("pipe4x1"),
                             DesyncOptions(mode=HandshakeMode.SERIAL))
        assert all(check.ok
                   for check in safe.verify_hold(rounds=cycles + 2))
        check_flow_equivalence(safe, cycles=cycles,
                               inputs_per_cycle=ipc).assert_ok()


class TestMutationDetection:
    """The ``equivalent=False`` path: corrupt the de-synchronized
    netlist and the checker must name the first diverging register and
    cycle."""

    def test_corrupted_latch_init_located(self):
        result = desynchronize(two_stage_pipeline())
        # r0's slave powers up holding the wrong value; the first thing
        # r1 captures is that corrupted 1 instead of r0's init 0.
        result.desync_netlist.instances["r0.S/b"].init ^= 1
        report = check_flow_equivalence(result, cycles=10,
                                        inputs={"din": 1})
        assert not report.equivalent
        first = report.divergences[0]
        assert (first.register, first.cycle) == ("r1/b", 0)
        assert (first.sync_value, first.desync_value) == (0, 1)
        with pytest.raises(FlowEquivalenceError,
                           match=r"register r1/b, cycle 0"):
            report.assert_ok()

    def test_corrupted_controller_token_located(self):
        result = desynchronize(two_stage_pipeline())
        # A spurious request token at reset makes r1 capture early.
        result.desync_netlist.instances["tok:r0>r1/r"].init ^= 1
        report = check_flow_equivalence(result, cycles=10,
                                        inputs={"din": 1})
        assert not report.equivalent
        first = report.divergences[0]
        assert (first.register, first.cycle) == ("r1/b", 0)

    def test_bypassed_matched_delay_located(self):
        """Rewiring the token latch's request off the matched delay
        line (the canonical de-synchronization bug: a wrong matched
        delay) is invisible under constant stimulus and caught at the
        exact consumer register under a toggling one."""
        def bypass(result):
            netlist = result.desync_netlist
            token = netlist.instances["tok:r0>r1/r"]
            raw = netlist.instances["dl:r0>r1/d0"].input_nets()[0]
            delayed = token.pins["R"]
            delayed.sinks.remove((token, "R"))
            token.pins["R"] = raw
            raw.sinks.append((token, "R"))
            netlist.invalidate_query_caches()  # direct structural edit

        constant = desynchronize(two_stage_pipeline())
        bypass(constant)
        assert check_flow_equivalence(constant, cycles=10,
                                      inputs={"din": 1}).equivalent

        toggling = desynchronize(two_stage_pipeline())
        bypass(toggling)
        ipc = [{"din": k % 2} for k in range(10)]
        report = check_flow_equivalence(toggling, cycles=10,
                                        inputs_per_cycle=ipc)
        assert not report.equivalent
        first = report.divergences[0]
        assert (first.register, first.cycle) == ("r1/b", 1)


def poll_every_chunk(sim, result, cycles, inputs_per_cycle, masters,
                     delay_model=None):
    """Oracle: the paced environment loop with one ``run`` per grid
    point, idle or not — ``_paced_run`` before it skipped idle polls."""
    period = result.desync_cycle_time().cycle_time
    stretch, shrink = 1.0, 1.0
    if delay_model is not None and not delay_model.is_identity:
        stretch = max(1.0, delay_model.max_factor())
        shrink = min(1.0, max(delay_model.min_factor(), 1e-3))
    horizon = max(1.0, period) * (cycles + 8) * 2 * stretch
    feeds = []
    if inputs_per_cycle and any(vector for vector in inputs_per_cycle[1:]):
        feeds = _input_fed_masters(result.desync_netlist, masters) \
            or sorted(masters)
        max_cell_delay = max(
            cell.delay
            for cell in result.desync_netlist.library.cells.values())
        chunk = max(1.0, min(period / 8.0, max_cell_delay) * shrink)
    else:
        chunk = max(1.0, period) * 2
    next_vector = 1
    now = 0.0
    while now < horizon:
        now = min(horizon, now + chunk)
        sim.run(now)
        captures = sim.captures
        if feeds and next_vector < min(cycles, len(inputs_per_cycle)):
            if all(len(captures.get(m, [])) >= next_vector for m in feeds):
                for port, value in inputs_per_cycle[next_vector].items():
                    sim.set_input(port, value)
                next_vector += 1
        if all(len(captures.get(m, [])) >= cycles for m in masters):
            break
    captures = sim.captures
    shortfall = {m for m in masters
                 if len(captures.get(m, [])) < cycles}
    if shortfall:
        raise FlowEquivalenceError(
            f"de-synchronized circuit stalled: {sorted(shortfall)[:5]} "
            f"captured fewer than {cycles} values within {horizon:.0f} ps")


def stuck_local_clock(sim, netlist, value=0):
    sim.force_net(next(name for name in netlist.nets
                       if name.startswith("lt:") and "<env>" not in name),
                  value, time=0.0)


def stuck_open_local_clock(sim, netlist):
    stuck_local_clock(sim, netlist, value=1)


#: ``(delay model, arm)`` per case: a live fabric under a varying
#: stimulus, the same under a dilating delay model (its events spread
#: out, leaving polls idle), one wedged by a stuck-at until the stall
#: horizon, and one whose stuck-open bank stalls while the rest of the
#: fabric keeps firing.
SKIP_CASES = {
    "varying": (None, None),
    "delay-model": (DelayModel.scaled(3.0), None),
    "wedged": (None, stuck_local_clock),
    "live-stall": (None, stuck_open_local_clock),
}


class TestIdlePollSkip:
    """``_paced_run`` skips only polls that process no event: it ends
    exactly where polling every grid point does, and skips all but at
    most one of the oracle's idle polls."""

    @pytest.mark.parametrize("backend", ["event", "compiled"])
    @pytest.mark.parametrize("case", sorted(SKIP_CASES))
    def test_matches_polling_every_chunk(self, case, backend):
        result = desynchronize(generate("crc5"),
                               DesyncOptions(mode=HandshakeMode.SERIAL))
        cycles = 8
        stimulus = random_stimulus(result.sync_netlist, cycles, seed=1)
        delay_model, arm = SKIP_CASES[case]
        masters = _masters(result)
        outcomes = []
        for loop in (poll_every_chunk, _paced_run):
            sim = make_simulator(result.desync_netlist, backend,
                                 initial_inputs=stimulus[0],
                                 delay_model=delay_model)
            if arm is not None:
                arm(sim, result.desync_netlist)
            calls = []
            run = sim.run

            def counted(until, sim=sim, run=run):
                pending = sim.peek_time()
                calls.append(pending is None or pending > until)
                return run(until)
            sim.run = counted
            try:
                loop(sim, result, cycles, stimulus, masters,
                     delay_model=delay_model)
                error = None
            except FlowEquivalenceError as exc:
                error = str(exc)
            outcomes.append((dict(sim.captures), sim.n_events, sim.now,
                             error, calls))
        polled, skipped = outcomes
        assert (polled[3] is not None) == (case in ("wedged", "live-stall"))
        if case == "live-stall" and backend == "compiled":
            # The stall watch ends the run once the control state
            # repeats: same error, same captures up to the stop.
            captures, _, stop, error, _ = skipped
            assert error == polled[3] and stop < polled[2]
            assert captures == {
                name: [c for c in caps if c.time <= stop]
                for name, caps in polled[0].items()
                if caps[0].time <= stop}
            return
        assert skipped[:4] == polled[:4]
        idle = sum(polled[4])
        assert len(skipped[4]) <= len(polled[4]) - idle + 1
        assert sum(skipped[4]) <= 1
        if case != "varying":  # a live nominal fabric is never idle
            assert idle > 1 and len(skipped[4]) < len(polled[4])


class ScriptedFabric:
    """An engine stand-in whose masters capture at scripted times and
    whose inputs drive nothing; it logs every ``set_input``."""

    def __init__(self, captures):
        self.pending = sorted(captures)  # (time, master)
        self.captures = {}
        self.driven = []
        self.now = 0.0
        self.n_events = 0

    def peek_time(self):
        return self.pending[0][0] if self.pending else None

    def run(self, until):
        while self.pending and self.pending[0][0] <= until:
            time, master = self.pending.pop(0)
            self.captures.setdefault(master, []).append(time)
            self.n_events += 1
        self.now = max(self.now, until)

    def set_input(self, port, value):
        self.driven.append((self.now, port, value))


def scripted_result(period, gate):
    """The parts of a desync result the paced loop reads."""
    from types import SimpleNamespace
    memoized = {}

    def memo(key, compute):
        if key not in memoized:
            memoized[key] = compute()
        return memoized[key]
    return SimpleNamespace(
        desync_cycle_time=lambda: SimpleNamespace(cycle_time=period),
        desync_netlist=SimpleNamespace(
            instances={}, memo=memo,
            library=SimpleNamespace(cells={"g": SimpleNamespace(
                delay=gate)})))


def test_idle_skip_keeps_feed_times_on_a_scripted_fabric():
    # Polls fall every 10 ps.  Two captures land in the first poll, so
    # vector 1 (empty: the inputs hold) and vector 2 are due at
    # consecutive polls with nothing pending in between; the third
    # capture lands exactly on the grid point at 50 ps; the fourth never
    # comes, so the loop stalls at the horizon.
    result = scripted_result(period=80.0, gate=10.0)
    stimulus = [{"a": 0}, {}, {"a": 1}, {"a": 0}]
    runs = []
    for loop in (poll_every_chunk, _paced_run):
        sim = ScriptedFabric([(3.0, "m"), (4.0, "m"), (50.0, "m")])
        with pytest.raises(FlowEquivalenceError, match="stalled") as exc:
            loop(sim, result, 4, stimulus, {"m": "r"})
        runs.append((sim.driven, sim.captures, sim.now, str(exc.value)))
    assert runs[1] == runs[0]
    assert runs[0][0] == [(20.0, "a", 1), (50.0, "a", 0)]


class TestSharedWork:
    """What the checks of one fabric share: the reference streams per
    stimulus, and one engine per (engine, delay model, stimulus)."""

    def test_reference_streams_memoized_per_stimulus(self):
        netlist = generate("crc5")
        stimuli = [random_stimulus(netlist, 6, seed=seed) for seed in (0, 1)]
        first = reference_streams(netlist, 6, inputs_per_cycle=stimuli[0])
        for stream in first.values():
            stream.clear()  # the caller's lists are its own
        for stimulus in stimuli:
            assert reference_streams(netlist, 6,
                                     inputs_per_cycle=stimulus) == \
                reference_streams(generate("crc5"), 6,
                                  inputs_per_cycle=stimulus)
        assert reference_streams(netlist, 6, inputs={"din": 1}) == \
            reference_streams(generate("crc5"), 6, inputs={"din": 1})

    def test_faulted_checks_share_a_reset_engine(self):
        result = desynchronize(generate("pipe4x1"),
                               DesyncOptions(mode=HandshakeMode.SERIAL))
        stimulus = random_stimulus(result.sync_netlist, 6, seed=0)
        clean = desync_streams(result, 6, inputs_per_cycle=stimulus,
                               backend="compiled")
        engines = []

        def arm(sim):
            engines.append(sim)
            stuck_local_clock(sim, result.desync_netlist)
        for _ in range(2):
            with pytest.raises(FlowEquivalenceError, match="stalled"):
                desync_streams(result, 6, inputs_per_cycle=stimulus,
                               backend="compiled", arm=arm)
        assert engines[0] is engines[1]
        assert desync_streams(result, 6, inputs_per_cycle=stimulus,
                              backend="compiled") == clean
