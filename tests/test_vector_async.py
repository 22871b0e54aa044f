"""Schedule-replay engine: lane semantics, batched desync streams,
data-dependence fallback.

Three layers of evidence that the lane-parallel
:class:`~repro.sim.vector_async.ScheduleReplaySimulator` is safe to put
under the flow-equivalence sweeps:

* every lane of a replayed batch demuxes to exactly the capture streams
  an independent scalar event simulation of that stimulus produces, and
  lane 0 is event-for-event identical (times included) to the recording
  engine;
* the data-independence proof rejects fabrics whose control observes
  data — injected here as a data-gated request token and as a
  data-selected matched delay, both logically inert so the fallback's
  streams can be compared against the scalar reference;
* fallbacks are explicit: the batch APIs return/record the reason and
  keep verifying on the scalar engine.
"""

from __future__ import annotations

import pytest

from repro.corpus import generate
from repro.desync import DesyncOptions, desynchronize
from repro.desync.pipeline import auto_sync_banks
from repro.equiv import (
    check_flow_equivalence,
    check_flow_equivalence_batch,
    desync_streams,
    desync_streams_batch,
    replay_simulator,
)
from repro.netlist.core import Netlist
from repro.obs import METRICS
from repro.sim.vector_async import (
    ScheduleReplaySimulator,
    check_schedule_replayable,
)
from repro.testing import random_stimulus
from repro.utils.errors import SimulationError

from tests.differential import run_differential_async

CYCLES = 8
SEEDS = range(6)


def serial_desync(config: str, **options):
    return desynchronize(generate(config),
                         DesyncOptions(mode="serial", **options))


def rewire(netlist: Netlist, inst, pin: str, new_net) -> None:
    """Move ``inst.pin`` onto ``new_net`` (direct structural edit)."""
    old = inst.pins[pin]
    old.sinks.remove((inst, pin))
    inst.pins[pin] = new_net
    new_net.sinks.append((inst, pin))
    netlist.invalidate_query_caches()


def gate_request_with_data(result) -> str:
    """Make a request token observe data state — logically inert.

    The token's R input is routed through ``AND(raw, OR(q, not q))``
    with ``q`` a slave-latch output: the tautology keeps the fabric's
    behaviour (modulo a constant extra gate delay on one request line,
    which serial handshakes absorb), but the control cone now reads
    sequential data state.  Returns the data instance's name.
    """
    netlist = result.desync_netlist
    token = next(inst for name, inst in sorted(netlist.instances.items())
                 if name.startswith("tok:") and not name.startswith("tok:c"))
    slave = next(inst for name, inst in sorted(netlist.instances.items())
                 if ".S/" in name)
    q = slave.output_net()
    inverted = netlist.add_gate("INV", [q])
    tautology = netlist.add_gate("OR2", [q, inverted])
    gated = netlist.add_gate("AND2", [token.pins["R"], tautology])
    rewire(netlist, token, "R", gated)
    return slave.name


def select_delay_with_input(result) -> str:
    """Make a matched delay line data-dependent — logically inert.

    One delay-line stage is routed through ``MUX2(chain, chain, din)``:
    both data inputs carry the same net, so the line's function (and the
    fabric's behaviour, modulo one constant mux delay) is unchanged, but
    the *structure* says the matched delay varies with a primary data
    input.  Returns the selecting port name.
    """
    netlist = result.desync_netlist
    stage = next(inst for name, inst in sorted(netlist.instances.items())
                 if name.startswith("dl:") and name.endswith("/d0"))
    chain = stage.output_net()
    port = next(name for name in netlist.inputs)
    mux = netlist.add_gate("MUX2", [chain, chain, netlist.nets[port]])
    mux_inst = mux.driver_instance()
    for sink, pin in list(chain.sinks):
        if sink is not mux_inst:
            rewire(netlist, sink, pin, mux)
    return port


class TestReplayMatchesScalar:
    @pytest.mark.parametrize("config", ["pipe4x1", "counter6", "diamond2x4"])
    def test_batch_equals_per_seed_event_streams(self, config):
        result = serial_desync(config)
        stimuli = [random_stimulus(result.sync_netlist, CYCLES, seed)
                   for seed in SEEDS]
        streams, engines = desync_streams_batch(result, CYCLES, stimuli)
        assert engines == [("replay", None)] * len(stimuli)
        for stimulus, batched in zip(stimuli, streams):
            assert batched == desync_streams(result, CYCLES,
                                             inputs_per_cycle=stimulus)

    def test_blocks_wider_than_lanes(self):
        result = serial_desync("counter6")
        stimuli = [random_stimulus(result.sync_netlist, CYCLES, seed)
                   for seed in range(5)]
        streams, engines = desync_streams_batch(result, CYCLES, stimuli,
                                                lanes=2)
        assert engines == [("replay", None)] * 5
        for stimulus, batched in zip(stimuli, streams):
            assert batched == desync_streams(result, CYCLES,
                                             inputs_per_cycle=stimulus)

    def test_lane0_event_for_event_identical(self):
        """An interpreter-recorded replay returns the EventSimulator's
        captures exactly — values *and times* — and the compiled-
        recorded replay agrees with it capture-for-capture."""
        result = serial_desync("pipe4x1")
        stimuli = [random_stimulus(result.sync_netlist, CYCLES, seed)
                   for seed in range(4)]
        event = replay_simulator(result, stimuli, CYCLES, backend="event")
        recorded = event.captures  # the EventSimulator's own streams
        lane0 = event.lane_captures(0)
        for name, stream in recorded.items():
            assert [(c.time, c.value) for c in stream] == \
                [(c.time, c.value) for c in lane0[name]]
        compiled = replay_simulator(result, stimuli, CYCLES,
                                    backend="compiled")
        assert compiled.capture_times == event.capture_times
        for lane in range(4):
            assert compiled.lane_capture_values(lane) == \
                event.lane_capture_values(lane)

    def test_differential_async_over_variants(self):
        for result in (
                serial_desync("counter6", strategy="per-register"),
                serial_desync("pipe4x4",
                              sync_banks=auto_sync_banks(
                                  generate("pipe4x4"))),
                desynchronize(generate("pipe4x4"),
                              DesyncOptions(strategy="single"))):
            reports = run_differential_async(result, range(4), cycles=6)
            for seed, report in reports.items():
                assert report.ok, (seed, report.describe())
                assert report.backends == ("event", "replay")

    def test_check_batch_engines_agree(self):
        # The replay batch against one scalar event-driven check per
        # seed on the same stimulus.
        result = serial_desync("pipe4x1")
        replay = check_flow_equivalence_batch(result, SEEDS, cycles=CYCLES)
        for seed in SEEDS:
            scalar = check_flow_equivalence(
                result, cycles=CYCLES,
                inputs_per_cycle=random_stimulus(result.sync_netlist,
                                                 CYCLES, seed))
            assert replay[seed].desync_engine == "replay"
            assert replay[seed].fallback_reason is None
            assert scalar.desync_engine == "scalar"
            assert replay[seed].equivalent == scalar.equivalent is True
            assert replay[seed].divergences == scalar.divergences


class TestDataDependenceFallback:
    def test_replayable_on_clean_fabrics(self):
        for config in ("pipe4x1", "counter6"):
            result = serial_desync(config)
            assert check_schedule_replayable(result.desync_netlist) is None

    def test_proof_runs_once_per_netlist_until_a_mutation(
            self, monkeypatch):
        from repro.obs import Tracer
        from repro.sim import vector_async

        proofs = []
        real_proof = vector_async._proof

        def counting(netlist):
            proofs.append(netlist.name)
            return real_proof(netlist)

        monkeypatch.setattr(vector_async, "_proof", counting)
        tracer = Tracer()
        monkeypatch.setattr(vector_async, "_TRACER", tracer)
        result = serial_desync("pipe4x1")
        stimuli = [random_stimulus(result.sync_netlist, CYCLES, seed)
                   for seed in range(2)]
        tracer.start()
        try:
            _, engines = desync_streams_batch(result, CYCLES, stimuli)
            assert check_schedule_replayable(result.desync_netlist) is None
            events = [event for event in tracer.events()
                      if event["name"] == "replay:proof"]
        finally:
            tracer.stop()
        assert engines == [("replay", None)] * 2
        assert proofs == [result.desync_netlist.name]
        # Every call still leaves its instant, proved or memoized: the
        # batch's, the replay engine's and the direct one.
        assert len(events) == 3
        assert all(event["args"]["replayable"] for event in events)
        data_name = gate_request_with_data(result)
        reason = check_schedule_replayable(result.desync_netlist)
        assert reason is not None and data_name in reason
        assert len(proofs) == 2

    def test_sync_netlist_is_not_replayable(self):
        netlist = generate("counter6")
        reason = check_schedule_replayable(netlist)
        assert reason is not None and "latch" in reason

    def test_control_observing_data_detected_and_fallback_matches(self):
        result = serial_desync("pipe4x1")
        data_name = gate_request_with_data(result)
        reason = check_schedule_replayable(result.desync_netlist)
        assert reason is not None and data_name in reason
        with pytest.raises(SimulationError, match="not schedule-replayable"):
            ScheduleReplaySimulator(result.desync_netlist, lanes=2)
        stimuli = [random_stimulus(result.sync_netlist, CYCLES, seed)
                   for seed in range(3)]
        streams, engines = desync_streams_batch(result, CYCLES, stimuli)
        assert engines == [("scalar", reason)] * 3
        for stimulus, batched in zip(stimuli, streams):
            assert batched == desync_streams(result, CYCLES,
                                             inputs_per_cycle=stimulus)

    def test_data_dependent_delay_detected_and_still_equivalent(self):
        result = serial_desync("pipe4x1")
        port = select_delay_with_input(result)
        reason = check_schedule_replayable(result.desync_netlist)
        assert reason is not None and f"port {port!r}" in reason
        # The injected mux is logically inert, so the fallback path must
        # still verify flow equivalence — with the reason on the report.
        reports = check_flow_equivalence_batch(result, range(3),
                                               cycles=CYCLES)
        for report in reports.values():
            assert report.desync_engine == "scalar"
            assert report.fallback_reason == reason
            assert report.equivalent

    def test_lane0_divergence_falls_back_loudly(self):
        """scc-overlap on a deep pipeline genuinely violates the hold
        assumptions; the replay's lane-0 check must catch the divergence
        and the batch must fall back to (matching) scalar runs."""
        result = desynchronize(generate("pipe8x2"))
        stimuli = [random_stimulus(result.sync_netlist, 6, seed)
                   for seed in range(3)]
        streams, engines = desync_streams_batch(result, 6, stimuli)
        assert {engine for engine, _ in engines} == {"scalar"}
        assert all("diverged" in reason for _, reason in engines)
        for stimulus, batched in zip(stimuli, streams):
            assert batched == desync_streams(result, 6,
                                             inputs_per_cycle=stimulus)


class TestPackingValidation:
    def test_word_spill_rejected(self):
        result = serial_desync("pipe4x1")
        sim = ScheduleReplaySimulator(result.desync_netlist, lanes=2)
        with pytest.raises(SimulationError, match="spills"):
            sim.set_input(result.desync_netlist.inputs[0], (0b100, 0b100))

    def test_lanes_must_be_positive(self):
        result = serial_desync("counter6")
        with pytest.raises(SimulationError, match="lane count"):
            ScheduleReplaySimulator(result.desync_netlist, lanes=0)

    def test_replay_required_before_lane_reads(self):
        result = serial_desync("counter6")
        sim = ScheduleReplaySimulator(result.desync_netlist, lanes=2)
        with pytest.raises(SimulationError, match="replay"):
            sim.lane_captures(0)

    def test_lane_index_bounds_checked(self):
        result = serial_desync("pipe4x1")
        stimuli = [random_stimulus(result.sync_netlist, 4, seed)
                   for seed in range(2)]
        sim = replay_simulator(result, stimuli, 4)
        with pytest.raises(SimulationError, match="out of range"):
            sim.lane_capture_values(2)


class TestLaneWidthPolicy:
    """Replay width is a tuned parameter: lanes=None resolves through
    the policy, off-word widths replay correctly, and a wide block
    width lets tail blocks reuse the compiled segments."""

    def test_default_lanes_resolve(self):
        from repro.sim import resolve_lanes
        result = serial_desync("counter6")
        sim = ScheduleReplaySimulator(result.desync_netlist)
        assert sim.lanes == resolve_lanes(result.desync_netlist)
        assert ScheduleReplaySimulator(result.desync_netlist,
                                       lanes=72).lanes == 72

    @pytest.mark.parametrize("lanes", (1, 63, 65, 130))
    def test_off_word_width_replays(self, lanes):
        result = serial_desync("counter6")
        stimuli = [random_stimulus(result.sync_netlist, CYCLES, seed)
                   for seed in range(min(3, lanes))]
        streams, engines = desync_streams_batch(result, CYCLES, stimuli,
                                                lanes=lanes)
        assert engines == [("replay", None)] * len(stimuli)
        for stimulus, batched in zip(stimuli, streams):
            assert batched == desync_streams(result, CYCLES,
                                             inputs_per_cycle=stimulus)

    def test_explicit_lanes_reach_check_batch(self):
        result = serial_desync("pipe4x1")
        narrow = check_flow_equivalence_batch(result, SEEDS, cycles=CYCLES,
                                              lanes=2)
        wide = check_flow_equivalence_batch(result, SEEDS, cycles=CYCLES,
                                            lanes=256)
        for seed in SEEDS:
            assert narrow[seed].equivalent == wide[seed].equivalent is True
            assert narrow[seed].desync_engine == "replay"
            assert wide[seed].desync_engine == "replay"

    def test_tail_block_reuses_compiled_segments(self):
        # 5 stimuli at lanes=4: a full block and a 1-stimulus tail.
        # The tail rides the same full-width compiled segments, so the
        # second block must add cache hits, not misses.
        result = serial_desync("counter6")
        stimuli = [random_stimulus(result.sync_netlist, CYCLES, seed)
                   for seed in range(5)]
        misses = METRICS.counter("sim.vector.kernel_cache_misses")
        first, _ = desync_streams_batch(result, CYCLES, stimuli, lanes=4)
        base_misses = misses.value
        second, engines = desync_streams_batch(result, CYCLES, stimuli,
                                               lanes=4)
        assert engines == [("replay", None)] * 5
        assert second == first
        assert misses.value == base_misses
