"""Tests for the lane-parallel code-generated cycle engines.

Three layers of evidence that the vector engines implement exactly the
scalar cycle semantics:

* **cell-level** — every library cell evaluated over *all* ternary input
  combinations, one combination per lane, against
  :meth:`Cell.eval_ternary` (this is the contract the code generator
  must honour, including the generic possibility-set path used by
  MUX2/AOI21/OAI21);
* **netlist-level** — lane demux equals N independent scalar runs over
  the full corpus registry;
* **harness-level** — the batched differential and flow-equivalence
  APIs agree with their scalar counterparts and still catch injected
  faults.
"""

import itertools

import pytest

from repro.corpus import generate, names
from repro.desync import DesyncOptions, HandshakeMode, desynchronize
from repro.desync.latchify import latchify
from repro.equiv import (
    check_flow_equivalence,
    check_flow_equivalence_batch,
    reference_streams,
    reference_streams_batch,
)
from repro.netlist.cells import GENERIC, CellKind
from repro.netlist.core import Netlist
from repro.sim import (
    CycleSimulator,
    VectorCycleSimulator,
    pack_lanes,
    pack_stimuli,
    unpack_lanes,
)
from repro.testing import random_stimulus
from repro.utils.errors import SimulationError

from tests.differential import (
    RUNNERS,
    run_differential,
    run_differential_batch,
)

COMB_CELLS = [cell for cell in GENERIC.cells.values()
              if cell.kind is CellKind.COMB]

#: The lane-parallel engines, as parameters so every test id names the
#: engine it ran on.
WORD_SIMS = [VectorCycleSimulator]


class TestPacking:
    def test_roundtrip(self):
        values = [1, 0, None, 1, None, 0, 1]
        assert unpack_lanes(pack_lanes(values), len(values)) == values

    def test_known_invariant(self):
        value, known = pack_lanes([None, 1, 0])
        assert value & ~known == 0
        assert value == 0b010 and known == 0b110

    def test_pack_stimuli_lane_major(self):
        packed = pack_stimuli([[{"a": 1}, {"a": 0}],
                               [{"a": 0}, {"a": None}]])
        assert packed == [{"a": (0b01, 0b11)}, {"a": (0b00, 0b01)}]

    def test_pack_stimuli_rejects_ragged(self):
        with pytest.raises(SimulationError, match="differing lengths"):
            pack_stimuli([[{"a": 1}], [{"a": 1}, {"a": 0}]])

    def test_pack_stimuli_rejects_mismatched_ports(self):
        with pytest.raises(SimulationError, match="different ports"):
            pack_stimuli([[{"a": 1}], [{"b": 1}]])


class TestCellLaneSemantics:
    """Per-lane X propagation must match eval_ternary on every cell."""

    @pytest.mark.parametrize("sim_cls", WORD_SIMS,
                             ids=lambda c: c.__name__)
    @pytest.mark.parametrize("cell", COMB_CELLS, ids=lambda c: c.name)
    def test_all_ternary_combinations(self, cell, sim_cls):
        netlist = Netlist("t")
        for j in range(cell.n_inputs):
            netlist.add_input(f"i{j}")
        out = netlist.add_gate(cell.name,
                               [f"i{j}" for j in range(cell.n_inputs)],
                               name="g")
        netlist.add_output(out.name)
        combos = list(itertools.product((0, 1, None),
                                        repeat=cell.n_inputs))
        sim = sim_cls(netlist, lanes=len(combos))
        for j in range(cell.n_inputs):
            sim.drive_lanes(f"i{j}", [combo[j] for combo in combos])
        sim.evaluate()
        got = unpack_lanes(sim.packed_value(out.name), len(combos))
        assert got == [cell.eval_ternary(list(combo)) for combo in combos]

    @pytest.mark.parametrize("tie", ["TIE0", "TIE1"])
    def test_tie_cells(self, tie):
        netlist = Netlist("t")
        out = netlist.add_gate(tie, [], name="g")
        netlist.add_output(out.name)
        sim = VectorCycleSimulator(netlist, lanes=3)
        sim.evaluate()
        expected = GENERIC[tie].tt & 1
        assert unpack_lanes(sim.packed_value(out.name), 3) == [expected] * 3

    def test_undriven_inputs_stay_x(self):
        netlist = Netlist("t")
        netlist.add_input("a")
        netlist.add_input("b")
        out = netlist.add_gate("AND2", ["a", "b"], name="g")
        sim = VectorCycleSimulator(netlist, lanes=2)
        sim.drive_lanes("a", [0, 1])  # b undriven: X in every lane
        sim.evaluate()
        assert unpack_lanes(sim.packed_value(out.name), 2) == [0, None]


class TestCorpusLaneDemux:
    """Lane demux == N independent scalar runs, whole registry."""

    SEEDS = (11, 22, 33, 44)
    CYCLES = 12

    @pytest.mark.parametrize("config", names())
    def test_matches_independent_cycle_runs(self, config):
        netlist = generate(config)
        stimuli = [random_stimulus(netlist, self.CYCLES, seed)
                   for seed in self.SEEDS]
        vector = VectorCycleSimulator(netlist, lanes=len(stimuli))
        vector.run(self.CYCLES, pack_stimuli(stimuli))
        for lane, stimulus in enumerate(stimuli):
            scalar = CycleSimulator(netlist)
            scalar.run(self.CYCLES, stimulus)
            assert vector.lane_captures(lane) == {
                name: list(stream)
                for name, stream in scalar.captures.items()}
            for ff in netlist.dff_instances():
                net = ff.output_net().name
                assert vector.lane_value(net, lane) == scalar.values[net]

    def test_batched_reference_streams(self):
        netlist = generate("lfsr8")
        stimuli = [random_stimulus(netlist, 10, seed) for seed in (1, 2, 3)]
        batched = reference_streams_batch(netlist, 10, stimuli)
        scalar = [reference_streams(netlist, 10, inputs_per_cycle=stimulus)
                  for stimulus in stimuli]
        assert batched == scalar


class TestBatchedDifferential:
    def test_sweep_whole_registry(self):
        # The CI batched differential sweep: every corpus configuration,
        # pinned seeds, vector lanes against the scalar cycle engine.
        for config in names():
            reports = run_differential_batch(generate(config),
                                             seeds=range(1, 9), cycles=12)
            assert len(reports) == 8
            for report in reports.values():
                assert report.ok, f"{config}: {report.describe()}"
                assert report.backends == ("cycle", "vector")

    def test_vector_plugs_into_scalar_harness(self):
        report = run_differential(generate("crc5"), cycles=12,
                                  backends=("cycle", "event", "vector"))
        assert report.ok, report.describe()
        assert sorted(RUNNERS) == ["compiled", "cycle", "event", "vector"]

    def test_fault_localized_and_minimized(self):
        # Corrupt one backend's stream: the batch API must locate the
        # seed and fall back to prefix minimization.
        def corrupted(netlist, stimulus):
            run = RUNNERS["cycle"](netlist, stimulus)
            register = sorted(run.captures)[0]
            if len(run.captures[register]) > 3:
                run.captures[register][3] ^= 1
            return run

        reports = run_differential_batch(
            generate("lfsr8"), seeds=(1, 2), cycles=10,
            backends=("bad",), runners={"bad": corrupted})
        for report in reports.values():
            assert not report.ok
            assert report.minimized_cycles == 4
            first = report.mismatches[0]
            assert first.kind == "captures" and first.cycle == 3

    def test_lane_dependent_divergence_not_masked(self):
        # A divergence the single-lane minimization rerun cannot
        # reproduce must stay reported.  Simulated by corrupting the
        # scalar backend and overriding the fallback's "vector" runner
        # with the same corruption: the batched lanes disagree with the
        # scalar run, the single-lane rerun agrees with it.
        def corrupted(netlist, stimulus):
            run = RUNNERS["cycle"](netlist, stimulus)
            register = sorted(run.captures)[0]
            if run.captures[register]:
                run.captures[register][0] ^= 1
            return run

        reports = run_differential_batch(
            generate("lfsr8"), seeds=(1,), cycles=8,
            backends=("bad",),
            runners={"bad": corrupted, "vector": corrupted})
        report = reports[1]
        assert not report.ok  # the batched mismatches survive
        assert report.minimized_cycles is None  # no prefix available

    def test_needs_a_scalar_backend(self):
        from repro.utils.errors import DifferentialError
        with pytest.raises(DifferentialError, match=">= 1 scalar backend"):
            run_differential_batch(generate("crc5"), seeds=(1,),
                                   backends=())

    def test_duplicate_seeds_rejected(self):
        from repro.utils.errors import DifferentialError
        with pytest.raises(DifferentialError, match="duplicate seeds"):
            run_differential_batch(generate("crc5"), seeds=(1, 1, 2))


class TestBatchedFlowEquivalence:
    def test_race_free_fabrics_stay_equivalent(self):
        result = desynchronize(generate("mult2"))
        reports = check_flow_equivalence_batch(result, seeds=(1, 2, 3),
                                               cycles=10,
                                               backend="compiled")
        assert list(reports) == [1, 2, 3]
        assert all(report.equivalent for report in reports.values())

    def test_duplicate_seeds_rejected(self):
        from repro.utils.errors import FlowEquivalenceError
        result = desynchronize(generate("mult2"))
        with pytest.raises(FlowEquivalenceError, match="duplicate seeds"):
            check_flow_equivalence_batch(result, seeds=(1, 1))

    def test_matches_scalar_check_per_seed(self):
        # Same fabric, same seed: the batched report must agree with the
        # scalar check on equivalence and on the located divergences —
        # pipe4x1 under OVERLAP genuinely races under varying stimulus.
        result = desynchronize(generate("pipe4x1"),
                               DesyncOptions(mode=HandshakeMode.OVERLAP))
        seed, cycles = 1, 10
        batched = check_flow_equivalence_batch(result, seeds=(seed,),
                                               cycles=cycles,
                                               backend="compiled")[seed]
        scalar = check_flow_equivalence(
            result, cycles=cycles, backend="compiled",
            inputs_per_cycle=random_stimulus(result.sync_netlist, cycles,
                                             seed))
        assert batched.equivalent == scalar.equivalent
        assert batched.divergences == scalar.divergences


class TestRegistry:
    def test_kernel_cache_hits_across_equal_netlists(self):
        from repro.obs import METRICS
        hits = METRICS.counter("sim.vector.kernel_cache_hits")
        misses = METRICS.counter("sim.vector.kernel_cache_misses")
        base_hits, base_misses = hits.value, misses.value
        # An unusual width keeps this (fingerprint, lanes) pair out of
        # every other test's cache traffic.
        VectorCycleSimulator(generate("counter6"), lanes=41)
        assert misses.value == base_misses + 1
        assert hits.value == base_hits
        # A fresh Netlist object with the same fingerprint must hit.
        VectorCycleSimulator(generate("counter6"), lanes=41)
        assert hits.value == base_hits + 1

    def test_dff_engine_rejects_latches(self):
        with pytest.raises(SimulationError,
                           match="use LatchCycleSimulator"):
            VectorCycleSimulator(latchify(generate("lfsr8")), 1)

    def test_bad_lane_count(self):
        with pytest.raises(SimulationError, match="lane count"):
            VectorCycleSimulator(generate("lfsr8"), lanes=0)

    def test_packed_input_validation(self):
        netlist = generate("crc5")
        sim = VectorCycleSimulator(netlist, lanes=2)
        with pytest.raises(SimulationError, match="spills outside"):
            sim.set_inputs({"din": (0b100, 0b111)})
        with pytest.raises(SimulationError, match="value bits in"):
            sim.set_inputs({"din": (0b11, 0b01)})
        with pytest.raises(SimulationError, match="not an input port"):
            sim.set_inputs({"nonexistent": 1})


class TestLaneWidths:
    """A batch's width is its stimulus count: demux identity must hold
    at any lane count — below, at, and past the 64-bit machine word."""

    WIDTHS = (1, 63, 64, 65, 256, 1024)
    CYCLES = 8

    @pytest.mark.parametrize("sim_cls", WORD_SIMS,
                             ids=lambda c: c.__name__)
    @pytest.mark.parametrize("width", WIDTHS)
    def test_demux_identity_at_width(self, width, sim_cls):
        netlist = generate("crc5")
        n = min(4, width)  # occupied lanes; the rest stay X
        stimuli = [random_stimulus(netlist, self.CYCLES, 100 + i)
                   for i in range(n)]
        sim = sim_cls(netlist, lanes=width)
        sim.run(self.CYCLES, pack_stimuli(stimuli))
        for lane, stimulus in enumerate(stimuli):
            scalar = CycleSimulator(netlist)
            scalar.run(self.CYCLES, stimulus)
            assert sim.lane_captures(lane) == {
                name: list(stream)
                for name, stream in scalar.captures.items()}, (width, lane)

    @pytest.mark.parametrize("width", (63, 65, 1024))
    def test_pack_unpack_roundtrip_off_word(self, width):
        values = [(1, 0, None)[i % 3] for i in range(width)]
        assert unpack_lanes(pack_lanes(values), width) == values

    @pytest.mark.parametrize("sim_cls", WORD_SIMS,
                             ids=lambda c: c.__name__)
    def test_spill_validation_off_word(self, sim_cls):
        # At lanes=65 the top lane lives in the second machine word:
        # bit 64 is legal, bit 65 spills.
        sim = sim_cls(generate("crc5"), lanes=65)
        sim.set_inputs({"din": (1 << 64, 1 << 64)})
        assert sim.lane_value("din", 64) == 1
        with pytest.raises(SimulationError, match="spills outside"):
            sim.set_inputs({"din": (0, 1 << 65)})

