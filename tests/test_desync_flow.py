"""Tests for the end-to-end de-synchronization flow and its pieces."""

import ast
import dataclasses
import os
import subprocess
import sys

import pytest

from repro.desync import (
    DesyncOptions,
    HandshakeMode,
    build_network,
    cluster_registers,
    desynchronize,
    latchify,
    master_name,
    slave_name,
    register_level_edges,
)
from repro.netlist import CellKind, Netlist
from repro.sim import CycleSimulator, LatchCycleSimulator
from repro.utils.errors import DesyncError

from tests.circuits import (
    inverter_pipeline,
    lfsr3,
    mixed_feedback,
    ripple_counter,
    wide_register_exchange,
)


class TestOptionsDigest:
    def test_digest_is_stable_and_order_independent(self):
        base = DesyncOptions(margin=0.2, strategy="single")
        # Keyword order is construction detail, not configuration.
        reordered = DesyncOptions(strategy="single", margin=0.2)
        assert base.digest() == reordered.digest()
        assert len(base.digest()) == 64
        int(base.digest(), 16)  # hex sha256

    def test_explicit_defaults_equal_implicit_defaults(self):
        implicit = DesyncOptions()
        explicit = DesyncOptions(mode=HandshakeMode.OVERLAP,
                                 strategy="scc", sync_banks=())
        assert implicit.digest() == explicit.digest()

    def test_normalized_forms_share_a_digest(self):
        # String mode and list sync_banks normalize in __post_init__,
        # so they must digest identically to the canonical forms.
        assert DesyncOptions(mode="serial").digest() == \
            DesyncOptions(mode=HandshakeMode.SERIAL).digest()
        assert DesyncOptions(sync_banks=["r0"]).digest() == \
            DesyncOptions(sync_banks=("r0",)).digest()

    def test_any_semantic_change_changes_the_digest(self):
        base = DesyncOptions()
        assert base.digest() != DesyncOptions(margin=0.11).digest()
        assert base.digest() != \
            DesyncOptions(mode=HandshakeMode.SERIAL).digest()
        assert base.digest() != \
            DesyncOptions(strategy="single").digest()
        assert base.digest() != DesyncOptions(cluster_cap=4).digest()
        assert base.digest() != \
            DesyncOptions(sync_banks=("r0",)).digest()


class TestLatchify:
    def test_replaces_every_ff_with_latch_pair(self):
        sync = lfsr3()
        latched = latchify(sync)
        assert not latched.dff_instances()
        assert len(latched.latch_instances()) == 2 * len(sync.dff_instances())

    def test_master_slave_cells(self):
        latched = latchify(lfsr3())
        master = latched.instances[master_name("r0/b")]
        slave = latched.instances[slave_name("r0/b")]
        assert master.cell.kind is CellKind.LATCH_LOW
        assert slave.cell.kind is CellKind.LATCH_HIGH
        assert slave.data_net() is master.output_net()

    def test_preserves_ports(self):
        sync = inverter_pipeline()
        latched = latchify(sync)
        assert latched.inputs == sync.inputs
        assert latched.outputs == sync.outputs
        assert latched.clock == "clk"

    def test_rejects_latch_designs(self):
        latched = latchify(lfsr3())
        with pytest.raises(DesyncError):
            latchify(latched)

    def test_rejects_unclocked(self):
        netlist = Netlist("noclk")
        a = netlist.add_input("a")
        netlist.add_gate("INV", [a], name="i")
        with pytest.raises(DesyncError):
            latchify(netlist)

    def test_latched_circuit_matches_ff_reference(self):
        """The latch-based circuit is cycle-equivalent to the FF one."""
        sync = lfsr3()
        latched = latchify(sync)
        ff_sim = CycleSimulator(sync)
        latch_sim = LatchCycleSimulator(latched)
        ff_sim.run(20)
        latch_sim.run(20)
        for ff in sync.dff_instances():
            assert (latch_sim.captures[master_name(ff.name)]
                    == ff_sim.captures[ff.name])


class TestClustering:
    def test_register_edges_found(self):
        banks, edges = register_level_edges(lfsr3())
        assert set(banks) == {"r0", "r1", "r2"}
        assert ("r0", "r1") in edges
        assert ("r2", "r0") in edges

    def test_lfsr_is_one_scc(self):
        clustering = cluster_registers(lfsr3())
        assert len(clustering.clusters) == 1
        only = next(iter(clustering.clusters.values()))
        assert sorted(only.registers) == ["r0", "r1", "r2"]
        assert only.has_self_edge

    def test_pipeline_is_all_separate(self):
        clustering = cluster_registers(inverter_pipeline(4))
        assert len(clustering.clusters) == 4
        assert len(clustering.edges) == 3
        assert not any(c.has_self_edge for c in clustering.clusters.values())

    def test_mutual_registers_merge(self):
        clustering = cluster_registers(wide_register_exchange())
        assert len(clustering.clusters) == 1

    def test_mixed_structure(self):
        clustering = cluster_registers(mixed_feedback())
        assert len(clustering.clusters) == 3
        acc = clustering.clusters[clustering.cluster_of["acc"]]
        assert acc.has_self_edge

    def test_edges_are_acyclic(self):
        import networkx as nx
        clustering = cluster_registers(mixed_feedback())
        graph = nx.DiGraph(list(clustering.edges))
        assert nx.is_directed_acyclic_graph(graph)

    def test_describe(self):
        text = cluster_registers(lfsr3()).describe()
        assert "controller domains" in text

    def test_cluster_order_ignores_the_hash_seed(self):
        # Set iteration order follows PYTHONHASHSEED; the domains must
        # come out in name order under every seed.
        code = (
            "from repro.corpus import generate\n"
            "from repro.desync import cluster_registers\n"
            "for config in ('rnd16d0', 'rnd16d1', 'diamond2x4'):\n"
            "    netlist = generate(config)\n"
            "    for strategy, cap in (('scc', None), ('greedy-cap', 2),\n"
            "                          ('greedy-cap', 4)):\n"
            "        print(list(cluster_registers(netlist, strategy,\n"
            "                                     cap).clusters))\n")
        src = os.path.join(os.path.dirname(os.path.dirname(__file__)),
                           "src")
        outputs = {
            seed: subprocess.run(
                [sys.executable, "-c", code], capture_output=True,
                text=True, check=True,
                env=dict(os.environ, PYTHONPATH=src,
                         PYTHONHASHSEED=seed)).stdout
            for seed in ("1", "2", "3")}
        assert len(set(outputs.values())) == 1
        for line in outputs["1"].splitlines():
            order = ast.literal_eval(line)
            assert order == sorted(order)


class TestFlowStructure:
    def test_clock_port_removed(self):
        result = desynchronize(lfsr3())
        assert "clk" not in result.desync_netlist.inputs
        assert result.desync_netlist.clock is None

    def test_latches_preserved(self):
        result = desynchronize(lfsr3())
        assert (len(result.desync_netlist.latch_instances())
                == 2 * len(result.sync_netlist.dff_instances()))

    def test_model_is_live_and_consistent(self):
        result = desynchronize(mixed_feedback())
        result.model.check_model()

    def test_cycle_time_positive(self):
        result = desynchronize(ripple_counter())
        assert result.desync_cycle_time().cycle_time > 0

    def test_sync_period_positive(self):
        result = desynchronize(ripple_counter())
        assert result.sync_period() > 0

    def test_overhead_summary(self):
        result = desynchronize(lfsr3())
        summary = result.overhead_summary()
        assert summary["desync_area"] > summary["sync_area"]
        assert summary["controller_area"] > 0

    def test_describe(self):
        assert "controller domains" in desynchronize(lfsr3()).describe()

    def test_matched_delay_covers_stage(self):
        result = desynchronize(mixed_feedback())
        for (pred, succ), plan in result.network.delay_plans.items():
            stage = result.stage_max[(pred, succ)]
            assert plan.achieved >= stage  # at least the raw stage delay

    def test_clock_as_data_rejected(self):
        netlist = Netlist("bad")
        clk = netlist.add_input("clk", clock=True)
        bad = netlist.add_gate("INV", [clk], name="abuse")
        netlist.add("DFF", name="r/b", D=bad, CK=clk, Q="q")
        netlist.add_output("q")
        with pytest.raises(DesyncError):
            desynchronize(netlist)

    def test_serial_mode_builds(self):
        result = desynchronize(lfsr3(),
                               DesyncOptions(mode=HandshakeMode.SERIAL))
        assert result.network.mode is HandshakeMode.SERIAL
        result.model.check_model()

    def test_spec_model_builds(self):
        spec = desynchronize(inverter_pipeline(3)).spec_model()
        spec.check_model()
        # One signal per latch bank: two per register.
        assert len(spec.signals()) == 6


class TestHoldVerification:
    def test_serial_mode_has_positive_margins(self):
        result = desynchronize(inverter_pipeline(4),
                               DesyncOptions(mode=HandshakeMode.SERIAL))
        checks = result.verify_hold()
        assert checks
        assert all(check.ok for check in checks)

    def test_fabric_measurement_runs(self):
        result = desynchronize(mixed_feedback())
        checks = result.verify_hold(use_model=False)
        assert len(checks) == len(result.clustering.edges)


class TestPerformanceShape:
    def test_overlap_faster_than_serial_on_pipelines(self):
        pipeline = inverter_pipeline(5)
        overlap = desynchronize(pipeline,
                                DesyncOptions(mode=HandshakeMode.OVERLAP))
        serial = desynchronize(inverter_pipeline(5),
                               DesyncOptions(mode=HandshakeMode.SERIAL))
        assert (overlap.desync_cycle_time().cycle_time
                < serial.desync_cycle_time().cycle_time)

    def test_overlap_period_does_not_scale_with_depth(self):
        shallow = desynchronize(inverter_pipeline(3))
        deep = desynchronize(inverter_pipeline(8))
        ratio = (deep.desync_cycle_time().cycle_time
                 / shallow.desync_cycle_time().cycle_time)
        assert ratio < 1.5


class TestBuildNetworkErrors:
    """``build_network`` refuses what no fabric can be built from, on
    every call: a failed copy plan is not memoized."""

    def test_flip_flop_left(self):
        netlist = inverter_pipeline(2)
        for _ in range(2):
            with pytest.raises(DesyncError, match="still contains flip-flop"):
                build_network(netlist, cluster_registers(netlist), {})

    def test_register_missing_from_the_clustering(self):
        netlist = inverter_pipeline(2)
        clustering = cluster_registers(netlist)
        latched = latchify(netlist)
        partial = dataclasses.replace(clustering, cluster_of={})
        for _ in range(2):
            with pytest.raises(DesyncError,
                               match="missing from the clustering"):
                build_network(latched, partial, {})

    def test_combinational_clock_read(self):
        netlist = inverter_pipeline(2)
        netlist.add_gate("INV", [netlist.clock], name="ckinv")
        latched = latchify(netlist)
        for _ in range(2):
            with pytest.raises(DesyncError, match="reads the clock"):
                build_network(latched, cluster_registers(netlist), {})
