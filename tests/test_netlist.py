"""Tests for the netlist core: construction, validation, traversal."""

import pytest

from repro.netlist import (
    CellKind,
    GENERIC,
    Netlist,
    clone,
    collect_stats,
    iter_register_banks,
)
from repro.utils.errors import NetlistError


def small_circuit() -> Netlist:
    """clk-driven: out = DFF(a NAND b)."""
    n = Netlist("small")
    a = n.add_input("a")
    b = n.add_input("b")
    clk = n.add_input("clk", clock=True)
    nand = n.add_gate("NAND2", [a, b], name="g1")
    n.add("DFF", name="r0", D=nand, CK=clk, Q="q")
    n.add_output("q")
    return n


class TestConstruction:
    def test_build_and_validate(self):
        n = small_circuit()
        n.validate()
        assert len(n) == 2
        assert n.clock == "clk"

    def test_duplicate_input(self):
        n = Netlist("t")
        n.add_input("a")
        with pytest.raises(NetlistError):
            n.add_input("a")

    def test_duplicate_output(self):
        n = Netlist("t")
        n.add_input("a")
        n.add_output("a")  # feedthrough port is fine once
        with pytest.raises(NetlistError):
            n.add_output("a")

    def test_double_driver_rejected(self):
        n = Netlist("t")
        a = n.add_input("a")
        y = n.add_gate("INV", [a], name="i0")
        with pytest.raises(NetlistError):
            n.add_gate("INV", [a], output=y, name="i1")

    def test_driving_input_port_rejected(self):
        n = Netlist("t")
        a = n.add_input("a")
        with pytest.raises(NetlistError):
            n.add_gate("INV", [a], output=a)

    def test_unknown_pin(self):
        n = Netlist("t")
        n.add_input("a")
        with pytest.raises(NetlistError):
            n.add("INV", name="i0", Z="a")

    def test_wrong_arity(self):
        n = Netlist("t")
        a = n.add_input("a")
        with pytest.raises(NetlistError):
            n.add_gate("NAND2", [a])

    def test_duplicate_instance_name(self):
        n = Netlist("t")
        a = n.add_input("a")
        n.add_gate("INV", [a], name="i0")
        with pytest.raises(NetlistError):
            n.add_gate("INV", [a], name="i0")

    def test_unconnected_pin_fails_validation(self):
        n = Netlist("t")
        n.add("INV", name="i0", A=n.add_input("a"))
        with pytest.raises(NetlistError):
            n.validate()

    def test_undriven_net_with_sinks_fails(self):
        n = Netlist("t")
        n.add("INV", name="i0", A=n.net("floating"), Q=n.net("y"))
        with pytest.raises(NetlistError):
            n.validate()

    def test_new_net_unique(self):
        n = Netlist("t")
        first = n.new_net("w")
        second = n.new_net("w")
        assert first.name != second.name


class TestTopology:
    def test_topo_order_respects_dependencies(self):
        n = Netlist("t")
        a = n.add_input("a")
        x = n.add_gate("INV", [a], name="g_first")
        y = n.add_gate("INV", [x], name="g_second")
        n.add_gate("AND2", [x, y], name="g_third")
        order = [inst.name for inst in n.topo_order()]
        assert order.index("g_first") < order.index("g_second")
        assert order.index("g_second") < order.index("g_third")

    def test_combinational_cycle_detected(self):
        n = Netlist("t")
        loop = n.net("loop")
        n.add("INV", name="i0", A=loop, Q="mid")
        n.add("INV", name="i1", A="mid", Q=loop)
        with pytest.raises(NetlistError, match="cycle"):
            n.topo_order()

    def test_sequential_breaks_cycle(self):
        n = Netlist("t")
        clk = n.add_input("clk", clock=True)
        q = n.net("q")
        inv = n.add_gate("INV", [q], name="i0")
        n.add("DFF", name="r0", D=inv, CK=clk, Q=q)
        n.validate()  # no combinational cycle: DFF breaks it

    def test_fanin_cone(self):
        n = small_circuit()
        cone = n.fanin_cone(n.instances["r0"].data_net())
        assert cone == {"g1"}

    def test_fanout_counts_output_port(self):
        n = small_circuit()
        assert n.nets["q"].fanout == 1  # output port only


class TestQueriesAndClone:
    def test_kind_queries(self):
        n = small_circuit()
        assert len(n.comb_instances()) == 1
        assert len(n.dff_instances()) == 1
        assert not n.latch_instances()

    def test_total_area(self):
        n = small_circuit()
        expected = GENERIC["NAND2"].area + GENERIC["DFF"].area
        assert n.total_area() == pytest.approx(expected)

    def test_clone_is_deep(self):
        n = small_circuit()
        copy = clone(n)
        copy.validate()
        assert copy.instances.keys() == n.instances.keys()
        assert copy.nets.keys() == n.nets.keys()
        assert copy.instances["r0"] is not n.instances["r0"]
        assert copy.clock == "clk"
        assert copy.outputs == ["q"]

    def test_clone_keeps_the_construction_order(self):
        from repro.corpus import generate
        netlist = generate("fir8")
        assert clone(netlist).fingerprint() == netlist.fingerprint()

    def test_add_copies_checks_names_and_drivers(self):
        n = small_circuit()
        inv = GENERIC["INV"]
        with pytest.raises(NetlistError, match="duplicate instance name"):
            n.add_copies([("g1", inv, 0, [("A", "a"), (inv.output, "x")])])
        with pytest.raises(NetlistError, match="cannot also be driven"):
            n.add_copies([("g2", inv, 0, [("A", "a"), (inv.output, "q")])])
        with pytest.raises(NetlistError, match="cannot also be driven"):
            n.add_copies([("g3", inv, 0, [("A", "q"), (inv.output, "b")])])

    def test_clone_preserves_init(self):
        n = Netlist("t")
        clk = n.add_input("clk", clock=True)
        n.add("DFF", name="r0", init=1, D=n.add_input("d"), CK=clk, Q="q")
        assert clone(n).instances["r0"].init == 1

    def test_counts_by_kind(self):
        counts = small_circuit().counts_by_kind()
        assert counts[CellKind.COMB] == 1
        assert counts[CellKind.DFF] == 1


class TestRegisterBanks:
    def test_grouping_by_prefix(self):
        n = Netlist("t")
        clk = n.add_input("clk", clock=True)
        d = n.add_input("d")
        for i in range(4):
            n.add("DFF", name=f"pc/bit[{i}]", D=d, CK=clk, Q=f"pc_q[{i}]")
        n.add("DFF", name="lone", D=d, CK=clk, Q="lone_q")
        banks = dict(iter_register_banks(n))
        assert set(banks) == {"pc", "lone"}
        assert len(banks["pc"]) == 4
        assert len(banks["lone"]) == 1


class TestStatsAndDot:
    def test_stats(self):
        stats = collect_stats(small_circuit())
        assert stats.n_comb == 1
        assert stats.n_dff == 1
        assert stats.total_area == pytest.approx(
            stats.comb_area + stats.seq_area)
        assert stats.cell_histogram == {"NAND2": 1, "DFF": 1}
        assert "small" in stats.describe()
