"""Quickstart: de-synchronize a small synchronous circuit.

Builds a 4-bit synchronous counter, runs the automatic
de-synchronization flow, verifies flow equivalence by gate-level
simulation, and prints the analyses — the whole library in thirty lines.

Run:  python examples/quickstart.py
"""

from repro.desync import desynchronize
from repro.equiv import check_flow_equivalence
from repro.netlist import Netlist


def build_counter(bits: int = 4) -> Netlist:
    """A synchronous binary counter (FF + combinational increment)."""
    netlist = Netlist("counter")
    clk = netlist.add_input("clk", clock=True)
    outputs = [netlist.net(f"q[{i}]") for i in range(bits)]
    carry = None
    for i in range(bits):
        if i == 0:
            next_bit = netlist.add_gate("INV", [outputs[0]], name="inv0")
            carry = outputs[0]
        else:
            next_bit = netlist.add_gate("XOR2", [outputs[i], carry],
                                        name=f"x{i}")
            if i < bits - 1:
                carry = netlist.add_gate("AND2", [carry, outputs[i]],
                                         name=f"c{i}")
        netlist.add("DFF", name=f"cnt/b{i}", D=next_bit, CK=clk,
                    Q=outputs[i])
    netlist.add_output(outputs[-1].name)
    netlist.validate()
    return netlist


def main() -> None:
    sync = build_counter()
    print(f"synchronous design: {len(sync)} instances, "
          f"{len(sync.dff_instances())} flip-flops")

    # The paper's flow: latchify, matched delays, handshake controllers
    # — run as the staged pass pipeline (repro.desync.pipeline).
    result = desynchronize(sync)
    print()
    print(result.describe())
    print()
    print("pass pipeline:")
    for record in result.records:
        print(f"  {record.describe()}")

    # The model the controllers implement (Figure 2 of the paper).
    print()
    print(f"model: {len(result.model.transitions)} transitions, "
          f"live={result.model.is_live()}")

    # Flow equivalence: every register stores the same value sequence.
    report = check_flow_equivalence(result, cycles=32)
    report.assert_ok()
    print(f"flow equivalence over {report.cycles_compared} cycles "
          f"across {report.registers} registers: OK")


if __name__ == "__main__":
    main()
