"""Parameterized synthetic circuit generators.

Each generator returns a validated synchronous flip-flop
:class:`~repro.netlist.core.Netlist` over the generic cell library, with
a ``clk`` clock input and registers grouped into ``bank/bit`` named
banks (the controller granularity of the de-synchronization flow).  The
family spans the structural shapes the flow's performance depends on:

* :func:`linear_pipeline` — acyclic bank chains (depth, width and
  per-stage logic depth are free);
* :func:`counter` — a single self-feeding bank with a carry chain;
* :func:`lfsr` / :func:`crc` — register rings (one strongly-connected
  cluster, the degenerate single-domain case);
* :func:`fir_filter` — a delay line converging into one accumulator
  bank (many-predecessor joins);
* :func:`array_multiplier` — two input banks feeding one product bank
  through deep combinational logic (matched-delay stress);
* :func:`fork_join` — unbalanced reconvergent branches (the diamond
  every dataflow-style workload reduces to);
* :func:`random_netlist` — seeded random register networks (arbitrary
  bank graphs: the shapes nobody hand-picks);
* :func:`dlx_datapath` — the DLX core round-tripped through the
  structural-Verilog frontend (the one non-synthetic registry citizen).

The named configurations the benchmarks sweep live in
:mod:`repro.corpus.registry`.
"""

from __future__ import annotations

import random

from repro.netlist.core import Net, Netlist


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ValueError(message)


def linear_pipeline(depth: int = 4, width: int = 1, logic_depth: int = 1,
                    name: str = "pipe") -> Netlist:
    """Linear pipeline: ``depth`` register stages, ``width`` bits each.

    Between consecutive stages every bit passes through ``logic_depth``
    gates; for multi-bit pipelines bit 0 is inverted and every higher
    bit XOR-mixes with the bit below it, so the bits stay functionally
    distinct while each stage depends on its whole predecessor.  The
    single-bit/single-gate case is the classic inverter pipeline used
    throughout the test suite.
    """
    _require(depth >= 1, "pipeline depth must be >= 1")
    _require(width >= 1, "pipeline width must be >= 1")
    _require(logic_depth >= 1, "pipeline logic depth must be >= 1")
    netlist = Netlist(name)
    clk = netlist.add_input("clk", clock=True)
    if width == 1:
        previous = [netlist.add_input("din")]
    else:
        previous = [netlist.add_input(f"din[{j}]") for j in range(width)]
    for i in range(depth):
        stage_in: list[Net] = []
        for j in range(width):
            signal = previous[j]
            for k in range(logic_depth):
                if width > 1 and k == 0 and j > 0:
                    signal = netlist.add_gate(
                        "XOR2", [signal, previous[j - 1]],
                        name=f"s{i}_x{j}")
                elif width == 1 and logic_depth == 1:
                    signal = netlist.add_gate("INV", [signal],
                                              name=f"s{i}_inv")
                else:
                    signal = netlist.add_gate("INV", [signal],
                                              name=f"s{i}_inv{j}_{k}")
            stage_in.append(signal)
        stage_out: list[Net] = []
        for j in range(width):
            reg_name = f"st{i}/b" if width == 1 else f"st{i}/b{j}"
            q_name = f"p{i}" if width == 1 else f"p{i}[{j}]"
            inst = netlist.add("DFF", name=reg_name, D=stage_in[j], CK=clk,
                               Q=q_name)
            stage_out.append(inst.output_net())
        previous = stage_out
    if width == 1:
        netlist.add_output(previous[0].name)
    else:
        for net in previous:
            netlist.add_output(net.name)
    netlist.validate()
    return netlist


def counter(bits: int = 4, name: str = "counter") -> Netlist:
    """Synchronous binary counter: one register bank with a carry chain."""
    _require(bits >= 2, "counter needs >= 2 bits")
    netlist = Netlist(name)
    clk = netlist.add_input("clk", clock=True)
    outputs = [netlist.net(f"q[{i}]") for i in range(bits)]
    carry = None
    for i in range(bits):
        if i == 0:
            next_bit = netlist.add_gate("INV", [outputs[0]], name=f"inv{i}")
            carry = outputs[0]
        else:
            next_bit = netlist.add_gate("XOR2", [outputs[i], carry],
                                        name=f"x{i}")
            if i < bits - 1:
                carry = netlist.add_gate("AND2", [carry, outputs[i]],
                                         name=f"c{i}")
        netlist.add("DFF", name=f"cnt/b{i}", D=next_bit, CK=clk, Q=outputs[i])
    netlist.add_output(outputs[-1].name)
    netlist.validate()
    return netlist


def lfsr(bits: int = 8, taps: tuple[int, ...] | None = None,
         name: str = "lfsr") -> Netlist:
    """``bits``-stage XNOR LFSR (self-starting from the all-zero state).

    ``taps`` are the stage outputs folded into the feedback; the default
    taps the last two stages.  The register ring is one strongly
    connected component, so the flow degenerates to a single self-timed
    domain — the honest limit for tightly-coupled state machines.
    """
    _require(bits >= 2, "lfsr needs >= 2 bits")
    taps = tuple(taps) if taps is not None else (bits - 2, bits - 1)
    _require(len(taps) >= 2, "lfsr feedback needs >= 2 taps")
    _require(all(0 <= t < bits for t in taps), "lfsr tap out of range")
    _require(len(set(taps)) == len(taps), "duplicate lfsr tap")
    netlist = Netlist(name)
    clk = netlist.add_input("clk", clock=True)
    stages = [netlist.net(f"q{i}") for i in range(bits)]
    feedback = netlist.add_gate("XNOR2", [stages[taps[0]], stages[taps[1]]],
                                name="fb")
    for k, tap in enumerate(taps[2:], start=1):
        feedback = netlist.add_gate("XNOR2", [feedback, stages[tap]],
                                    name=f"fb{k}")
    for i in range(bits):
        netlist.add("DFF", name=f"r{i}/b",
                    D=feedback if i == 0 else stages[i - 1],
                    CK=clk, Q=stages[i])
    netlist.add_output(stages[-1].name)
    netlist.validate()
    return netlist


def crc(width: int = 8, poly: int = 0x07, name: str = "crc") -> Netlist:
    """Serial CRC register: one bit of the message stream per cycle.

    ``poly`` gives the feedback taps (bit ``i`` set means the feedback
    is XORed into stage ``i``; the implicit leading term feeds stage 0).
    All stages share the ``crc`` bank — one controller domain holding
    the whole ring.
    """
    _require(width >= 2, "crc needs >= 2 bits")
    _require(poly & ((1 << width) - 1) != 0,
             "crc polynomial has no taps within the register width")
    netlist = Netlist(name)
    clk = netlist.add_input("clk", clock=True)
    din = netlist.add_input("din")
    stages = [netlist.net(f"c[{i}]") for i in range(width)]
    feedback = netlist.add_gate("XOR2", [din, stages[-1]], name="fb")
    for i in range(width):
        if i == 0:
            data: Net = feedback
        elif (poly >> i) & 1:
            data = netlist.add_gate("XOR2", [stages[i - 1], feedback],
                                    name=f"px{i}")
        else:
            data = stages[i - 1]
        netlist.add("DFF", name=f"crc/b{i}", D=data, CK=clk, Q=stages[i])
    netlist.add_output(stages[-1].name)
    netlist.validate()
    return netlist


def fir_filter(taps: int = 5, coeffs: int | None = None,
               name: str = "fir") -> Netlist:
    """Bit-serial FIR over GF(2) (a correlator): delay line + XOR sum.

    ``coeffs`` is a bit mask selecting which taps enter the sum (bit
    ``i`` selects delay ``i``); the default uses every tap.  Every tap
    register is its own bank, all converging on the ``acc`` bank — the
    many-predecessor join shape.
    """
    _require(taps >= 2, "fir needs >= 2 taps")
    mask = coeffs if coeffs is not None else (1 << taps) - 1
    _require(0 < mask < (1 << taps),
             "fir coefficient mask must select taps within range")
    netlist = Netlist(name)
    clk = netlist.add_input("clk", clock=True)
    previous = netlist.add_input("din")
    line: list[Net] = []
    for i in range(taps):
        inst = netlist.add("DFF", name=f"tap{i}/b", D=previous, CK=clk,
                           Q=f"t{i}")
        previous = inst.output_net()
        line.append(previous)
    selected = [line[i] for i in range(taps) if (mask >> i) & 1]
    total = selected[0]
    for k, term in enumerate(selected[1:]):
        total = netlist.add_gate("XOR2", [total, term], name=f"sum{k}")
    if len(selected) == 1:
        total = netlist.add_gate("BUF", [total], name="sum0")
    netlist.add("DFF", name="acc/b", D=total, CK=clk, Q="y")
    netlist.add_output("y")
    netlist.validate()
    return netlist


def _full_adder(netlist: Netlist, a: Net, b: Net, cin: Net | None,
                tag: str) -> tuple[Net, Net]:
    """Gate-level (sum, carry) of ``a + b + cin``."""
    partial = netlist.add_gate("XOR2", [a, b], name=f"{tag}_s1")
    if cin is None:
        return partial, netlist.add_gate("AND2", [a, b], name=f"{tag}_c")
    total = netlist.add_gate("XOR2", [partial, cin], name=f"{tag}_s")
    gen = netlist.add_gate("AND2", [a, b], name=f"{tag}_g")
    prop = netlist.add_gate("AND2", [partial, cin], name=f"{tag}_p")
    return total, netlist.add_gate("OR2", [gen, prop], name=f"{tag}_c")


def array_multiplier(width: int = 4, name: str = "mult") -> Netlist:
    """Registered ``width x width`` array multiplier.

    Input banks ``ra``/``rb`` capture the operands; a schoolbook array
    of partial products and ripple adders produces the ``2*width``-bit
    product captured by the ``prod`` bank.  The combinational depth
    grows with ``width``, stressing matched-delay generation.
    """
    _require(width >= 2, "multiplier width must be >= 2")
    netlist = Netlist(name)
    clk = netlist.add_input("clk", clock=True)
    a_ports = [netlist.add_input(f"a[{i}]") for i in range(width)]
    b_ports = [netlist.add_input(f"b[{i}]") for i in range(width)]
    a = [netlist.add("DFF", name=f"ra/b{i}", D=a_ports[i], CK=clk,
                     Q=f"ar[{i}]").output_net() for i in range(width)]
    b = [netlist.add("DFF", name=f"rb/b{i}", D=b_ports[i], CK=clk,
                     Q=f"br[{i}]").output_net() for i in range(width)]

    def pp(i: int, j: int) -> Net:
        return netlist.add_gate("AND2", [a[i], b[j]], name=f"pp{i}_{j}")

    # Accumulate partial-product rows with ripple-carry adders; acc[k]
    # holds bit k of the running sum (None where no term exists yet).
    acc: list[Net | None] = [pp(k, 0) for k in range(width)]
    acc += [None] * width
    for j in range(1, width):
        carry: Net | None = None
        for i in range(width):
            k = i + j
            addend = pp(i, j)
            existing = acc[k]
            if existing is None and carry is None:
                acc[k] = addend
                continue
            if existing is None:
                total, carry = _full_adder(netlist, addend, carry, None,
                                           f"fa{j}_{i}")
            else:
                total, carry = _full_adder(netlist, existing, addend, carry,
                                           f"fa{j}_{i}")
            acc[k] = total
        acc[width + j] = carry
    for k in range(2 * width):
        bit = acc[k]
        assert bit is not None
        netlist.add("DFF", name=f"prod/b{k}", D=bit, CK=clk, Q=f"p[{k}]")
        netlist.add_output(f"p[{k}]")
    netlist.validate()
    return netlist


def fork_join(depth_a: int = 2, depth_b: int = 4,
              name: str = "diamond") -> Netlist:
    """Fork/join dataflow diamond with unbalanced branches.

    A source bank fans out into two register pipelines of different
    depths that reconverge through an XOR into a sink bank — the shape
    where de-synchronization's elasticity (branches advancing at their
    own rate until the join) shows up.
    """
    _require(depth_a >= 1 and depth_b >= 1, "branch depths must be >= 1")
    netlist = Netlist(name)
    clk = netlist.add_input("clk", clock=True)
    din = netlist.add_input("din")
    source = netlist.add("DFF", name="src/b", D=din, CK=clk,
                         Q="s").output_net()

    def branch(tag: str, depth: int) -> Net:
        previous = source
        for i in range(depth):
            logic = netlist.add_gate("INV", [previous], name=f"{tag}{i}_inv")
            inst = netlist.add("DFF", name=f"br{tag}{i}/b", D=logic, CK=clk,
                               Q=f"{tag}v{i}")
            previous = inst.output_net()
        return previous

    left = branch("a", depth_a)
    right = branch("b", depth_b)
    joined = netlist.add_gate("XOR2", [left, right], name="join")
    netlist.add("DFF", name="sink/b", D=joined, CK=clk, Q="y")
    netlist.add_output("y")
    netlist.validate()
    return netlist


#: Two-input cells :func:`random_netlist` draws from (all the generic
#: library's symmetric binary gates, so the logic stays input-order
#: agnostic in spirit while exercising every truth table).
_RANDOM_CELLS = ("AND2", "OR2", "XOR2", "NAND2", "NOR2", "XNOR2")


def random_netlist(registers: int = 12, inputs: int = 2,
                   gates: int | None = None, seed: int = 0,
                   name: str = "rnd") -> Netlist:
    """Seeded random register network: arbitrary bank graphs.

    ``registers`` single-bit banks (``r<i>/b``) whose D inputs are
    random two-input gate cones over primary inputs and register
    outputs.  Gate inputs only reference *earlier* gate outputs, so the
    combinational logic is acyclic by construction while the
    register-to-register graph (self-loops, cycles, joins, free-running
    sources) is whatever the seed draws — the shapes the hand-written
    families never produce.  Identical parameters always yield an
    identical netlist: the generator is a pure function of its
    arguments.
    """
    _require(registers >= 2, "random netlist needs >= 2 registers")
    _require(inputs >= 1, "random netlist needs >= 1 input")
    n_gates = gates if gates is not None else 3 * registers
    _require(n_gates >= max(registers, inputs),
             "random netlist needs >= max(registers, inputs) gates "
             "(every register and input must connect)")
    rng = random.Random(seed)
    netlist = Netlist(name)
    clk = netlist.add_input("clk", clock=True)
    ports = [netlist.add_input(f"in{i}") for i in range(inputs)]
    state = [netlist.net(f"q{i}") for i in range(registers)]
    pool: list[Net] = ports + state
    cones: list[Net] = []
    for g in range(n_gates):
        # The first gates pin down connectivity: every primary input is
        # consumed at least once; after that, sources are free draws.
        first = ports[g] if g < len(ports) else rng.choice(pool)
        second = rng.choice(pool)
        out = netlist.add_gate(rng.choice(_RANDOM_CELLS), [first, second],
                               name=f"g{g}")
        pool.append(out)
        cones.append(out)
    for i in range(registers):
        netlist.add("DFF", name=f"r{i}/b", D=rng.choice(cones), CK=clk,
                    Q=state[i])
    netlist.add_output(state[-1].name)
    netlist.validate()
    return netlist


def dlx_datapath(width: int = 16, n_registers: int = 8,
                 name: str = "dlx") -> Netlist:
    """The DLX core as a corpus citizen, via the Verilog frontend.

    Builds the gate-level DLX datapath (:func:`repro.dlx.cpu.build_dlx`),
    serializes it with the structural-Verilog writer and re-reads it
    with the reader — so the registry entry exercises the same path an
    external design would take into the flow, and the returned netlist
    carries the reader's provenance (annotations, clock inference)
    rather than the RTL builder's object graph.
    """
    _require(width >= 16, "dlx datapath width must be >= 16")
    _require(n_registers >= 4 and n_registers & (n_registers - 1) == 0,
             "dlx register count must be a power of two >= 4")
    from repro.dlx.cpu import DlxConfig, build_dlx
    from repro.verilog.reader import read_verilog
    from repro.verilog.writer import netlist_to_verilog

    core = build_dlx(DlxConfig(width=width, n_registers=n_registers,
                               name=name))
    source = netlist_to_verilog(core.netlist)
    # Free the RTL scaffold by reference counting before the reader
    # builds the netlist that replaces it.
    core.netlist.release()
    del core
    netlist = read_verilog(source)
    netlist.validate()
    return netlist
