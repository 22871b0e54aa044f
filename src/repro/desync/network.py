"""Controller-network construction: the de-synchronized netlist.

Takes the latch-based synchronous netlist and replaces the global clock
with the clustered handshake fabric (see
:mod:`repro.desync.clustering` for why clustering is the granularity a
software-verified flow can guarantee):

* the master/slave latches are kept **exactly as latchify produced
  them** (``LATCH_L`` masters, ``LATCH_H`` slaves) — their enable simply
  moves from the global clock to their cluster's local clock ``lt:B``,
  which is the paper's core claim ("the only modification is the clock
  tree");
* every cluster edge gets a **matched delay line** (request) plus a
  **request token latch** (REQC) that holds "new data arrived" until the
  consumer's pulse retires it — making multi-predecessor joins
  insensitive to pulse overlap;
* every inter-cluster edge gets an **acknowledge token cell** (ACKC)
  that re-arms the producer only after the consumer's same-index
  capture — the strict no-overwrite ordering, giving a static hold
  margin of the full acknowledge path instead of a relative-timing
  assumption.  In SERIAL mode the cell's set condition is **gated on
  the request token's retirement and a per-edge launch latch**
  (``S = tok:p>s OR fired:p>s``): the cell arms when the consumer's
  pulse has retired the producer's request token and the producer has
  not launched since.  ``fired`` is a REQC set by the producer's own
  pulse and cleared only when the edge's request token re-sets, so it
  holds the set gate closed through every window a level signal would
  leak: retirement is a once-per-capture event, and between a launch
  and its request's maturation (producer pulse done, token still
  retired) the latch keeps the acknowledge down.  Two earlier SERIAL
  fabrics lost exactly these races.  Arming on the latch levels alone
  (``S = NOT lt:s``) re-arms off the *tail* of a wide-join consumer
  pulse once the pulse (which widens with C-tree depth) outlives the
  producer's fire/clear/idle round-trip — first seen on fir8's
  nine-way accumulator join.  Gating on the consumer's pulse level
  instead (``S = tok OR NOT lt:s``) closes that hole but opens a
  skew window: the set gate's closing edge trails the pulse's fall by
  an INV + OR2 delay, so a producer whose own pulse ends inside that
  lag — the last leftover leaf of an unbalanced join C-tree, which
  launches earliest after reset — re-arms a second time off the same
  capture (first seen on fir10's ten-way join, where the tenth token
  enters the C-tree at the root).  The launch latch closes both by
  construction: every blocking condition is held by a state element
  across the vulnerable windows, independent of pulse-width and
  gate-delay arithmetic.  OVERLAP mode keeps the level-sensitive set
  and starts the cell marked (the model's initial ``af`` token, one
  launch of slack), with pacing tokens plus hold verification
  guarding its races;
* each controller is a C-element tree over its request tokens, rooted in
  a reset-dominant asymmetric C-element (AC2) so acknowledge tokens gate
  only the rising edge (falls drain as requests return to zero);
* clusters with internal combinational feedback get a matched
  **self-request** loop; clusters with no predecessors at all free-run
  through an inverted self-loop (the local ring-oscillator clocking of
  the paper's reference [5]).

Local clock semantics: ``lt:B`` rising = B's masters capture and its
slaves launch; falling = slaves capture and masters reopen — one
synchronous edge pair, generated asynchronously.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

from repro.desync.clustering import Clustering
from repro.netlist.cells import (
    CellKind,
    Library,
    PIN_D,
    PIN_ENABLE,
    PIN_RESET_N,
)
from repro.netlist.core import Net, Netlist
from repro.timing.delays import (
    DEFAULT_MARGIN,
    DelayPlan,
    insert_delay_line,
    matched_delay_target,
    plan_delay_line,
)
from repro.utils.errors import DesyncError
from repro.utils.naming import (
    ack_net_name,
    clock_net_name,
    inverted_clock_name,
    request_net_name,
    token_net_name,
)

# Buffers in a source cluster's free-running self-loop.
SELF_LOOP_BUFFERS = 2

#: Name of the virtual environment domain the SERIAL fabric builds for
#: primary data inputs (angle brackets keep it disjoint from register
#: names).  The synchronous environment is just another producer in the
#: paper's model; without its tokens, two input-fed domains that share
#: no fabric edge can drift arbitrarily far apart, and no single input
#: wire can then hold the right vector for both (first seen on the
#: random-netlist corpus, where inputs fan out to several domains).
ENV_BANK = "<env>"

# Extra pacing slack of the overlap mode, ps (see HandshakeMode).
DEFAULT_HOLD_SLACK = 600.0


class HandshakeMode(enum.Enum):
    """Acknowledge discipline of the fabric.

    SERIAL: a producer's k-th launch waits for its consumers' k-th
        captures.  Statically race-free (the corruption of a capture
        trails it by the full acknowledge path), but rises cascade
        backward through the pipeline every cycle, so the period grows
        with the handshake depth — the behaviour the paper's overlapping
        protocol exists to avoid.

    OVERLAP: the paper's discipline — a producer may relaunch once its
        consumers captured the *previous* item (the marked ``af`` arc),
        so all stages work concurrently and the period tracks the worst
        single stage.  Correctness relies on the relative-timing (hold)
        conditions the paper's flow discharges with timing signoff; the
        fabric guards them with per-edge self-pacing (a producer never
        gets more than one launch ahead of its own slowest request,
        stretched by :data:`DEFAULT_HOLD_SLACK`) and
        :func:`repro.desync.flow.verify_hold` checks the realized
        margins on the timed model.
    """

    SERIAL = "serial"
    OVERLAP = "overlap"


@dataclass
class ControllerReport:
    """Materialized controller facts for area/power accounting."""

    bank: str
    n_inputs: int
    n_celements: int
    latency: float  # request-to-clock response in ps
    area: float


@dataclass
class DesyncNetwork:
    """The materialized de-synchronized circuit plus bookkeeping."""

    netlist: Netlist
    clustering: Clustering
    mode: HandshakeMode = HandshakeMode.OVERLAP
    controllers: dict[str, ControllerReport] = field(default_factory=dict)
    delay_plans: dict[tuple[str, str], DelayPlan] = field(default_factory=dict)

    @property
    def controller_area(self) -> float:
        return sum(report.area for report in self.controllers.values())

    @property
    def delay_line_area(self) -> float:
        return sum(plan.area for plan in self.delay_plans.values())

    def request_delay(self, pred: str, succ: str) -> float:
        """Request-path delay (line + output buffer + token latch), ps."""
        library = self.netlist.library
        return (self.delay_plans[(pred, succ)].achieved
                + library["BUF"].delay + library["REQC"].delay)

    def pacing_delay(self, pred: str, succ: str) -> float:
        """Overlap-mode self-pacing delay of an edge, in ps."""
        library = self.netlist.library
        return (self.delay_plans[(pred, succ)].achieved
                + DEFAULT_HOLD_SLACK + library["REQC"].delay)

    def ack_delay(self) -> float:
        """Acknowledge-path delay (consumer capture to producer arm), ps.

        OVERLAP: local-clock inverter plus the ACKC token cell.  SERIAL:
        the arm waits for the request token's retirement (REQC), then
        the set gate (OR2) and the token cell.
        """
        library = self.netlist.library
        if self.mode is HandshakeMode.SERIAL:
            return (library["REQC"].delay + library["OR2"].delay
                    + library["ACKC"].delay)
        return library["INV"].delay + library["ACKC"].delay


def build_network(latched: Netlist, clustering: Clustering,
                  stage_max: dict[tuple[str, str], float],
                  margin: float = DEFAULT_MARGIN,
                  mode: HandshakeMode = HandshakeMode.OVERLAP,
                  name: str | None = None,
                  env_stage: dict[str, float] | None = None,
                  ) -> DesyncNetwork:
    """Build the de-synchronized netlist.

    Args:
        latched: output of :func:`repro.desync.latchify.latchify`.
        clustering: SCC clustering of the *synchronous* register graph.
        stage_max: cluster-level worst stage delays (ps), including
            self-pairs for clusters with internal feedback.
        margin: matched-delay guard band.
        mode: acknowledge discipline (see :class:`HandshakeMode`).
        name: name of the produced netlist.
        env_stage: worst primary-input-to-register stage delay (ps) per
            input-fed cluster.  In SERIAL mode a non-empty map adds the
            :data:`ENV_BANK` source domain — request tokens from a
            free-running environment controller gate every input-fed
            bank, so no domain can sample a primary input before the
            environment presented the matching vector.  Ignored in
            OVERLAP mode, whose environment assumption stays a
            relative-timing obligation like its other hold conditions.
    """
    if latched.clock is None:
        raise DesyncError(f"{latched.name} has no clock to remove")
    clock_port = latched.clock
    library = latched.library
    result = Netlist(name if name is not None else f"{latched.name}_desync",
                     library)
    result.clock = None
    for port in latched.inputs:
        if port == clock_port:
            continue
        result.add_input(port)

    # The datapath is copied unchanged except each latch's enable net,
    # which moves to its cluster's clock.  Every fabric of a latched
    # netlist shares one copy plan; only the enables differ.
    registers, clk_to_q = latched.memo("desync-datapath",
                                       lambda: _datapath_plan(latched))
    cluster_of = clustering.cluster_of

    def copies():
        for inst, register in zip(latched.instances.values(), registers,
                                  strict=True):
            pins = inst.pins
            if register is None:
                yield inst.name, inst.cell, inst.init, [
                    (pin, net.name) for pin, net in pins.items()]
                continue
            bank = cluster_of.get(register)
            if bank is None:
                raise DesyncError(
                    f"latch {inst.name}: register {register} missing from "
                    "the clustering")
            output = inst.cell.output
            bound = [(PIN_D, pins[PIN_D].name),
                     (PIN_ENABLE, clock_net_name(bank)),
                     (output, pins[output].name)]
            if PIN_RESET_N in inst.cell.inputs:
                bound.append((PIN_RESET_N, pins[PIN_RESET_N].name))
            yield inst.name, inst.cell, inst.init, bound
    result.add_copies(copies())

    network = DesyncNetwork(netlist=result, clustering=clustering, mode=mode)
    banks = clustering.clusters

    # Edge fabric, per edge (self edges included):
    #   * an asymmetric matched line — a buffer chain ANDed with its own
    #     input, so the request rises after the matched delay but
    #     retracts immediately (return-to-zero does not serialize falls);
    #   * a request token latch (REQC) holding "new data arrived";
    #   * in overlap mode, a pacing token tapped DEFAULT_HOLD_SLACK further
    #     down the chain, fed back to the *producer* so it never runs
    #     more than one launch ahead of its slowest request;
    #   * an acknowledge token cell per inter-cluster edge (marked
    #     initially in overlap mode — the model's ``af`` token).
    all_edges = set(clustering.edges)
    for bank in banks.values():
        if bank.has_self_edge:
            all_edges.add((bank.name, bank.name))
    tie_inst = result.add("TIE1", name="ctl:tie1")
    tie_high = result.new_net("ctl:one")
    result.connect(tie_inst, "Q", tie_high)
    pacing_tokens: dict[str, list[Net]] = {bank: [] for bank in banks}
    for pred, succ in sorted(all_edges):
        stage = stage_max.get((pred, succ))
        if stage is None:
            raise DesyncError(f"no stage delay for edge {pred} -> {succ}")
        target = matched_delay_target(stage, clk_to_q, margin)
        plan = plan_delay_line(target, library,
                               context=f"stage {pred}->{succ}")
        source = result.net(clock_net_name(pred))
        chain = insert_delay_line(result, source, f"dl:{pred}>{succ}", plan)
        if chain is source:
            chain = result.add_gate("BUF", [source],
                                    name=f"dl:{pred}>{succ}/d0")
            plan = DelayPlan(target=plan.target, n_cells=1,
                             achieved=library["BUF"].delay,
                             area=library["BUF"].area)
        raw = result.add_gate("BUF", [chain],
                              output=result.net(
                                  request_net_name(pred, succ)),
                              name=f"dl:{pred}>{succ}/out")
        network.delay_plans[(pred, succ)] = plan
        result.add("REQC", name=f"tok:{pred}>{succ}/r", init=1,
                   R=raw, G=result.net(clock_net_name(succ)),
                   Q=result.net(token_net_name(pred, succ)))
        if mode is HandshakeMode.OVERLAP:
            pace_plan = plan_delay_line(
                DEFAULT_HOLD_SLACK, library,
                context=f"pacing {pred}->{succ}")
            pace_chain = insert_delay_line(result, chain,
                                           f"pc:{pred}>{succ}", pace_plan)
            pace_token = result.add(
                "REQC", name=f"pace:{pred}>{succ}/r", init=1,
                R=pace_chain, G=source,
                Q=result.new_net(f"pace:{pred}>{succ}"))
            pacing_tokens[pred].append(pace_token.output_net())
        if pred != succ:
            # ack(pred -> succ): arms once per consumer capture; clears
            # dominantly on the producer's own pulse (P = 1 with R tied
            # high) — the token is consumed by the launch itself.
            if mode is HandshakeMode.SERIAL:
                # Serial arming (S = tok OR fired, so the set condition
                # P = 0 & S = 0 reads "this edge's token was retired AND
                # the producer has not launched since AND it is idle").
                # Retirement happens exactly once per consumer capture,
                # and the fired latch — set by the producer's pulse,
                # cleared only when the request token re-sets — holds
                # the gate closed from the launch until a fresh request
                # matured, so neither the tail of a wide-join consumer
                # pulse nor the skew of the set gate's own closing edge
                # can re-arm the producer twice off one capture (see the
                # module docstring for both failure shapes).  Starts
                # unmarked: producers wait for the consumers' capture of
                # the reset wave.
                fired = result.add(
                    "REQC", name=f"ack:{pred}>{succ}/fired", init=0,
                    R=result.net(clock_net_name(pred)),
                    G=result.net(token_net_name(pred, succ)),
                    Q=result.new_net(f"fired:{pred}>{succ}"))
                set_gate = result.add_gate(
                    "OR2",
                    [result.net(token_net_name(pred, succ)),
                     fired.output_net()],
                    name=f"ack:{pred}>{succ}/set")
                result.add("ACKC", name=f"ack:{pred}>{succ}/c", init=0,
                           P=result.net(clock_net_name(pred)),
                           R=tie_high,
                           S=set_gate,
                           Q=result.net(ack_net_name(pred, succ)))
            else:
                # Overlap keeps the level-sensitive set (S = NOT lt:succ
                # alone) and starts marked: every consumer has
                # conceptually captured the reset wave already (the
                # model's initial ``af`` token, one launch of slack).
                inverted = result.nets.get(inverted_clock_name(succ))
                if inverted is None:
                    inverted = result.add_gate(
                        "INV", [result.net(clock_net_name(succ))],
                        output=result.net(inverted_clock_name(succ)),
                        name=f"ctl:{succ}/ltinv")
                result.add("ACKC", name=f"ack:{pred}>{succ}/c", init=1,
                           P=result.net(clock_net_name(pred)),
                           R=tie_high,
                           S=inverted,
                           Q=result.net(ack_net_name(pred, succ)))

    # Environment source domain (SERIAL mode, input-fed designs only).
    # The paper treats the synchronous environment as one more producer;
    # without its tokens, two input-fed banks that share no fabric edge
    # can drift more than one capture apart, and a single input wire
    # cannot then hold the right vector for both.  Each input-fed bank
    # gets a full producer edge from the virtual ``lt:<env>`` clock — a
    # matched delay line covering the worst input-to-D cone, a request
    # token, and the same fired-latch serial acknowledge as any register
    # edge.  The environment controller below free-runs gated by the
    # C-tree of those acknowledges, so it also never outruns its slowest
    # consumer.
    env_requests: dict[str, list[Net]] = {bank: [] for bank in banks}
    env_acks: list[Net] = []
    if mode is HandshakeMode.SERIAL and env_stage:
        env_clock = result.net(clock_net_name(ENV_BANK))
        for succ in sorted(env_stage):
            if succ not in banks:
                continue
            target = matched_delay_target(env_stage[succ], 0.0, margin)
            plan = plan_delay_line(
                target, library,
                context=f"env stage {ENV_BANK}->{succ}")
            chain = insert_delay_line(result, env_clock,
                                      f"dl:{ENV_BANK}>{succ}", plan)
            if chain is env_clock:
                chain = result.add_gate("BUF", [env_clock],
                                        name=f"dl:{ENV_BANK}>{succ}/d0")
                plan = DelayPlan(target=plan.target, n_cells=1,
                                 achieved=library["BUF"].delay,
                                 area=library["BUF"].area)
            result.add_gate(
                "BUF", [chain],
                output=result.net(request_net_name(ENV_BANK, succ)),
                name=f"dl:{ENV_BANK}>{succ}/out")
            network.delay_plans[(ENV_BANK, succ)] = plan
            token = result.add(
                "REQC", name=f"tok:{ENV_BANK}>{succ}/r", init=1,
                R=result.net(request_net_name(ENV_BANK, succ)),
                G=result.net(clock_net_name(succ)),
                Q=result.net(token_net_name(ENV_BANK, succ)))
            env_requests[succ].append(token.output_net())
            fired = result.add(
                "REQC", name=f"ack:{ENV_BANK}>{succ}/fired", init=0,
                R=env_clock, G=token.output_net(),
                Q=result.new_net(f"fired:{ENV_BANK}>{succ}"))
            set_gate = result.add_gate(
                "OR2", [token.output_net(), fired.output_net()],
                name=f"ack:{ENV_BANK}>{succ}/set")
            ack = result.add("ACKC", name=f"ack:{ENV_BANK}>{succ}/c",
                             init=0, P=env_clock, R=tie_high, S=set_gate,
                             Q=result.net(ack_net_name(ENV_BANK, succ)))
            env_acks.append(ack.output_net())

    # Controllers.
    for bank_name in sorted(banks):
        network.controllers[bank_name] = _build_controller(
            result, bank_name, clustering, banks[bank_name].has_self_edge,
            tie_high, pacing_tokens[bank_name],
            extra_requests=env_requests[bank_name])
    if env_acks:
        network.controllers[ENV_BANK] = _build_controller(
            result, ENV_BANK, clustering, False, tie_high, [],
            extra_acks=env_acks, self_timed=True)

    for port in latched.outputs:
        result.add_output(port)
    result.validate()
    return network


def _datapath_plan(latched: Netlist) -> tuple[tuple[str | None, ...],
                                              float]:
    """What every fabric built from ``latched`` needs of its datapath.

    The register of each instance, in insertion order (``None`` for
    anything but a latch), and the worst latch clock-to-Q delay.  Latch
    instance names are ``<register>.M/<leaf>`` / ``<register>.S/<leaf>``
    (see latchify), so the owning register is the name up to the phase
    suffix.  Raises for what no clustering can fix: a flip-flop left
    over, or a gate reading the clock.
    """
    clock_port = latched.clock
    registers: list[str | None] = []
    clk_to_q = 0.0
    for inst in latched.instances.values():
        if inst.is_sequential:
            if inst.cell.kind is CellKind.DFF:
                raise DesyncError(
                    f"{latched.name} still contains flip-flop {inst.name}")
            clk_to_q = max(clk_to_q, inst.cell.delay)
            registers.append(_register_of_latch(inst.name))
            continue
        for pin, net in inst.pins.items():
            if net.name == clock_port and pin in inst.cell.inputs:
                raise DesyncError(
                    f"{inst.name} reads the clock combinationally; "
                    "de-synchronization requires a clean clock network")
        registers.append(None)
    return tuple(registers), clk_to_q


def _register_of_latch(latch_name: str) -> str:
    """Recover the register name from a latchify latch instance name."""
    head = latch_name.rsplit("/", 1)[0]
    for suffix in (".M", ".S"):
        if head.endswith(suffix):
            return head[: -len(suffix)]
    raise DesyncError(f"latch {latch_name} does not follow the "
                      "latchify naming convention")


def _build_controller(netlist: Netlist, bank: str, clustering: Clustering,
                      has_self_edge: bool, tie_high: Net,
                      pacing: list[Net],
                      extra_requests: list[Net] | None = None,
                      extra_acks: list[Net] | None = None,
                      self_timed: bool = False,
                      ) -> ControllerReport:
    """Materialize one cluster controller.

    ``lt:B = AC2( Ctree(request tokens), Ctree(ack tokens) )``; a bank
    without successors gets the acknowledge input tied high.  The root
    is always a state element initialized low, so the reset fixpoint has
    every local clock at 0 (masters transparent, the synchronous reset
    state).  ``extra_requests`` and ``extra_acks`` carry tokens for
    edges outside the clustering — today only the :data:`ENV_BANK`
    environment edges of the serial fabric.

    ``self_timed`` is the request discipline of a bank with *no*
    request tokens and *many* acknowledges (the environment source
    domain): its request input is the acknowledge-tree root itself, so
    a launch strictly requires every consumer's fresh acknowledge.  A
    free-running ring would race the tree instead — the ring re-arms in
    a fixed handful of gate delays while the all-low wave of a deep ack
    tree takes ``depth x C3`` to reach the root, and once the tree is
    deeper than the ring the controller double-launches off one stale
    acknowledge round (the exact class of delay-arithmetic race the
    fired latch removes from the edge cells).  Single-ack sources keep
    the ring: their "tree" is one ACKC, which always clears faster than
    the ring re-arms.
    """
    library = netlist.library
    prefix = f"ctl:{bank}"
    clock = netlist.net(clock_net_name(bank))
    requests: list[Net] = []
    for pred in clustering.predecessors(bank):
        requests.append(netlist.net(token_net_name(pred, bank)))
    if has_self_edge:
        requests.append(netlist.net(token_net_name(bank, bank)))
    requests.extend(extra_requests or [])
    requests.extend(pacing)
    n_buffers = 0
    if not requests and not self_timed:
        # Free-running source: inverted self-loop through a short chain.
        inverted = netlist.nets.get(inverted_clock_name(bank))
        if inverted is None:
            inverted = netlist.add_gate("INV", [clock],
                                        output=netlist.net(
                                            inverted_clock_name(bank)),
                                        name=f"{prefix}/ltinv")
        loop = inverted
        for index in range(SELF_LOOP_BUFFERS):
            loop = netlist.add_gate("BUF", [loop],
                                    name=f"{prefix}/selfbuf{index}")
            n_buffers += 1
        requests.append(loop)
    acks = [netlist.net(ack_net_name(bank, succ))
            for succ in clustering.successors(bank)]
    acks.extend(extra_acks or [])

    n_celements = 0
    if acks:
        ack_root, count = _ctree(netlist, f"{prefix}/ak", acks, initial=0)
        n_celements += count
    else:
        ack_root = tie_high
    if requests:
        req_root, count = _ctree(netlist, f"{prefix}/rq", requests,
                                 initial=1)
        n_celements += count
    else:
        if not acks:
            raise DesyncError(f"{prefix}: self-timed controller needs "
                              "acknowledges")
        req_root = ack_root
    netlist.add("AC2", name=f"{prefix}/root", init=0,
                R=req_root, A=ack_root, Q=clock)
    n_celements += 1
    latency = (library["C3"].delay * max(1, _tree_depth(len(requests)))
               + library["AC2"].delay)
    area = (n_celements * library["C3"].area
            + n_buffers * library["BUF"].area)
    return ControllerReport(bank=bank,
                            n_inputs=len(requests) + len(acks),
                            n_celements=n_celements,
                            latency=latency, area=area)


def _tree_depth(n_leaves: int) -> int:
    return 1 if n_leaves <= 3 else math.ceil(math.log(max(2, n_leaves), 3))


def controller_latency(n_inputs: int, library: Library) -> float:
    """Worst-case response latency of a C-element bank controller, ps.

    A C3 tree over ``n_inputs`` plus the acknowledge path (inverter and
    C2 token cell) that sequences consecutive handshake phases — the
    per-controller delay of the related-work baseline models.
    """
    return (_tree_depth(n_inputs) * library["C3"].delay
            + library["INV"].delay + library["C2"].delay)


def _ctree(netlist: Netlist, prefix: str, inputs: list[Net],
           initial: int) -> tuple[Net, int]:
    """C2/C3 reduction tree; returns (root net, element count)."""
    if not inputs:
        raise DesyncError(f"{prefix}: empty C-element tree")
    count = 0
    level = 0
    current = list(inputs)
    while len(current) > 1:
        next_level: list[Net] = []
        for group_index in range(0, len(current), 3):
            group = current[group_index:group_index + 3]
            if len(group) == 1:
                next_level.append(group[0])
                continue
            cell_name = "C3" if len(group) == 3 else "C2"
            cell = netlist.library[cell_name]
            connections: dict[str, Net] = dict(zip(cell.inputs, group))
            connections[cell.output] = netlist.new_net(
                f"{prefix}/t{level}_{group_index // 3}")
            inst = netlist.add(cell, name=f"{prefix}/c{level}_{group_index // 3}",
                               init=initial, **connections)
            count += 1
            next_level.append(inst.output_net())
        current = next_level
        level += 1
    return current[0], count
