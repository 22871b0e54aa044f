"""Static timing analysis over combinational logic between latch banks.

The de-synchronization flow needs, for every adjacent bank pair
``(pred, succ)``, the worst-case (and, for the relative-timing check, the
best-case) combinational delay from a predecessor latch output to a
successor latch data input.  The worst case sizes the matched delay line;
the best case bounds the hold-style assumption that the handshake
response is faster than the shortest data path.

The analysis is levelized: one forward longest/shortest-path pass per
source bank, restricted to that bank's combinational fanout cone and
visited in the netlist's topological order (a heap of topological
positions), so each source costs its cone rather than the whole netlist.

Delay model: fixed pin-to-output delay per cell (from the library) plus a
fanout increment, standing in for load-dependent delay from extracted
parasitics.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field

from repro.netlist.core import Instance, Net, Netlist, iter_register_banks
from repro.utils.errors import TimingError

# Default sequential overheads in ps (library-calibrated): the DFF cell
# delay doubles as clk->q, and SETUP is the capture-side margin used for
# the synchronous period.
DEFAULT_SETUP = 150.0
DEFAULT_SKEW = 100.0
FANOUT_DELAY_PS = 8.0  # extra delay per additional fanout connection

INPUTS = "<inputs>"    # pseudo-bank for primary inputs
OUTPUTS = "<outputs>"  # pseudo-bank for primary outputs


def gate_delay(inst: Instance) -> float:
    """Effective delay of one instance under the fanout load model."""
    fanout = inst.output_net().fanout
    return inst.cell.delay + FANOUT_DELAY_PS * max(0, fanout - 1)


@dataclass
class TimingResult:
    """Bank-to-bank stage delays and derived clock period.

    Attributes:
        max_delay: ``(pred, succ) -> worst path delay`` in ps through the
            combinational logic (excluding launch clk->q and setup).
        min_delay: best-case path delay for the same pairs.
        clk_to_q: launch overhead used in period computation.
        setup: capture overhead.
        critical_pair: bank pair with the largest stage delay.
    """

    max_delay: dict[tuple[str, str], float] = field(default_factory=dict)
    min_delay: dict[tuple[str, str], float] = field(default_factory=dict)
    clk_to_q: float = 0.0
    setup: float = DEFAULT_SETUP
    skew: float = DEFAULT_SKEW

    @property
    def critical_pair(self) -> tuple[str, str]:
        if not self.max_delay:
            raise TimingError("no register-to-register paths found")
        return max(self.max_delay, key=lambda pair: self.max_delay[pair])

    @property
    def critical_delay(self) -> float:
        pair = self.critical_pair
        return self.max_delay[pair]

    def stage(self, pred: str, succ: str) -> float:
        try:
            return self.max_delay[(pred, succ)]
        except KeyError:
            raise TimingError(f"no timed path {pred} -> {succ}") from None

    def sync_period(self) -> float:
        """Synchronous clock period: worst stage + clk->q + setup + skew.

        This is the period the paper's synchronous DLX is timed at; the
        skew term models the clock-tree uncertainty margin that
        de-synchronization removes.
        """
        return self.critical_delay + self.clk_to_q + self.setup + self.skew

    def register_pairs(self) -> list[tuple[str, str]]:
        """Bank pairs with real sequential endpoints (no pseudo-banks)."""
        return [pair for pair in self.max_delay
                if INPUTS not in pair and OUTPUTS not in pair]


def analyze(netlist: Netlist,
            setup: float = DEFAULT_SETUP,
            skew: float = DEFAULT_SKEW) -> TimingResult:
    """Compute bank-to-bank combinational stage delays for ``netlist``.

    Banks follow :func:`repro.netlist.core.iter_register_banks`.  Primary
    inputs and outputs appear as the pseudo-banks ``<inputs>`` and
    ``<outputs>``.

    The result is memoized on ``netlist`` per ``(setup, skew)``
    (:meth:`~repro.netlist.core.Netlist.memo`), so every flow run on one
    netlist shares one :class:`TimingResult`, which callers must only
    read.
    """
    return netlist.memo(("sta", setup, skew), lambda: _analyze(
        netlist, dict(iter_register_banks(netlist)), setup, skew))


def _analyze(netlist: Netlist, banks: dict[str, list[Instance]],
             setup: float, skew: float) -> TimingResult:
    seq_instances = [inst for insts in banks.values() for inst in insts]
    if not seq_instances:
        raise TimingError(f"{netlist.name} has no sequential elements")
    order = netlist.topo_order_comb_only()
    position = {inst.name: index for index, inst in enumerate(order)}

    def cone_sinks(net: Net) -> list[int]:
        return [position[sink.name] for sink, _ in net.sinks
                if sink.name in position]

    gates = [(inst.output_net().name,
              [net.name for net in inst.input_nets()],
              gate_delay(inst), cone_sinks(inst.output_net()))
             for inst in order]
    clk_to_q = max(inst.cell.delay for inst in seq_instances)
    result = TimingResult(clk_to_q=clk_to_q, setup=setup, skew=skew)

    sources: dict[str, list[Net]] = {
        bank: [inst.output_net() for inst in insts]
        for bank, insts in banks.items()
    }
    input_nets = [netlist.nets[p] for p in netlist.inputs
                  if p != netlist.clock]
    if input_nets:
        sources[INPUTS] = input_nets
    data_nets = {bank: [inst.data_net().name for inst in insts]
                 for bank, insts in banks.items()}

    for bank, source_nets in sorted(sources.items()):
        longest, shortest = _propagate(
            gates, [(net.name, cone_sinks(net)) for net in source_nets])
        _collect_endpoints(netlist, data_nets, bank, longest, shortest,
                           result)
    return result


def _propagate(gates: list[tuple[str, list[str], float, list[int]]],
               sources: list[tuple[str, list[int]]],
               ) -> tuple[dict[str, float], dict[str, float]]:
    """Longest/shortest arrival per net reachable from ``sources``.

    ``gates`` lists, in topological order, each combinational gate's
    output net, input nets, delay and the positions of the gates its
    output feeds; ``sources`` pairs each source net with the positions
    it feeds.  Only the sources' fanout cone is visited, in topological
    order: a gate outside the cone has no input with an arrival, and a
    gate is evaluated only after every cone gate before it.
    """
    longest: dict[str, float] = {name: 0.0 for name, _ in sources}
    shortest: dict[str, float] = {name: 0.0 for name, _ in sources}
    queued = {index for _, sinks in sources for index in sinks}
    heap = list(queued)
    heapq.heapify(heap)
    while heap:
        out, inputs, delay, sinks = gates[heapq.heappop(heap)]
        worst = -math.inf
        best = math.inf
        for name in inputs:
            if name in longest:
                worst = max(worst, longest[name])
                best = min(best, shortest[name])
        candidate_long = worst + delay
        candidate_short = best + delay
        if candidate_long > longest.get(out, -math.inf):
            longest[out] = candidate_long
        if candidate_short < shortest.get(out, math.inf):
            shortest[out] = candidate_short
        for index in sinks:
            if index not in queued:
                queued.add(index)
                heapq.heappush(heap, index)
    return longest, shortest


def _collect_endpoints(netlist: Netlist,
                       data_nets: dict[str, list[str]], source_bank: str,
                       longest: dict[str, float],
                       shortest: dict[str, float],
                       result: TimingResult) -> None:
    for bank, names in data_nets.items():
        worst = -math.inf
        best = math.inf
        for data in names:
            if data in longest:
                worst = max(worst, longest[data])
                best = min(best, shortest[data])
        if worst != -math.inf:
            result.max_delay[(source_bank, bank)] = worst
            result.min_delay[(source_bank, bank)] = best
    worst_out = -math.inf
    best_out = math.inf
    for port in netlist.outputs:
        if port in longest:
            worst_out = max(worst_out, longest[port])
            best_out = min(best_out, shortest[port])
    if worst_out != -math.inf:
        result.max_delay[(source_bank, OUTPUTS)] = worst_out
        result.min_delay[(source_bank, OUTPUTS)] = best_out
