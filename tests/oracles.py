"""Reference implementations of the flow's netlist and graph analyses.

These are the straightforward versions the library replaced: a full
topological scan per STA source bank, one backward DFS per register,
and the ``networkx`` graph passes the clustering strategies and the
partial pass once called (a test-only dependency now).  They are slow
but obviously right, so the tests in ``test_analysis_oracles.py`` hold
the fast code to them for exact equality.
"""

from __future__ import annotations

import math

import networkx as nx

from repro.netlist.core import Instance, Net, Netlist, iter_register_banks
from repro.petri import MarkedGraph
from repro.stg.desync_model import LatchBank
from repro.timing.sta import INPUTS, OUTPUTS, TimingResult, gate_delay
from repro.utils.errors import DesyncError, TimingError


def sequential_fanin(inst: Instance) -> list[Instance]:
    """Sequential instances whose outputs reach the D input of ``inst``
    through combinational logic (or directly)."""
    sources: list[Instance] = []
    seen: set[str] = set()
    stack = [inst.data_net()]
    while stack:
        net = stack.pop()
        driver = net.driver_instance()
        if driver is None or driver.name in seen:
            continue
        seen.add(driver.name)
        if driver.is_sequential:
            sources.append(driver)
        elif driver.is_combinational or driver.is_celement:
            stack.extend(driver.input_nets())
    return sources


def register_level_edges(netlist: Netlist) -> frozenset[tuple[str, str]]:
    """Register-bank dataflow edges, one DFS per register."""
    banks = dict(iter_register_banks(netlist))
    bank_of = {inst.name: bank
               for bank, insts in banks.items() for inst in insts}
    return frozenset((bank_of[source.name], bank)
                     for bank, instances in banks.items()
                     for ff in instances
                     for source in sequential_fanin(ff))


def latch_adjacency(banks: dict[str, LatchBank],
                    ) -> frozenset[tuple[str, str]]:
    """Latch-bank adjacency, one DFS per latch."""
    bank_of = {inst.name: bank.name
               for bank in banks.values() for inst in bank.instances}
    pairs: set[tuple[str, str]] = set()
    for bank in banks.values():
        for latch in bank.instances:
            for source in sequential_fanin(latch):
                pred = bank_of[source.name]
                if pred != bank.name:
                    pairs.add((pred, bank.name))
                else:
                    raise DesyncError(
                        f"latch bank {bank.name} feeds itself "
                        "combinationally (a latch must not drive its own "
                        "D input without passing through the opposite "
                        "phase)")
    return frozenset(pairs)


def analyze(netlist: Netlist, setup: float, skew: float) -> TimingResult:
    """Bank-to-bank STA, one full topological scan per source bank."""
    banks = dict(iter_register_banks(netlist))
    seq_instances = [inst for insts in banks.values() for inst in insts]
    if not seq_instances:
        raise TimingError(f"{netlist.name} has no sequential elements")
    order = netlist.topo_order_comb_only()
    result = TimingResult(
        clk_to_q=max(inst.cell.delay for inst in seq_instances),
        setup=setup, skew=skew)
    sources: dict[str, list[Net]] = {
        bank: [inst.output_net() for inst in insts]
        for bank, insts in banks.items()}
    input_nets = [netlist.nets[p] for p in netlist.inputs
                  if p != netlist.clock]
    if input_nets:
        sources[INPUTS] = input_nets
    for bank, source_nets in sorted(sources.items()):
        longest, shortest = _propagate(order, source_nets)
        _collect_endpoints(netlist, banks, bank, longest, shortest, result)
    return result


def _propagate(order: list[Instance], source_nets: list[Net],
               ) -> tuple[dict[str, float], dict[str, float]]:
    longest: dict[str, float] = {net.name: 0.0 for net in source_nets}
    shortest: dict[str, float] = {net.name: 0.0 for net in source_nets}
    for inst in order:
        worst = -math.inf
        best = math.inf
        for net in inst.input_nets():
            if net.name in longest:
                worst = max(worst, longest[net.name])
                best = min(best, shortest[net.name])
        if worst == -math.inf:
            continue
        delay = gate_delay(inst)
        out = inst.output_net().name
        candidate_long = worst + delay
        candidate_short = best + delay
        if candidate_long > longest.get(out, -math.inf):
            longest[out] = candidate_long
        if candidate_short < shortest.get(out, math.inf):
            shortest[out] = candidate_short
    return longest, shortest


def _collect_endpoints(netlist: Netlist, banks: dict[str, list[Instance]],
                       source_bank: str, longest: dict[str, float],
                       shortest: dict[str, float],
                       result: TimingResult) -> None:
    for bank, insts in banks.items():
        worst = -math.inf
        best = math.inf
        for inst in insts:
            data = inst.data_net().name
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


def strongly_connected_components(nodes, edges) -> list[list[str]]:
    """Strongly connected components, each sorted, in networkx order."""
    graph = nx.DiGraph()
    graph.add_nodes_from(nodes)
    graph.add_edges_from(edges)
    return [sorted(component)
            for component in nx.strongly_connected_components(graph)]


def find_cycle(edges) -> list[str] | None:
    """The cycle ``nx.find_cycle`` meets on ``DiGraph(sorted(edges))``,
    as ``[v, ..., u, v]``."""
    try:
        cycle = nx.find_cycle(nx.DiGraph(sorted(edges)))
    except nx.NetworkXNoCycle:
        return None
    return [edge[0] for edge in cycle] + [cycle[0][0]]


def cyclic_clustering_error(edges) -> str | None:
    """The :class:`DesyncError` text a cyclic controller graph raises."""
    cycle = find_cycle(edges)
    if cycle is None:
        return None
    return ("clustering produces a cyclic controller graph "
            f"({' -> '.join(cycle)}); mutually-reachable registers must "
            "share a controller (use the 'scc' strategy or merge the "
            "banks)")


def greedy_cap_partition(nodes, edges, cap: int) -> list[list[str]]:
    """Greedy-cap merging, re-testing acyclicity of the contracted
    condensation for every candidate edge."""
    edges = list(edges)
    components = {min(c): set(c)
                  for c in strongly_connected_components(nodes, edges)}
    owner = {node: name for name, members in components.items()
             for node in members}
    merged = True
    while merged:
        merged = False
        graph = nx.DiGraph()
        graph.add_nodes_from(components)
        graph.add_edges_from((owner[p], owner[s]) for p, s in edges
                             if owner[p] != owner[s])
        for pred, succ in sorted(graph.edges):
            if len(components[pred]) + len(components[succ]) > cap:
                continue
            trial = nx.contracted_nodes(graph, pred, succ, self_loops=False)
            if not nx.is_directed_acyclic_graph(trial):
                continue
            union = components.pop(pred) | components.pop(succ)
            name = min(union)
            components[name] = union
            for node in union:
                owner[node] = name
            merged = True
            break
    return sorted(sorted(members) for members in components.values())


def convex_closure(nodes, edges, island: set[str]) -> set[str]:
    """Nodes outside ``island`` that are both descendants and ancestors
    of island nodes."""
    graph = nx.DiGraph()
    graph.add_nodes_from(nodes)
    graph.add_edges_from(edges)
    reachable_from = set().union(
        *(nx.descendants(graph, node) for node in island))
    reaching = set().union(
        *(nx.ancestors(graph, node) for node in island))
    return (reachable_from & reaching) - island


def simple_cycles(graph: MarkedGraph) -> list[tuple[str, ...]]:
    """All simple cycles of a marked graph, as transition tuples."""
    multi = nx.MultiDiGraph()
    multi.add_nodes_from(graph.transitions)
    for edge in graph.edges():
        multi.add_edge(edge.source, edge.target)
    return [tuple(cycle) for cycle in nx.simple_cycles(multi)]


def token_count_invariant(graph: MarkedGraph, marking=None,
                          ) -> dict[frozenset[str], int]:
    """Token count of every simple cycle under ``marking`` (default: the
    initial marking); firing preserves each of them."""
    marking = graph.initial_marking if marking is None else marking
    counts = {}
    for cycle in simple_cycles(graph):
        total = 0
        for i, source in enumerate(cycle):
            target = cycle[(i + 1) % len(cycle)]
            candidates = [marking.get(p, 0) for p in graph.post[source]
                          if graph.place_post[p][0] == target]
            total += min(candidates) if candidates else 0
        counts[frozenset(cycle)] = total
    return counts
