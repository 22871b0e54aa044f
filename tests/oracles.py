"""Reference implementations of the flow's netlist and graph analyses.

These are the straightforward versions the library replaced: a full
topological scan per STA source bank, one backward DFS per register,
the ``networkx`` graph passes the clustering strategies and the
partial pass once called (a test-only dependency now), one Dijkstra
run per transition for the marked-graph token distances, the
event-worklist timed simulation, and the character-loop Verilog lexer
that lexed a whole source before parsing began.  They are slow but
obviously right, so ``test_analysis_oracles.py``,
``test_structural_model.py`` and ``test_verilog_roundtrip.py`` hold
the fast code to them for exact equality.
"""

from __future__ import annotations

import heapq
import math
import re
from collections import deque

import networkx as nx

from repro.netlist.core import Instance, Net, Netlist, iter_register_banks
from repro.petri import MarkedGraph, PetriNet, TimedEvent, TimedTrace
from repro.stg import Stg
from repro.stg.desync_model import LatchBank
from repro.timing.sta import INPUTS, OUTPUTS, TimingResult, gate_delay
from repro.utils.errors import DesyncError, StgError, TimingError, VerilogError
from repro.verilog.tokenizer import EOF, ESCAPED, ID, SYMBOL, Comment, Token


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


def token_distances(graph: MarkedGraph) -> dict[str, dict[str, int]]:
    """δ(u, t), the fewest tokens on a directed path u -> t, by one
    Dijkstra run per source transition (token counts are non-negative).
    ``result[u]`` maps every transition reachable from ``u`` (``u``
    itself included, at 0) to its token distance."""
    graph.check_structure()
    out: dict[str, list[tuple[str, int]]] = {t: [] for t in graph.transitions}
    for place in graph.places:
        out[graph.place_pre[place][0]].append(
            (graph.place_post[place][0], graph.initial_marking.get(place, 0)))
    distances: dict[str, dict[str, int]] = {}
    for source in graph.transitions:
        settled: dict[str, int] = {}
        heap = [(0, source)]
        while heap:
            distance, node = heapq.heappop(heap)
            if node in settled:
                continue
            settled[node] = distance
            for target, tokens in out[node]:
                if target not in settled:
                    heapq.heappush(heap, (distance + tokens, target))
        distances[source] = settled
    return distances


def place_bounds(graph: MarkedGraph) -> dict[str, int | None]:
    """``M0 + δ(u, t)`` for the place of every edge t -> u, ``None`` when
    u cannot reach t."""
    distances = token_distances(graph)
    bounds: dict[str, int | None] = {}
    for place in graph.places:
        distance = distances[graph.place_post[place][0]].get(
            graph.place_pre[place][0])
        bounds[place] = (None if distance is None else
                         graph.initial_marking.get(place, 0) + distance)
    return bounds


def check_model(stg: Stg, bound: int = 2) -> None:
    """``Stg.check_model`` from the Dijkstra token distances: the same
    checks, in the same order, with the same messages."""
    stg.check_structure()
    if not stg.is_live():
        raise StgError(f"STG {stg.name} is not live (token-free cycle)")
    distances = token_distances(stg)
    for place, most in place_bounds(stg).items():
        if most is None or most > bound:
            raise StgError(f"STG {stg.name} is not {bound}-bounded "
                           f"(place {place})")
    edges: dict[str, dict[str, list[str]]] = {
        signal: {"+": [], "-": []} for signal in stg.initial_values}
    for transition in stg.transitions:
        signal, sign = stg.signal_of(transition)
        if signal not in edges:
            raise StgError(f"transition {transition} on undeclared "
                           f"signal {signal}")
        edges[signal][sign].append(transition)
    for signal, initial in stg.initial_values.items():
        rises, falls = edges[signal]["+"], edges[signal]["-"]
        if len(rises) != 1 or len(falls) != 1:
            raise StgError(
                f"STG {stg.name}: signal {signal} has {len(rises)} "
                f"rising and {len(falls)} falling transitions (the "
                "model check needs exactly one of each)")
        lead, trail = ((rises[0], falls[0]) if initial == 0
                       else (falls[0], rises[0]))
        ahead = distances[trail].get(lead)
        if ahead is None or ahead > 1:
            raise StgError(
                f"inconsistent STG {stg.name}: {lead} can fire while "
                f"{signal}={1 - initial}")
        if distances[lead].get(trail) != 0:
            raise StgError(
                f"inconsistent STG {stg.name}: {trail} can fire while "
                f"{signal}={initial}")


def simulate(graph: MarkedGraph, rounds: int = 10) -> TimedTrace:
    """The timed run by a deterministic worklist: each edge holds a FIFO
    of token arrival times (initial tokens arrive at 0), and the ready
    transition with the smallest firing time fires next (ties broken by
    name).  A non-live graph yields the partial trace it reaches."""
    graph.check_structure()
    edges = graph.edges()
    in_edges: dict[str, list[int]] = {t: [] for t in graph.transitions}
    out_edges: dict[str, list[int]] = {t: [] for t in graph.transitions}
    queues: list[deque[float]] = []
    for index, edge in enumerate(edges):
        queues.append(deque([0.0] * edge.tokens))
        in_edges[edge.target].append(index)
        out_edges[edge.source].append(index)
    fire_counts = {t: 0 for t in graph.transitions}
    events: list[TimedEvent] = []

    def ready(transition: str) -> bool:
        return (fire_counts[transition] < rounds
                and all(queues[i] for i in in_edges[transition]))

    pending = {t for t in graph.transitions if ready(t)}
    while pending:
        best_name = None
        best_time = 0.0
        for name in sorted(pending):
            arrival = max((queues[i][0] for i in in_edges[name]), default=0.0)
            fire_time = arrival + graph.transitions[name].delay
            if best_name is None or fire_time < best_time:
                best_name, best_time = name, fire_time
        assert best_name is not None
        for i in in_edges[best_name]:
            queues[i].popleft()
        for i in out_edges[best_name]:
            queues[i].append(best_time + edges[i].delay)
        fire_counts[best_name] += 1
        events.append(TimedEvent(best_time, best_name,
                                 fire_counts[best_name]))
        pending = {t for t in graph.transitions if ready(t)}
    events.sort(key=lambda e: (e.time, e.transition))
    return TimedTrace(events)


def is_bounded(net: PetriNet, bound: int = 1,
               max_states: int = 100_000) -> bool:
    """True if no reachable marking puts more than ``bound`` tokens in a
    place, by walking the reachability graph."""
    return all(tokens <= bound
               for marking in net.reachable_markings(max_states)
               for tokens in marking.values())


def has_deadlock(net: PetriNet, max_states: int = 100_000) -> bool:
    """True if some reachable marking enables no transition."""
    return any(not net.enabled_transitions(marking)
               for marking in net.reachable_markings(max_states))


def check_consistency(stg: Stg, max_states: int = 100_000) -> None:
    """Rise/fall alternation over the whole reachability graph.

    Walks every reachable marking, tracking the binary signal vector;
    firing ``a+`` from a state where ``a`` is already 1 (or ``a-`` where
    it is 0) raises :class:`StgError`.  Also fails if two distinct signal
    vectors are observed for one marking (the marking does not determine
    the state).
    """
    def freeze(values: dict[str, int]) -> tuple[tuple[str, int], ...]:
        return tuple(sorted(values.items()))

    start = stg.marking()
    start_state = dict(stg.initial_values)
    seen = {freeze(start): freeze(start_state)}
    frontier = [(start, start_state)]
    explored = 0
    while frontier:
        marking, state = frontier.pop()
        explored += 1
        if explored > max_states:
            raise StgError(f"consistency check exceeded {max_states} states")
        for transition in stg.enabled_transitions(marking):
            signal, sign = stg.signal_of(transition)
            value = state.get(signal)
            if value is None:
                raise StgError(f"transition {transition} on undeclared "
                               f"signal {signal}")
            if (sign == "+") == (value == 1):
                raise StgError(
                    f"inconsistent STG {stg.name}: {transition} enabled "
                    f"while {signal}={value}")
            successor = stg.fire(marking, transition)
            new_state = dict(state)
            new_state[signal] = 1 if sign == "+" else 0
            key = freeze(successor)
            recorded = seen.get(key)
            if recorded is None:
                seen[key] = freeze(new_state)
                frontier.append((successor, new_state))
            elif recorded != freeze(new_state):
                raise StgError(
                    f"inconsistent STG {stg.name}: marking reached with "
                    "two different signal states")


_VERILOG_ID_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_$]*")


def lex_verilog(source: str) -> tuple[list[Token], list[Comment]]:
    """Lex all of ``source`` into tokens (ending with ``EOF``) plus the
    comment stream, one character at a time.

    Raises :class:`VerilogError` on characters outside the subset or on
    malformed escaped identifiers.
    """
    tokens: list[Token] = []
    comments: list[Comment] = []
    line, line_start = 1, 0
    pos, length = 0, len(source)
    while pos < length:
        char = source[pos]
        column = pos - line_start + 1
        if char == "\n":
            line += 1
            line_start = pos + 1
            pos += 1
        elif char in " \t\r":
            pos += 1
        elif source.startswith("//", pos):
            end = source.find("\n", pos)
            end = length if end < 0 else end
            comments.append(Comment(source[pos + 2:end].strip(), line, column))
            pos = end
        elif char == "\\":
            end = pos + 1
            while end < length and not source[end].isspace():
                end += 1
            if end == pos + 1:
                raise VerilogError("malformed escaped identifier: '\\' must "
                                   "be followed by non-whitespace characters",
                                   line, column)
            if end >= length:
                raise VerilogError("unterminated escaped identifier "
                                   f"{source[pos:end]!r} (escaped identifiers "
                                   "end with whitespace)", line, column)
            tokens.append(Token(ESCAPED, source[pos + 1:end], line, column))
            pos = end
        elif char in "();,.":
            tokens.append(Token(SYMBOL, char, line, column))
            pos += 1
        else:
            match = _VERILOG_ID_RE.match(source, pos)
            if match is None:
                raise VerilogError(f"unexpected character {char!r}",
                                   line, column)
            tokens.append(Token(ID, match.group(0), line, column))
            pos = match.end()
    tokens.append(Token(EOF, "", line, length - line_start + 1))
    return tokens, comments

