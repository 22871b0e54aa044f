"""Register clustering: the controller granularity of the robust fabric.

The paper's model places one controller per latch; its correctness on
real layouts rests on relative-timing checks (capture-versus-launch races
between neighbouring controllers) that the authors discharge with the
commercial flow's timing signoff.  A pure-software reproduction must be
correct by construction instead, so the shipped fabric clusters:

* each flip-flop register keeps its master/slave pair under **one** local
  clock (the ``gen`` blocks of Figure 1(b) read per register);
* registers that are *mutually* reachable through combinational logic —
  the strongly-connected components of the register dataflow graph —
  share one controller, because mutually-coupled captures must happen
  within a data-delay window of each other, which is exactly what a
  shared local clock provides (this is the Varshavsky-style local
  clocking the paper cites as reference [5]).

The result is an **acyclic** bank graph, on which the handshake protocol
of :mod:`repro.desync.network` is deadlock-free and race-free with
static margins.  Tightly-coupled designs degenerate toward fewer, larger
domains (a single self-timed domain in the limit), which is the honest
outcome of de-synchronizing such netlists without timing signoff.
"""

from __future__ import annotations

import inspect
from collections.abc import Callable, Collection, Iterable
from dataclasses import dataclass, field

from repro.netlist.core import (
    Instance,
    Netlist,
    iter_register_banks,
    register_fanin,
)
from repro.utils.errors import DesyncError


@dataclass
class Cluster:
    """One controller domain: a set of registers sharing a local clock.

    Attributes:
        name: bank name (the lexicographically first member register).
        registers: member register names (flip-flop bank names).
        instances: the member flip-flop instances of the *synchronous*
            netlist (the latch pairs derive their names from these).
        has_self_edge: some member register feeds another member (or
            itself) through combinational logic, so the cluster needs an
            internal matched self-request.
    """

    name: str
    registers: list[str]
    instances: list[Instance] = field(default_factory=list)
    has_self_edge: bool = False

    @property
    def width(self) -> int:
        return len(self.instances)


@dataclass
class Clustering:
    """Clusters plus their acyclic adjacency."""

    clusters: dict[str, Cluster]
    edges: frozenset[tuple[str, str]]           # inter-cluster, acyclic
    register_edges: frozenset[tuple[str, str]]  # register-level pairs
    cluster_of: dict[str, str]           # register name -> cluster name

    def predecessors(self, bank: str) -> list[str]:
        return sorted({p for (p, s) in self.edges if s == bank})

    def successors(self, bank: str) -> list[str]:
        return sorted({s for (p, s) in self.edges if p == bank})

    def describe(self) -> str:
        multi = [c for c in self.clusters.values() if len(c.registers) > 1]
        lines = [
            f"clustering: {len(self.clusters)} controller domains over "
            f"{len(self.cluster_of)} registers",
            f"  inter-domain edges  {len(self.edges)}",
            f"  merged domains      {len(multi)}",
        ]
        for cluster in sorted(multi, key=lambda c: c.name):
            lines.append(f"    {cluster.name}: {len(cluster.registers)} "
                         "registers")
        return "\n".join(lines)


def register_level_edges(netlist: Netlist,
                         ) -> tuple[dict[str, list[Instance]],
                                    frozenset[tuple[str, str]]]:
    """Register banks of a flip-flop netlist and their dataflow edges.

    An edge ``(p, s)`` means some flip-flop output of register bank ``p``
    reaches a flip-flop D input of bank ``s`` through combinational
    logic (self-edges included).  Derived once per netlist state
    (:meth:`~repro.netlist.core.Netlist.memo`): every caller shares the
    same banks dict, which must only be read.
    """
    return netlist.memo("register_edges",
                        lambda: _register_level_edges(netlist))


def _register_level_edges(netlist: Netlist):
    banks = {name: insts for name, insts in iter_register_banks(netlist)}
    if not banks:
        raise DesyncError(f"{netlist.name} has no registers")
    sources = register_fanin(netlist).bank_sources(banks)
    edges = frozenset((source, bank)
                      for bank, preds in sources.items()
                      for source in preds)
    return banks, edges


def clustering_from_partition(banks: dict[str, list[Instance]],
                              reg_edges: frozenset[tuple[str, str]],
                              components: list[list[str]],
                              require_acyclic: bool = True) -> Clustering:
    """Build a :class:`Clustering` from a partition of the register banks.

    ``components`` is a list of register-bank groups covering every bank
    exactly once; each group becomes one controller domain named after
    its lexicographically first member (the naming convention every
    strategy shares, so fabric net names are stable across strategies).
    The domains are listed in name order, whatever order the groups
    come in.  With ``require_acyclic`` (the safety invariant of the
    handshake protocol — see the module docstring) a cyclic
    inter-cluster graph raises :class:`DesyncError` naming one
    offending cycle.
    """
    covered = [reg for component in components for reg in component]
    if sorted(covered) != sorted(banks):
        raise DesyncError(
            "clustering partition does not cover the register banks "
            f"exactly once ({len(covered)} members for {len(banks)} banks)")
    clusters: dict[str, Cluster] = {}
    cluster_of: dict[str, str] = {}
    for members in sorted(sorted(component) for component in components):
        name = members[0]
        instances = [ff for reg in members for ff in banks[reg]]
        clusters[name] = Cluster(name=name, registers=members,
                                 instances=instances)
        for register in members:
            cluster_of[register] = name
    edges: set[tuple[str, str]] = set()
    for pred, succ in reg_edges:
        cp, cs = cluster_of[pred], cluster_of[succ]
        if cp == cs:
            clusters[cp].has_self_edge = True
        else:
            edges.add((cp, cs))
    cycle = find_cycle(edges) if require_acyclic else None
    if cycle:
        path = " -> ".join(cycle)
        raise DesyncError(
            "clustering produces a cyclic controller graph "
            f"({path}); mutually-reachable registers must share a "
            "controller (use the 'scc' strategy or merge the banks)")
    return Clustering(clusters=clusters, edges=frozenset(edges),
                      register_edges=frozenset(reg_edges),
                      cluster_of=cluster_of)


def _successor_lists(nodes: Iterable[str],
                     edges: Iterable[tuple[str, str]],
                     ) -> dict[str, list[str]]:
    """Sorted successor lists of a digraph.

    Keys are ``nodes`` in their order, then any other edge endpoint in
    order of first appearance in the sorted edge list.
    """
    successors: dict[str, list[str]] = {node: [] for node in nodes}
    for pred, succ in sorted(edges):
        successors.setdefault(pred, []).append(succ)
        successors.setdefault(succ, [])
    return successors


def _reachable(successors: dict[str, list[str]],
               starts: Iterable[str]) -> set[str]:
    """Every node reachable from ``starts``, the starts included."""
    seen = set(starts)
    stack = list(seen)
    while stack:
        for succ in successors[stack.pop()]:
            if succ not in seen:
                seen.add(succ)
                stack.append(succ)
    return seen


def find_cycle(edges: Iterable[tuple[str, str]]) -> list[str] | None:
    """The first directed cycle a depth-first search meets, or ``None``.

    The cycle reads ``[v, ..., u, v]``.  Roots are taken in order of
    first appearance in the sorted edge list and successors in sorted
    order, so the reported cycle is a function of the edge set alone.
    """
    successors = _successor_lists((), edges)
    done: set[str] = set()
    for root in successors:
        if root in done:
            continue
        path = {root: None}     # insertion-ordered, so also a stack
        frontier = [iter(successors[root])]
        while frontier:
            for succ in frontier[-1]:
                if succ in path:
                    cycle = list(path)
                    return cycle[cycle.index(succ):] + [succ]
                if succ not in done:
                    path[succ] = None
                    frontier.append(iter(successors[succ]))
                    break
            else:
                frontier.pop()
                done.add(path.popitem()[0])
    return None


def strongly_connected_components(nodes: Iterable[str],
                                  edges: Iterable[tuple[str, str]],
                                  ) -> list[list[str]]:
    """Strongly connected components (iterative Tarjan), each sorted,
    listed by first member."""
    successors = _successor_lists(nodes, edges)
    index: dict[str, int] = {}
    low: dict[str, int] = {}
    stack: dict[str, None] = {}     # insertion-ordered, so also a stack
    components: list[list[str]] = []
    for root in successors:
        if root in index:
            continue
        index[root] = low[root] = len(index)
        stack[root] = None
        frontier = [(root, iter(successors[root]))]
        while frontier:
            node, children = frontier[-1]
            for child in children:
                if child not in index:
                    index[child] = low[child] = len(index)
                    stack[child] = None
                    frontier.append((child, iter(successors[child])))
                    break
                if child in stack:
                    low[node] = min(low[node], index[child])
            else:
                frontier.pop()
                if frontier:
                    parent = frontier[-1][0]
                    low[parent] = min(low[parent], low[node])
                if low[node] == index[node]:
                    component = [stack.popitem()[0]]
                    while component[-1] != node:
                        component.append(stack.popitem()[0])
                    components.append(sorted(component))
    return sorted(components)


def convex_closure(edges: Collection[tuple[str, str]],
                   island: set[str]) -> set[str]:
    """The nodes outside ``island`` on a directed path island -> x ->
    island."""
    forward = _successor_lists(island, edges)
    backward = _successor_lists(island, ((s, p) for p, s in edges))
    after = _reachable(forward, (s for node in island
                                 for s in forward[node]))
    before = _reachable(backward, (p for node in island
                                   for p in backward[node]))
    return (after & before) - island


def cluster_scc(netlist: Netlist) -> Clustering:
    """The default strategy: strongly-connected components of the
    register dataflow graph — the finest clustering the handshake
    protocol's safety invariant permits on arbitrary designs."""
    banks, reg_edges = register_level_edges(netlist)
    return clustering_from_partition(
        banks, reg_edges, strongly_connected_components(banks, reg_edges),
        require_acyclic=False)


def cluster_per_register(netlist: Netlist) -> Clustering:
    """The finest strategy: one controller domain per register bank.

    Valid only on feed-forward register graphs (register self-loops are
    fine — they become matched self-requests); a cycle through two or
    more banks violates the acyclicity invariant and raises
    :class:`DesyncError` naming the cycle.  On such designs ``scc`` *is*
    the per-register clustering wherever safety allows.
    """
    banks, reg_edges = register_level_edges(netlist)
    return clustering_from_partition(banks, reg_edges,
                                     [[bank] for bank in sorted(banks)])


def cluster_single(netlist: Netlist) -> Clustering:
    """The coarsest strategy: every register under one local clock.

    The whole design becomes a single self-timed domain — a local ring
    oscillator matched to the worst internal stage.  No inter-domain
    handshakes exist, so there is nothing to race: this is the
    degenerate-but-always-safe endpoint of the granularity spectrum.
    """
    banks, reg_edges = register_level_edges(netlist)
    return clustering_from_partition(banks, reg_edges,
                                     [sorted(banks)])


def cluster_greedy_cap(netlist: Netlist, cap: int = 4) -> Clustering:
    """Size-capped greedy merging of the SCC condensation.

    Starts from the ``scc`` components and repeatedly merges an adjacent
    cluster pair when the merged domain stays within ``cap`` registers
    and the inter-cluster graph stays acyclic (merging ``{A, B}`` with a
    bypass path ``A -> C -> B`` would trap ``C`` in a cycle, so such
    pairs are skipped).  Candidates are scanned in sorted edge order, so
    the result is deterministic.  Coarser domains trade concurrency for
    fewer controllers and fewer matched delay lines — the knob the paper
    leaves to the implementer.
    """
    if cap < 1:
        raise DesyncError(f"greedy-cap needs a positive cap, got {cap}")
    banks, reg_edges = register_level_edges(netlist)
    return clustering_from_partition(
        banks, reg_edges, greedy_cap_partition(banks, reg_edges, cap))


def greedy_cap_partition(nodes: Iterable[str],
                         edges: Iterable[tuple[str, str]],
                         cap: int) -> list[list[str]]:
    """The partition :func:`cluster_greedy_cap` builds on a digraph."""
    edges = list(edges)
    components = {c[0]: set(c)
                  for c in strongly_connected_components(nodes, edges)}
    owner = {node: name for name, members in components.items()
             for node in members}
    merged = True
    while merged:
        merged = False
        condensed = {(owner[p], owner[s]) for p, s in edges
                     if owner[p] != owner[s]}
        successors = _successor_lists(components, condensed)
        for pred, succ in sorted(condensed):
            if len(components[pred]) + len(components[succ]) > cap:
                continue
            # The condensation is a DAG and every merge keeps it one, so
            # merging along pred -> succ closes a cycle exactly when
            # succ is still reachable from pred without that edge.
            if succ in _reachable(successors, (other for other
                                               in successors[pred]
                                               if other != succ)):
                continue
            union = components.pop(pred) | components.pop(succ)
            name = min(union)
            components[name] = union
            for node in union:
                owner[node] = name
            merged = True
            break
    return sorted(sorted(members) for members in components.values())


#: Pluggable clustering strategies, selectable via
#: :attr:`repro.desync.flow.DesyncOptions.strategy` (the ``greedy-cap``
#: entry also reads :attr:`~repro.desync.flow.DesyncOptions.cluster_cap`).
CLUSTERING_STRATEGIES: dict[str, Callable[..., Clustering]] = {
    "scc": cluster_scc,
    "per-register": cluster_per_register,
    "single": cluster_single,
    "greedy-cap": cluster_greedy_cap,
}


def cluster_registers(netlist: Netlist, strategy: str = "scc",
                      cap: int | None = None) -> Clustering:
    """Cluster the registers of a synchronous flip-flop netlist.

    ``strategy`` selects an entry of :data:`CLUSTERING_STRATEGIES`;
    ``cap`` is forwarded to the size-capped strategies.  The default is
    the SCC clustering (the historical behaviour of this function).
    Memoized on ``netlist`` per strategy and cap, so the returned
    :class:`Clustering` is shared and must only be read.
    """
    try:
        builder = CLUSTERING_STRATEGIES[strategy]
    except KeyError:
        raise DesyncError(
            f"unknown clustering strategy {strategy!r} "
            f"(have: {', '.join(sorted(CLUSTERING_STRATEGIES))})") from None
    if cap is not None:
        if "cap" not in inspect.signature(builder).parameters:
            raise DesyncError(
                f"clustering strategy {strategy!r} does not take a size cap")
    return netlist.memo(
        ("cluster", builder, cap),
        lambda: builder(netlist) if cap is None
        else builder(netlist, cap=cap))


def cluster_stage_delays(timing_max: dict[tuple[str, str], float],
                         timing_min: dict[tuple[str, str], float],
                         clustering: Clustering,
                         ) -> tuple[dict[tuple[str, str], float],
                                    dict[tuple[str, str], float]]:
    """Aggregate register-level STA results to cluster granularity.

    Self-pairs ``(bank, bank)`` carry the worst intra-cluster stage.
    """
    max_delay: dict[tuple[str, str], float] = {}
    min_delay: dict[tuple[str, str], float] = {}
    for (pred, succ), value in timing_max.items():
        cp = clustering.cluster_of.get(pred)
        cs = clustering.cluster_of.get(succ)
        if cp is None or cs is None:
            continue
        key = (cp, cs)
        max_delay[key] = max(max_delay.get(key, 0.0), value)
        low = timing_min.get((pred, succ), value)
        min_delay[key] = min(min_delay.get(key, float("inf")), low)
    return max_delay, min_delay
