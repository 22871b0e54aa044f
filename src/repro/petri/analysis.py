"""Performance analysis of timed marked graphs.

The steady-state cycle time of a strongly-connected timed marked graph is
its **maximum cycle ratio**:

    T = max over directed cycles C of  (sum of delays on C) / (tokens on C)

where the delay of an edge ``u -> v`` is the firing delay of ``v`` plus any
extra propagation delay attached to the edge (matched delays, in the
de-synchronization model).  This is how the de-synchronized DLX cycle time
in Table 1 is computed.

The ratio is found with Howard's policy iteration (Cochet-Terrasson et
al. 1998; Dasdan, TODAES 2004): a policy picks one out-edge per
transition, every transition inherits the ratio of the policy cycle it
leads to plus a bias, and policies improve — first by ratio, then by bias
— until none does.  Each round is linear in the graph and the iteration
count is small in practice; the final policy cycle is a critical cycle,
exact up to float rounding.  Transitions that reach no cycle are pruned
first, since a policy needs an out-edge everywhere.  The reported ratio
is recomputed from that cycle's own delay and token sums.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.obs.trace import TRACER
from repro.petri.marked_graph import MarkedGraph, MgIndex
from repro.utils.errors import PetriError


@dataclass
class CycleTimeResult:
    """Result of :func:`cycle_time`.

    Attributes:
        cycle_time: maximum cycle ratio in ps (the steady-state period).
        critical_cycle: transitions of one critical cycle, in order.
        critical_delay: total delay along the critical cycle, ps.
        critical_tokens: token count of the critical cycle.
    """

    cycle_time: float
    critical_cycle: list[str]
    critical_delay: float
    critical_tokens: int

    @property
    def throughput(self) -> float:
        """Firings per ps of each transition (1 / cycle time)."""
        return math.inf if self.cycle_time == 0 else 1.0 / self.cycle_time


def _cyclic_core(index: MgIndex) -> dict[int, list[int]]:
    """Out-edges of every transition that reaches a cycle: transitions
    left without an out-edge are removed until none is."""
    degree = [len(edges) for edges in index.out_edges]
    dead = [t for t, count in enumerate(degree) if count == 0]
    removed = set(dead)
    while dead:
        for e in index.in_edges[dead.pop()]:
            source = index.source[e]
            degree[source] -= 1
            if degree[source] == 0:
                removed.add(source)
                dead.append(source)
    return {t: [e for e in edges if index.target[e] not in removed]
            for t, edges in enumerate(index.out_edges) if t not in removed}


def _policy_values(index: MgIndex, weight: list[float],
                   policy: dict[int, int],
                   ) -> tuple[dict[int, float], dict[int, float]]:
    """Ratio and bias of every transition under ``policy`` (transition
    -> chosen out-edge).

    Each policy cycle's ratio is its delay over its tokens; a transition
    inherits the ratio of the cycle its policy path ends in, and its bias
    solves ``bias[u] = weight - ratio * tokens + bias[v]`` along the
    policy edge, with the bias of each cycle's earliest transition (in
    graph order, so it stays put while the cycle survives) 0.
    """
    target, tokens = index.target, index.tokens
    ratio: dict[int, float] = {}
    bias: dict[int, float] = {}
    for start in policy:
        if start in ratio:
            continue
        path: list[int] = []
        on_path: set[int] = set()
        node = start
        while node not in ratio and node not in on_path:
            path.append(node)
            on_path.add(node)
            node = target[policy[node]]
        if node not in ratio:  # closed a new policy cycle at ``node``
            cycle = path[path.index(node):]
            del path[len(path) - len(cycle):]
            handle = cycle.index(min(cycle))
            cycle = cycle[handle:] + cycle[:handle]
            delay = sum(weight[policy[t]] for t in cycle)
            count = sum(tokens[policy[t]] for t in cycle)
            ratio[cycle[0]] = delay / count
            bias[cycle[0]] = 0.0
            path.extend(cycle[1:])
        for walker in reversed(path):
            edge = policy[walker]
            ratio[walker] = ratio[target[edge]]
            bias[walker] = (weight[edge] - ratio[walker] * tokens[edge]
                            + bias[target[edge]])
    return ratio, bias


def _howard(index: MgIndex, weight: list[float],
            out: dict[int, list[int]]) -> tuple[float, list[int]]:
    """Maximum cycle ratio of the (pruned, live) graph ``out`` and one
    cycle attaining it, by policy iteration."""
    target, tokens = index.target, index.tokens
    scale = 1.0 + sum(weight[e] for edges in out.values() for e in edges)
    eps = 1e-12 * scale
    policy = {t: max(edges, key=weight.__getitem__)
              for t, edges in out.items()}
    while True:
        ratio, bias = _policy_values(index, weight, policy)
        improved = False
        # Ratio improvement: move towards a cycle of higher ratio.
        for t, edges in out.items():
            best = max(edges, key=lambda e: ratio[target[e]])
            if ratio[target[best]] > ratio[t] + eps:
                policy[t] = best
                improved = True
        if not improved:
            # Bias improvement among edges that keep the ratio.
            for t, edges in out.items():
                level = ratio[t]
                best_value = bias[t] + eps
                for edge in edges:
                    if abs(ratio[target[edge]] - level) > eps:
                        continue
                    value = (weight[edge] - level * tokens[edge]
                             + bias[target[edge]])
                    if value > best_value:
                        policy[t] = edge
                        best_value = value
                        improved = True
        if not improved:
            break
    start = max(out, key=lambda t: ratio[t])
    seen: set[int] = set()
    node = start
    while node not in seen:
        seen.add(node)
        node = target[policy[node]]
    cycle = [node]
    walker = target[policy[node]]
    while walker != node:
        cycle.append(walker)
        walker = target[policy[walker]]
    return ratio[start], cycle


def cycle_time(graph: MarkedGraph) -> CycleTimeResult:
    """Maximum cycle ratio of a live timed marked graph.

    Raises :class:`PetriError` if the graph has a token-free cycle (not
    live — the ratio would be infinite).  A graph with no cycle of
    positive delay (a finite pipeline with no feedback, or zero-delay
    feedback) has period 0.  Traced as a ``model:cycle_time`` span.
    """
    with TRACER.span("model:cycle_time", graph=graph.name,
                     transitions=len(graph.transitions)) as span:
        result = _cycle_time(graph)
        span.set(cycle_time=result.cycle_time)
    return result


def _cycle_time(graph: MarkedGraph) -> CycleTimeResult:
    index = graph.index()
    if not index.live:
        raise PetriError(
            f"{graph.name}: token-free cycle -> unbounded cycle ratio")
    # The weight of edge u -> v: v's firing delay plus the edge's own.
    weight = [index.delay[t] + delay
              for t, delay in zip(index.target, index.edge_delay)]
    out = _cyclic_core(index)
    if not out:
        return CycleTimeResult(0.0, [], 0.0, 0)
    best, cycle = _howard(index, weight, out)
    if best <= 0.0:
        return CycleTimeResult(0.0, [], 0.0, 0)
    delay_sum, token_sum = _cycle_metrics(index, weight, cycle)
    return CycleTimeResult(delay_sum / token_sum,
                           [index.names[t] for t in cycle], delay_sum,
                           token_sum)


def _cycle_metrics(index: MgIndex, weight: list[float],
                   cycle: list[int]) -> tuple[float, int]:
    """Delay and token sums along ``cycle`` (choosing, between parallel
    edges, the one with minimum tokens then maximum delay — the binding
    constraint)."""
    delay_sum = 0.0
    token_sum = 0
    for i, source in enumerate(cycle):
        target = cycle[(i + 1) % len(cycle)]
        best = min((e for e in index.out_edges[source]
                    if index.target[e] == target),
                   key=lambda e: (index.tokens[e], -weight[e]))
        delay_sum += weight[best]
        token_sum += index.tokens[best]
    return delay_sum, token_sum


def total_tokens(graph: MarkedGraph) -> int:
    """Total tokens in the initial marking."""
    return sum(graph.initial_marking.values())
