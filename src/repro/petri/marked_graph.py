"""Marked graphs: the Petri net subclass underlying de-synchronization.

A marked graph (MG) is a Petri net in which every place has exactly one
producing and one consuming transition — concurrency without choice.  The
paper's de-synchronization model (Figures 2-4) is a marked graph whose
transitions are latch-control events (``x+`` = latch x becomes transparent,
``x-`` = latch x closes).

Because each place connects exactly one pair of transitions, an MG is
equivalently a directed multigraph whose *edges* carry tokens; all the
classic results used here come from that view, so none of them walks the
reachability graph:

* **liveness**: an MG is live iff every directed cycle carries >= 1 token
  (equivalently: the token-free subgraph is acyclic) [Commoner et al. 1971];
* **token distance**: write δ(u, t) for the fewest tokens on a directed
  path u -> t (δ(u, u) = 0).  Along any firing sequence from the initial
  marking, ``#t - #u <= δ(u, t)`` (every edge of the path keeps a
  non-negative marking), and in a live MG the maximum is attained;
* **boundedness**: in a live MG the place of edge t -> u holds at most
  ``M0 + δ(u, t)`` tokens, and that many in some reachable marking — the
  minimum token count of the cycles through the edge; the place is
  unbounded when u cannot reach t (:meth:`MarkedGraph.place_bounds`);
* **safety** (1-boundedness): a live MG marking is therefore safe iff
  every edge lies on some cycle with token count exactly 1;
* **cycle time**: with transition delays, the steady-state cycle time is
  the maximum cycle ratio max_C sum(delay)/sum(tokens) — computed in
  :mod:`repro.petri.analysis`.

Every analysis reads one integer view of the graph, :class:`MgIndex`,
built on first use and dropped by every mutating call.  The checks ask
only threshold questions of δ, so a bit-parallel closure answers them
(:meth:`MgIndex.distance_levels`), signal consistency of an STG
included (:meth:`repro.stg.stg.Stg.check_model`).  The reachability methods of
:class:`~repro.petri.net.PetriNet` remain as an independent oracle for
small nets in the test suite.
"""

from __future__ import annotations

import functools
from collections.abc import Iterator
from dataclasses import dataclass

from repro.petri.net import PetriNet
from repro.utils.errors import NotAMarkedGraphError, PetriError


@dataclass(frozen=True)
class MgEdge:
    """One marked-graph edge (a place between two transitions).

    Attributes:
        place: underlying place name.
        source: producing transition name.
        target: consuming transition name.
        tokens: initial token count.
        delay: extra propagation delay in ps carried by this edge, on top
            of the target transition's own delay (used for matched delays).
    """

    place: str
    source: str
    target: str
    tokens: int
    delay: float = 0.0


class MgIndex:
    """Integer view of a marked graph, shared by every analysis.

    Transitions are numbered in insertion order (``names``), edges in
    place order (``places``, ``source``, ``target``, ``tokens``,
    ``edge_delay``; ``in_edges``/``out_edges`` per transition).
    ``order`` is a Kahn topological order of the token-free subgraph: it
    covers every transition iff the graph is :attr:`live`.
    """

    def __init__(self, graph: MarkedGraph):
        self.names = list(graph.transitions)
        self.position = position = {name: t
                                    for t, name in enumerate(self.names)}
        self.delay = [t.delay for t in graph.transitions.values()]
        self.places = places = list(graph.places)
        marking, delays = graph.initial_marking, graph._edge_delays
        self.source = [position[graph.place_pre[p][0]] for p in places]
        self.target = [position[graph.place_post[p][0]] for p in places]
        self.tokens = [marking.get(p, 0) for p in places]
        self.edge_delay = [delays.get(p, 0.0) for p in places]
        self.in_edges: list[list[int]] = [[] for _ in self.names]
        self.out_edges: list[list[int]] = [[] for _ in self.names]
        # Kahn's algorithm on the token-free subgraph.
        indegree = [0] * len(self.names)
        free: list[list[int]] = [[] for _ in self.names]
        for e, (s, t, m) in enumerate(zip(self.source, self.target,
                                          self.tokens)):
            self.out_edges[s].append(e)
            self.in_edges[t].append(e)
            if not m:
                free[s].append(t)
                indegree[t] += 1
        stack = [t for t, degree in enumerate(indegree) if degree == 0]
        self.order: list[int] = []
        while stack:
            node = stack.pop()
            self.order.append(node)
            for t in free[node]:
                indegree[t] -= 1
                if indegree[t] == 0:
                    stack.append(t)

    @functools.cached_property
    def edges(self) -> list[MgEdge]:
        """The edges as :class:`MgEdge` records, in place order."""
        return [MgEdge(place, self.names[s], self.names[t], m, delay)
                for place, s, t, m, delay in zip(
                    self.places, self.source, self.target, self.tokens,
                    self.edge_delay)]

    @property
    def live(self) -> bool:
        """Every directed cycle carries a token (Commoner's theorem)."""
        return len(self.order) == len(self.names)

    def token_free_cycle(self) -> int | None:
        """One transition on a token-free cycle, or ``None`` if live.

        Every transition Kahn's algorithm left over keeps a token-free
        in-edge from another left-over one, so walking those edges
        backwards from the first of them must close a cycle.
        """
        if self.live:
            return None
        stuck = set(range(len(self.names))) - set(self.order)
        node = min(stuck)
        seen: set[int] = set()
        while node not in seen:
            seen.add(node)
            node = next(self.source[e] for e in self.in_edges[node]
                        if not self.tokens[e] and self.source[e] in stuck)
        return node

    def distance_levels(self) -> Iterator[list[int]]:
        """Yield ``D_0, D_1, ...``: bit ``t`` of ``D_k[u]`` is set iff
        δ(u, t) <= k.

        ``D_k[u]`` is ``u`` OR ``D_k[v]`` over token-free edges ``u -> v``
        OR ``D_{k-m}[v]`` over edges carrying ``m <= k`` tokens: one pass
        in reverse topological order of the token-free subgraph.  On a
        non-live graph, the transitions Kahn's algorithm left over are
        closed under token-free successors and settle in as many passes
        as there are of them.  Stops once the last ``max(tokens) + 1``
        levels agree, since no later level can differ.
        """
        stuck = sorted(set(range(len(self.names))) - set(self.order))
        rows: list[tuple[int, list[int], list[tuple[int, int]]]] = [
            (u, [], []) for u in range(len(self.names))]
        for s, t, m in zip(self.source, self.target, self.tokens):
            if m:
                rows[s][2].append((t, m))
            else:
                rows[s][1].append(t)
        sweep = ([rows[u] for u in stuck] * len(stuck)
                 + [rows[u] for u in reversed(self.order)])
        units = [1 << t for t in range(len(self.names))]
        most = max(self.tokens, default=0)
        levels: list[list[int]] = []
        unchanged = 0
        while True:
            k = len(levels)
            level = units[:]
            for u, free, marked in sweep:
                bits = level[u]
                for v in free:
                    bits |= level[v]
                for v, m in marked:
                    if m <= k:
                        bits |= levels[k - m][v]
                level[u] = bits
            unchanged = unchanged + 1 if levels and level == levels[-1] else 0
            levels.append(level)
            yield level
            if unchanged == most:
                return


class MarkedGraph(PetriNet):
    """A Petri net restricted to marked-graph structure.

    Use :meth:`connect` to build edges place-free (a place is created
    automatically per edge); :meth:`check_structure` validates nets built
    through the raw :class:`PetriNet` API.
    """

    def __init__(self, name: str):
        super().__init__(name)
        self._edge_delays: dict[str, float] = {}
        self._edge_counter = 0

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def connect(self, source: str, target: str, tokens: int = 0,
                delay: float = 0.0, place: str | None = None) -> MgEdge:
        """Add an edge ``source -> target`` between two transitions."""
        for transition in (source, target):
            if transition not in self.transitions:
                raise PetriError(f"unknown transition {transition}")
        if place is None:
            place = f"p{self._edge_counter}:{source}->{target}"
            self._edge_counter += 1
        self.add_place(place, tokens)
        self.add_arc(place, target)
        self.add_arc(source, place)
        if delay:
            self._edge_delays[place] = delay
        return MgEdge(place, source, target, tokens, delay)

    def edge_delay(self, place: str) -> float:
        return self._edge_delays.get(place, 0.0)

    def set_edge_delay(self, place: str, delay: float) -> None:
        if place not in self.places:
            raise PetriError(f"unknown place {place}")
        self._edge_delays[place] = delay
        self._index = None

    # ------------------------------------------------------------------
    # structure
    # ------------------------------------------------------------------
    def check_structure(self) -> None:
        """Raise :class:`NotAMarkedGraphError` unless every place has
        exactly one producer and one consumer."""
        for place in self.places:
            n_pre = len(self.place_pre[place])
            n_post = len(self.place_post[place])
            if n_pre != 1 or n_post != 1:
                raise NotAMarkedGraphError(
                    f"place {place} has {n_pre} producers and "
                    f"{n_post} consumers (each must be exactly 1)")

    def index(self) -> MgIndex:
        """The graph's :class:`MgIndex`, built once per structure (every
        mutating call drops it)."""
        if self._index is None:
            self.check_structure()
            self._index = MgIndex(self)
        return self._index

    def edges(self) -> list[MgEdge]:
        """All edges of the graph view."""
        return list(self.index().edges)

    def successors(self, transition: str) -> list[str]:
        return [self.place_post[p][0] for p in self.post[transition]]

    def predecessors(self, transition: str) -> list[str]:
        return [self.place_pre[p][0] for p in self.pre[transition]]

    # ------------------------------------------------------------------
    # classic marked-graph properties
    # ------------------------------------------------------------------
    def is_live(self) -> bool:
        """True iff every directed cycle carries at least one token.

        Checked as: the subgraph of token-free edges is acyclic (Commoner's
        theorem for marked graphs).
        """
        return self.index().live

    def place_bounds(self) -> dict[str, int | None]:
        """The most tokens each place holds over all reachable markings.

        Exact for a *live* marked graph: ``M0 + δ(u, t)`` for the place of
        edge t -> u, ``None`` (unbounded) when u cannot reach t.
        """
        index = self.index()
        bounds: list[int | None] = [None] * len(index.places)
        undecided = range(len(index.places))
        for k, level in enumerate(index.distance_levels()):
            left = []
            for e in undecided:
                if level[index.target[e]] >> index.source[e] & 1:
                    bounds[e] = index.tokens[e] + k
                else:
                    left.append(e)
            undecided = left
            if not undecided:
                break
        return dict(zip(index.places, bounds))

    def is_safe(self) -> bool:
        """True iff no reachable marking puts more than one token in a place.

        Decided structurally (every place's :meth:`place_bounds` is at
        most 1), which needs liveness: raises :class:`PetriError` on a
        non-live graph.
        """
        if not self.is_live():
            raise PetriError(
                f"{self.name}: structural safety needs a live marked graph")
        return all(bound is not None and bound <= 1
                   for bound in self.place_bounds().values())
