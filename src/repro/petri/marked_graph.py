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

Signal consistency of an STG follows from token distances too (see
:meth:`repro.stg.stg.Stg.check_model`).  The reachability methods of
:class:`~repro.petri.net.PetriNet` remain as an independent oracle for
small nets in the test suite.
"""

from __future__ import annotations

import heapq
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

    def edges(self) -> list[MgEdge]:
        """All edges of the graph view."""
        self.check_structure()
        result = []
        for place in self.places:
            source = self.place_pre[place][0]
            target = self.place_post[place][0]
            result.append(MgEdge(place, source, target,
                                 self.initial_marking.get(place, 0),
                                 self.edge_delay(place)))
        return result

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
        self.check_structure()
        adjacency: dict[str, list[str]] = {t: [] for t in self.transitions}
        for edge in self.edges():
            if edge.tokens == 0:
                adjacency[edge.source].append(edge.target)
        # Kahn's algorithm on the token-free subgraph.
        indegree = {t: 0 for t in self.transitions}
        for source, targets in adjacency.items():
            for target in targets:
                indegree[target] += 1
        queue = [t for t, deg in indegree.items() if deg == 0]
        visited = 0
        while queue:
            node = queue.pop()
            visited += 1
            for target in adjacency[node]:
                indegree[target] -= 1
                if indegree[target] == 0:
                    queue.append(target)
        return visited == len(self.transitions)

    def token_distances(self) -> dict[str, dict[str, int]]:
        """δ(u, t), the fewest tokens on a directed path u -> t.

        ``result[u]`` maps every transition reachable from ``u`` (``u``
        itself included, at 0) to its token distance; one Dijkstra run
        per source transition, since token counts are non-negative.
        """
        self.check_structure()
        out: dict[str, list[tuple[str, int]]] = {
            t: [] for t in self.transitions}
        for place in self.places:
            out[self.place_pre[place][0]].append(
                (self.place_post[place][0],
                 self.initial_marking.get(place, 0)))
        distances: dict[str, dict[str, int]] = {}
        for source in self.transitions:
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

    def place_bounds(self, distances: dict[str, dict[str, int]] | None = None,
                     ) -> dict[str, int | None]:
        """The most tokens each place holds over all reachable markings.

        Exact for a *live* marked graph: ``M0 + δ(u, t)`` for the place of
        edge t -> u, ``None`` (unbounded) when u cannot reach t.  Pass
        precomputed :meth:`token_distances` to share them with other
        checks.
        """
        if distances is None:
            distances = self.token_distances()
        bounds: dict[str, int | None] = {}
        for place in self.places:
            distance = distances[self.place_post[place][0]].get(
                self.place_pre[place][0])
            bounds[place] = (None if distance is None else
                             self.initial_marking.get(place, 0) + distance)
        return bounds

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

