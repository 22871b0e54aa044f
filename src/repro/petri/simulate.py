"""Timed simulation of marked graphs.

The de-synchronization controllers are modelled as a timed marked graph;
this module executes it: each transition fires as soon as tokens are
available on all of its input edges, taking its firing delay, and tokens
propagate along edges with the edge's extra delay (the matched delay of the
combinational logic between latches).

Timed marked graphs are *confluent*: firing order does not change the
timestamps, and the k-th firing of ``t`` consumes the k-th token of each
input edge.  So the earliest firing times obey the max-plus recurrence

    x_t(k) = d_t + max over edges e = s -> t of a_e(k),
    a_e(k) = 0 if k <= M0(e), else x_s(k - M0(e)) + d_e

(an initial token is available at time 0), evaluated round by round in a
topological order of the token-free subgraph of the graph's
:class:`~repro.petri.marked_graph.MgIndex`.  The trace of ``x+`` / ``x-``
events is what the Figure-3 timing diagram plots, and the event counts
drive the controller-power model.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.petri.marked_graph import MarkedGraph
from repro.utils.errors import PetriError


@dataclass(frozen=True)
class TimedEvent:
    """One transition firing: ``transition`` fired at ``time`` (ps),
    for the ``count``-th time (1-based)."""

    time: float
    transition: str
    count: int


@dataclass
class TimedTrace:
    """The result of a timed marked-graph simulation.

    Per-transition lookups group :attr:`events` once, on first use.
    """

    events: list[TimedEvent] = field(default_factory=list)
    _by_transition: dict[str, list[TimedEvent]] | None = field(
        default=None, init=False, repr=False, compare=False)

    def of_transition(self, name: str) -> list[TimedEvent]:
        if self._by_transition is None:
            self._by_transition = {}
            for event in self.events:
                self._by_transition.setdefault(
                    event.transition, []).append(event)
        return list(self._by_transition.get(name, ()))

    def times_of(self, name: str) -> list[float]:
        return [e.time for e in self.of_transition(name)]

    def firing_counts(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for event in self.events:
            counts[event.transition] = counts.get(event.transition, 0) + 1
        return counts

    @property
    def horizon(self) -> float:
        return self.events[-1].time if self.events else 0.0

    def steady_period(self, transition: str, settle: int = 2) -> float:
        """Estimate the steady-state period of ``transition``.

        Averages inter-firing intervals after discarding the first
        ``settle`` firings (start-up transient).
        """
        times = self.times_of(transition)
        if len(times) < settle + 2:
            raise PetriError(
                f"not enough firings of {transition} to estimate a period "
                f"({len(times)} recorded)")
        tail = times[settle:]
        return (tail[-1] - tail[0]) / (len(tail) - 1)


def simulate(graph: MarkedGraph, rounds: int = 10) -> TimedTrace:
    """Run the timed semantics for ``rounds`` firings of every transition.

    Events come out ordered by ``(time, transition, count)``.  Raises
    :class:`PetriError` naming a transition on a token-free cycle when
    the graph is not live (no transition on it ever fires).
    """
    index = graph.index()
    stuck = index.token_free_cycle()
    if stuck is not None:
        raise PetriError(
            f"{graph.name}: {index.names[stuck]} lies on a token-free "
            "cycle, so the timed run never fires it")
    inputs = [[(index.source[e], index.tokens[e], index.edge_delay[e])
               for e in index.in_edges[t]] for t in range(len(index.names))]
    times: list[list[float]] = [[] for _ in index.names]
    for k in range(rounds):
        for t in index.order:
            # max(..., default=0.0), unrolled: the first of equal values wins.
            arrival = None
            for s, tokens, delay in inputs[t]:
                value = 0.0 if k < tokens else times[s][k - tokens] + delay
                if arrival is None or value > arrival:
                    arrival = value
            times[t].append((0.0 if arrival is None else arrival)
                            + index.delay[t])
    firings = sorted((time, name, count)
                     for name, fired in zip(index.names, times)
                     for count, time in enumerate(fired, 1))
    return TimedTrace([TimedEvent(*firing) for firing in firings])
