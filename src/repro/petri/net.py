"""General Petri net data model with interleaving (step) semantics.

The de-synchronization model of the paper is a *marked graph* (a Petri net
where every place has exactly one producer and one consumer); the general
net is kept simple and the marked-graph specialization lives in
:mod:`repro.petri.marked_graph`.

Markings are plain ``dict[str, int]`` mappings from place name to token
count, so analysis code can explore reachability without mutating the net.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass, field

from repro.utils.errors import PetriError


@dataclass(frozen=True)
class Place:
    """A Petri net place (token holder)."""

    name: str


@dataclass(frozen=True)
class Transition:
    """A Petri net transition.

    Attributes:
        name: unique transition name.
        delay: firing latency in picoseconds (used by the timed semantics).
        label: optional event label (used by STGs: e.g. ``"a+"``).
    """

    name: str
    delay: float = 0.0
    label: str | None = None


Marking = dict[str, int]


class PetriNet:
    """A Petri net with unit arc weights.

    Arcs are stored as adjacency lists: ``pre[t]`` is the list of places
    consumed by transition ``t`` and ``post[t]`` the list of places
    produced into; ``place_pre``/``place_post`` give the mirror view.
    """

    def __init__(self, name: str):
        self.name = name
        self.places: dict[str, Place] = {}
        self.transitions: dict[str, Transition] = {}
        self.pre: dict[str, list[str]] = {}         # transition -> places in
        self.post: dict[str, list[str]] = {}        # transition -> places out
        self.place_pre: dict[str, list[str]] = {}   # place -> producing transitions
        self.place_post: dict[str, list[str]] = {}  # place -> consuming transitions
        self.initial_marking: Marking = {}
        # Analysis index of a subclass (MarkedGraph.index); every mutating
        # call drops it.
        self._index = None

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def add_place(self, name: str, tokens: int = 0) -> Place:
        if name in self.places:
            raise PetriError(f"duplicate place {name}")
        if tokens < 0:
            raise PetriError(f"negative initial marking on {name}")
        place = Place(name)
        self.places[name] = place
        self.place_pre[name] = []
        self.place_post[name] = []
        if tokens:
            self.initial_marking[name] = tokens
        self._index = None
        return place

    def add_transition(self, name: str, delay: float = 0.0,
                       label: str | None = None) -> Transition:
        if name in self.transitions:
            raise PetriError(f"duplicate transition {name}")
        transition = Transition(name, delay, label)
        self.transitions[name] = transition
        self.pre[name] = []
        self.post[name] = []
        self._index = None
        return transition

    def set_transition_delay(self, name: str, delay: float) -> None:
        """Replace the firing delay of transition ``name``."""
        existing = self.transitions.get(name)
        if existing is None:
            raise PetriError(f"unknown transition {name}")
        self.transitions[name] = Transition(name, delay, existing.label)
        self._index = None

    def add_arc(self, source: str, target: str) -> None:
        """Add an arc; direction is inferred from the endpoint types."""
        if source in self.places and target in self.transitions:
            self.pre[target].append(source)
            self.place_post[source].append(target)
        elif source in self.transitions and target in self.places:
            self.post[source].append(target)
            self.place_pre[target].append(source)
        else:
            raise PetriError(
                f"arc {source} -> {target}: endpoints must be one place "
                "and one transition, in that order or reversed")
        self._index = None

    def set_tokens(self, place: str, tokens: int) -> None:
        if place not in self.places:
            raise PetriError(f"unknown place {place}")
        if tokens < 0:
            raise PetriError(f"negative marking on {place}")
        if tokens:
            self.initial_marking[place] = tokens
        else:
            self.initial_marking.pop(place, None)
        self._index = None

    # ------------------------------------------------------------------
    # semantics
    # ------------------------------------------------------------------
    def marking(self) -> Marking:
        """A fresh copy of the initial marking."""
        return dict(self.initial_marking)

    def is_enabled(self, marking: Marking, transition: str) -> bool:
        return all(marking.get(p, 0) >= 1 for p in self.pre[transition])

    def enabled_transitions(self, marking: Marking) -> list[str]:
        return [t for t in self.transitions if self.is_enabled(marking, t)]

    def fire(self, marking: Marking, transition: str) -> Marking:
        """Fire ``transition``; returns the successor marking (input unchanged)."""
        if not self.is_enabled(marking, transition):
            raise PetriError(f"transition {transition} is not enabled")
        successor = dict(marking)
        for place in self.pre[transition]:
            remaining = successor[place] - 1
            if remaining:
                successor[place] = remaining
            else:
                del successor[place]
        for place in self.post[transition]:
            successor[place] = successor.get(place, 0) + 1
        return successor

    def fire_sequence(self, marking: Marking,
                      sequence: Iterable[str]) -> Marking:
        for transition in sequence:
            marking = self.fire(marking, transition)
        return marking

    # ------------------------------------------------------------------
    # exploration
    # ------------------------------------------------------------------
    def reachable_markings(self, max_states: int = 100_000) -> list[Marking]:
        """BFS over the reachability graph from the initial marking.

        Raises :class:`PetriError` if more than ``max_states`` markings are
        found (the net is unbounded or just too large to explore).
        """
        def freeze(m: Marking) -> tuple[tuple[str, int], ...]:
            return tuple(sorted(m.items()))

        start = self.marking()
        seen = {freeze(start)}
        frontier = [start]
        result = [start]
        while frontier:
            current = frontier.pop()
            for transition in self.enabled_transitions(current):
                successor = self.fire(current, transition)
                key = freeze(successor)
                if key in seen:
                    continue
                seen.add(key)
                if len(seen) > max_states:
                    raise PetriError(
                        f"reachability exceeded {max_states} markings")
                frontier.append(successor)
                result.append(successor)
        return result

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"PetriNet({self.name!r}, |P|={len(self.places)}, "
                f"|T|={len(self.transitions)})")
