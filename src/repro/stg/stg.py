"""Signal Transition Graphs (STGs).

An STG is a Petri net whose transitions are labelled with signal edges
(``a+`` = signal ``a`` rises, ``a-`` = it falls).  The de-synchronization
model labels transitions with latch-control events: ``x+`` means latch
bank ``x`` becomes transparent, ``x-`` means it closes and captures.

In every model generated here each signal has exactly one rising and one
falling transition, so transition names double as labels.  The class still
carries an explicit label map so composed or hand-built STGs with repeated
labels remain expressible.
"""

from __future__ import annotations

from itertools import islice

from repro.obs.trace import TRACER
from repro.petri.marked_graph import MarkedGraph
from repro.utils.errors import StgError

RISE = "+"
FALL = "-"


def transition_name(signal: str, sign: str) -> str:
    """Canonical transition name for a signal edge, e.g. ``('a', '+') -> 'a+'``."""
    if sign not in (RISE, FALL):
        raise StgError(f"sign must be '+' or '-', got {sign!r}")
    return f"{signal}{sign}"


def parse_label(label: str) -> tuple[str, str]:
    """Split a transition label into ``(signal, sign)``."""
    if len(label) < 2 or label[-1] not in (RISE, FALL):
        raise StgError(f"malformed STG label {label!r}")
    return label[:-1], label[-1]


class Stg(MarkedGraph):
    """A marked-graph STG with initial signal values.

    Attributes:
        initial_values: signal -> 0/1 value in the initial state.  In the
            de-synchronization model even (master) latches start
            transparent (1) and odd (slave) latches opaque (0), matching
            a synchronous circuit observed with the clock low.
    """

    def __init__(self, name: str):
        super().__init__(name)
        self.initial_values: dict[str, int] = {}

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def add_signal(self, signal: str, initial: int, delay: float = 0.0,
                   ) -> tuple[str, str]:
        """Declare ``signal`` with both of its transitions.

        Returns the ``(rise, fall)`` transition names.
        """
        if signal in self.initial_values:
            raise StgError(f"duplicate signal {signal}")
        self.initial_values[signal] = 1 if initial else 0
        rise = transition_name(signal, RISE)
        fall = transition_name(signal, FALL)
        self.add_transition(rise, delay=delay, label=rise)
        self.add_transition(fall, delay=delay, label=fall)
        return rise, fall

    def signals(self) -> list[str]:
        return sorted(self.initial_values)

    def signal_of(self, transition: str) -> tuple[str, str]:
        label = self.transitions[transition].label or transition
        return parse_label(label)

    # ------------------------------------------------------------------
    # semantic checks
    # ------------------------------------------------------------------
    def check_model(self, bound: int = 2) -> None:
        """Full validation: marked-graph structure, liveness, boundedness
        and consistency — the properties ref [1] establishes for the
        composed de-synchronization model.

        The composed model is 1-safe along the canonical schedule but
        boundary latches may transiently run one handshake ahead under
        maximally-reordered interleavings, so the default boundedness
        check allows two tokens per place (see
        :mod:`repro.stg.patterns`).

        Every check is exact and polynomial.  Once the graph is live, each
        is a threshold on a token distance δ: the place of edge t -> u
        holds at most ``M0 + δ(u, t)`` tokens, and a signal starting at 0
        alternates iff δ(a-, a+) <= 1 and δ(a+, a-) = 0 (mirrored for a
        signal starting at 1).  ``max(bound, 1) + 1`` levels of the
        bit-parallel closure ``MgIndex.distance_levels`` answer them all.
        Since the firing counts of a live marked graph are determined by
        its marking up to a constant per connected component, the marking
        also determines the signal state.  Each signal must own exactly
        one rising and one falling transition.  Traced as a
        ``model:check`` span.
        """
        with TRACER.span("model:check", stg=self.name,
                         transitions=len(self.transitions)):
            self._check_model(bound)

    def _check_model(self, bound: int) -> None:
        index = self.index()
        if not index.live:
            raise StgError(f"STG {self.name} is not live (token-free cycle)")
        # ``within[k][u] >> t & 1`` iff δ(u, t) <= k.
        within = list(islice(index.distance_levels(), max(bound, 1) + 1))
        within += [within[-1]] * (max(bound, 1) + 1 - len(within))
        for place, s, t, tokens in zip(index.places, index.source,
                                       index.target, index.tokens):
            if tokens > bound or not within[bound - tokens][t] >> s & 1:
                raise StgError(f"STG {self.name} is not {bound}-bounded "
                               f"(place {place})")
        edges: dict[str, dict[str, list[str]]] = {
            signal: {RISE: [], FALL: []} for signal in self.initial_values}
        for transition in self.transitions:
            signal, sign = self.signal_of(transition)
            if signal not in edges:
                raise StgError(f"transition {transition} on undeclared "
                               f"signal {signal}")
            edges[signal][sign].append(transition)
        for signal, initial in self.initial_values.items():
            rises, falls = edges[signal][RISE], edges[signal][FALL]
            if len(rises) != 1 or len(falls) != 1:
                raise StgError(
                    f"STG {self.name}: signal {signal} has {len(rises)} "
                    f"rising and {len(falls)} falling transitions (the "
                    "model check needs exactly one of each)")
            # ``lead`` fires first from the initial value; max(#x - #y)
            # over all firing sequences is δ(y, x).
            lead, trail = ((rises[0], falls[0]) if initial == 0
                           else (falls[0], rises[0]))
            x, y = index.position[lead], index.position[trail]
            if not within[1][y] >> x & 1:
                raise StgError(
                    f"inconsistent STG {self.name}: {lead} can fire while "
                    f"{signal}={1 - initial}")
            if not within[0][x] >> y & 1:
                raise StgError(
                    f"inconsistent STG {self.name}: {trail} can fire while "
                    f"{signal}={initial}")


def compose(components: list[Stg], name: str) -> Stg:
    """Parallel composition of STGs, merging transitions by label.

    This is how the paper builds the global de-synchronization model:
    pairwise latch-interaction patterns share the transitions of common
    latches and their places are simply united.  Initial signal values of
    shared signals must agree.
    """
    if not components:
        raise StgError("cannot compose an empty list of STGs")
    result = Stg(name)
    for component in components:
        for signal, value in component.initial_values.items():
            known = result.initial_values.get(signal)
            if known is None:
                result.add_signal(signal, value)
            elif known != value:
                raise StgError(
                    f"composition conflict: signal {signal} starts at "
                    f"{known} in one component and {value} in another")
        # Merge transition delays (max wins: the slowest implementation
        # of a shared event bounds the composed behaviour).
        for transition in component.transitions.values():
            label = transition.label or transition.name
            existing = result.transitions.get(label)
            if existing is not None and transition.delay > existing.delay:
                result.set_transition_delay(label, transition.delay)
    for index, component in enumerate(components):
        for edge in component.edges():
            src_label = component.transitions[edge.source].label or edge.source
            dst_label = component.transitions[edge.target].label or edge.target
            result.connect(src_label, dst_label, tokens=edge.tokens,
                           delay=edge.delay,
                           place=f"c{index}:{edge.place}")
    return result
