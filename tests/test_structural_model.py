"""Structural model checks, timed simulation and Howard cycle time
against brute-force oracles.

``Stg.check_model`` decides liveness, boundedness and consistency from
a bit-parallel token-distance closure, :func:`repro.petri.simulate`
evaluates the max-plus recurrence, and :func:`repro.petri.cycle_time`
runs Howard's policy iteration; none enumerates anything.  These tests
hold them to the explicit-state, per-source Dijkstra, worklist and
enumerate-every-cycle answers of ``tests/oracles.py`` on nets small
enough for those to finish: the corpus's core-tier models, seeded
single-token mutants of them (which must produce every verdict class,
so the check is shown able to refute), and random marked graphs with
parallel edges, self-loops, multi-token edges and token-free cycles.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.corpus import generate, names
from repro.desync import (DesyncOptions, HandshakeMode, desynchronize,
                          run_pipeline)
from repro.petri import MarkedGraph, cycle_time, simulate
from repro.stg import Stg, compose
from repro.utils.errors import PetriError, ReproError, StgError
from tests import oracles
from tests.circuits import inverter_pipeline

#: Markings the reachability oracle may visit before it gives up; the
#: comparison is skipped for nets beyond it.
ORACLE_CAP = 500

#: ``(label, pipeline, handshake mode)`` of every model built per config.
MODEL_KINDS = (
    ("serial", "desync", HandshakeMode.SERIAL),
    ("overlap", "desync", HandshakeMode.OVERLAP),
    ("dlap", "doubly_latched", HandshakeMode.OVERLAP),
    ("nonoverlap", "nonoverlap", HandshakeMode.OVERLAP),
)

MUTATIONS = ("move", "add", "reverse")


def structural_verdict(stg: Stg) -> str:
    try:
        stg.check_model()
    except StgError as exc:
        message = str(exc)
        for needle, verdict in (("not live", "not-live"),
                                ("bounded", "unbounded"),
                                ("inconsistent", "inconsistent")):
            if needle in message:
                return verdict
        raise
    return "ok"


def outcome(check, *args):
    """What ``check(*args)`` returns, or the text of the error it raises."""
    try:
        return check(*args)
    except ReproError as exc:
        return f"{type(exc).__name__}: {exc}"


def oracle_verdict(stg: Stg) -> str | None:
    """The same verdict from explicit state exploration, or ``None``
    when the state space exceeds :data:`ORACLE_CAP`.

    A marked graph is live iff every transition fires in some reachable
    marking (a transition on a token-free cycle never does).
    """
    try:
        markings = stg.reachable_markings(max_states=ORACLE_CAP)
    except PetriError:
        return None
    fired = {t for marking in markings
             for t in stg.enabled_transitions(marking)}
    if fired != set(stg.transitions):
        return "not-live"
    if not oracles.is_bounded(stg, 2, max_states=ORACLE_CAP):
        return "unbounded"
    try:
        oracles.check_consistency(stg, max_states=ORACLE_CAP)
    except StgError as exc:
        if "exceeded" in str(exc):
            return None
        return "inconsistent"
    return "ok"


def mutant(stg: Stg, kind: str, rng: random.Random) -> Stg:
    """A copy of ``stg`` with one token moved or added, or one arc
    reversed (its tokens kept)."""
    edges = stg.edges()
    target = rng.randrange(len(edges))
    tokens = [edge.tokens for edge in edges]
    ends = [(edge.source, edge.target) for edge in edges]
    if kind == "move":
        marked = [i for i, count in enumerate(tokens) if count]
        source = rng.choice(marked)
        tokens[source] -= 1
        tokens[target] += 1
    elif kind == "add":
        tokens[target] += 1
    else:
        ends[target] = ends[target][::-1]
    copy = Stg(f"{stg.name}~{kind}")
    for signal, value in stg.initial_values.items():
        copy.add_signal(signal, value)
    for index, (source, sink) in enumerate(ends):
        copy.connect(source, sink, tokens=tokens[index])
    return copy


def core_models():
    for config in names("core"):
        netlist = generate(config)
        for label, pipeline, mode in MODEL_KINDS:
            ctx = run_pipeline(netlist, DesyncOptions(mode=mode),
                               pipeline=pipeline)
            yield f"{config}/{label}", ctx.model


def core_models_and_mutants():
    """Every core-tier model, then two seeded mutants of each kind."""
    rng = random.Random(13)
    for name, model in core_models():
        yield name, model
        for kind in MUTATIONS:
            for _ in range(2):
                yield f"{name}~{kind}", mutant(model, kind, rng)


@pytest.fixture(scope="module")
def agreements():
    """``(name, verdict)`` for every core-tier model and mutant that the
    oracle decided; asserts agreement on each along the way."""
    rng = random.Random(13)
    decided = []
    for name, model in core_models():
        expected = oracle_verdict(model)
        if expected is None:
            continue
        assert structural_verdict(model) == expected, name
        decided.append((name, expected))
        for kind in MUTATIONS:
            for _ in range(2):
                variant = mutant(model, kind, rng)
                expected = oracle_verdict(variant)
                if expected is None:
                    continue
                assert structural_verdict(variant) == expected, (
                    name, kind, variant.initial_marking)
                decided.append((f"{name}~{kind}", expected))
    return decided


class TestStructuralModelCheck:
    def test_every_core_model_is_valid(self):
        for name, model in core_models():
            assert structural_verdict(model) == "ok", name

    def test_agrees_with_reachability_oracle(self, agreements):
        # Most core models are small enough for the oracle.
        assert sum("~" not in name for name, _ in agreements) >= 30

    def test_mutants_reach_every_verdict(self, agreements):
        verdicts = {verdict for name, verdict in agreements if "~" in name}
        assert verdicts == {"ok", "not-live", "unbounded", "inconsistent"}

    def test_messages_match_dijkstra_oracle(self):
        # Same verdict, same first failing place or signal, same text, on
        # every model and mutant (none is too big for the oracle).
        verdicts = set()
        for name, model in core_models_and_mutants():
            got = outcome(model.check_model)
            assert got == outcome(oracles.check_model, model), name
            verdicts.add(structural_verdict(model))
        assert verdicts == {"ok", "not-live", "unbounded", "inconsistent"}

    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_random_stg_messages_match_dijkstra_oracle(self, data):
        stg = data.draw(random_stgs())
        for bound in (0, 1, 2, 3):
            assert outcome(stg.check_model, bound) \
                == outcome(oracles.check_model, stg, bound)

    def test_unreachable_place_is_unbounded(self):
        # b never feeds back to a, so the a -> b place grows without bound
        # as soon as a is live on its own self-loop.
        stg = Stg("leak")
        stg.add_signal("a", 0)
        stg.add_signal("b", 0)
        stg.connect("a+", "a-")
        stg.connect("a-", "a+", tokens=1)
        stg.connect("b+", "b-")
        stg.connect("b-", "b+", tokens=1)
        stg.connect("a+", "b+")
        with pytest.raises(StgError, match="2-bounded"):
            stg.check_model()

    def test_signal_starting_high_is_mirrored(self):
        stg = Stg("high")
        stg.add_signal("a", 1)
        stg.connect("a-", "a+")
        stg.connect("a+", "a-", tokens=1)
        stg.check_model()
        stg.initial_values["a"] = 0
        with pytest.raises(StgError, match="inconsistent"):
            stg.check_model()

    def test_repeated_signal_label_is_rejected(self):
        stg = Stg("twice")
        stg.add_signal("a", 0)
        stg.add_transition("a+/2", label="a+")
        stg.connect("a+", "a-", tokens=1)
        stg.connect("a-", "a+/2")
        stg.connect("a+/2", "a+")
        with pytest.raises(StgError, match="exactly one of each"):
            stg.check_model()


class TestTokenDistances:
    def test_distances_and_bounds(self):
        mg = MarkedGraph("chain")
        for name in "abc":
            mg.add_transition(name)
        mg.connect("a", "b", tokens=1, place="ab")
        mg.connect("b", "c", tokens=0, place="bc")
        mg.connect("c", "a", tokens=2, place="ca")
        distances = oracles.token_distances(mg)
        assert distances["a"] == {"a": 0, "b": 1, "c": 1}
        assert distances["c"] == {"c": 0, "a": 2, "b": 3}
        assert mg.place_bounds() == {"ab": 3, "bc": 3, "ca": 3}

    def test_is_safe_on_many_disjoint_rings(self):
        # 20 independent one-token rings: 2**20 reachable markings, far
        # beyond any state cap, yet safe by the cycle-token theorem.
        mg = MarkedGraph("rings")
        for index in range(20):
            mg.add_transition(f"x{index}")
            mg.add_transition(f"y{index}")
            mg.connect(f"x{index}", f"y{index}", tokens=1)
            mg.connect(f"y{index}", f"x{index}")
        assert mg.is_safe()
        mg.set_tokens(mg.edges()[1].place, 1)
        assert not mg.is_safe()

    def test_is_safe_needs_liveness(self):
        mg = MarkedGraph("dead")
        mg.add_transition("a")
        mg.add_transition("b")
        mg.connect("a", "b")
        mg.connect("b", "a")
        with pytest.raises(PetriError, match="live"):
            mg.is_safe()


@st.composite
def live_marked_graphs(draw):
    """2-6 transitions, random simple edges (self-loops included).
    Edges that point backwards in transition order carry at least one
    token, so every cycle does and the graph is live."""
    size = draw(st.integers(2, 6))
    graph = MarkedGraph("random")
    for index in range(size):
        delay = draw(st.sampled_from([0.0, 1.0, 2.5, 10.0, 33.3, 100.0]))
        graph.add_transition(f"t{index}", delay=delay)
    pairs = draw(st.lists(
        st.tuples(st.integers(0, size - 1), st.integers(0, size - 1)),
        min_size=1, max_size=3 * size, unique=True))
    for source, target in pairs:
        floor = 0 if source < target else 1
        tokens = draw(st.integers(floor, floor + 2))
        extra = draw(st.sampled_from([0.0, 0.0, 5.0, 17.25]))
        graph.connect(f"t{source}", f"t{target}", tokens=tokens,
                      delay=extra)
    return graph


DELAYS = [0.0, 1.0, 2.5, 10.0, 33.3, 100.0]


@st.composite
def marked_graphs(draw):
    """1-6 transitions and up to 12 edges, any of them parallel edges,
    self-loops or multi-token edges; token-free cycles (non-live graphs)
    included."""
    size = draw(st.integers(1, 6))
    graph = MarkedGraph("any")
    for index in range(size):
        graph.add_transition(f"t{index}", delay=draw(st.sampled_from(DELAYS)))
    for _ in range(draw(st.integers(0, 12))):
        graph.connect(f"t{draw(st.integers(0, size - 1))}",
                      f"t{draw(st.integers(0, size - 1))}",
                      tokens=draw(st.integers(0, 3)),
                      delay=draw(st.sampled_from([0.0, 0.0, 5.0, 17.25])))
    return graph


@st.composite
def random_stgs(draw):
    """1-3 signals; each may get its own rise/fall ring, then random
    extra edges between any of the transitions."""
    stg = Stg("random")
    signals = [f"s{index}" for index in range(draw(st.integers(1, 3)))]
    for signal in signals:
        initial = draw(st.integers(0, 1))
        rise, fall = stg.add_signal(signal, initial)
        if draw(st.booleans()):
            stg.connect(rise, fall, tokens=initial)
            stg.connect(fall, rise, tokens=1 - initial)
    transitions = list(stg.transitions)
    for _ in range(draw(st.integers(0, 6))):
        stg.connect(draw(st.sampled_from(transitions)),
                    draw(st.sampled_from(transitions)),
                    tokens=draw(st.integers(0, 2)))
    return stg


def token_free_cycle_through(graph: MarkedGraph, transition: str) -> bool:
    """Whether ``transition`` reaches itself along token-free edges."""
    free = [(e.source, e.target) for e in graph.edges() if not e.tokens]
    seen, stack = set(), [transition]
    while stack:
        node = stack.pop()
        for source, target in free:
            if source == node and target not in seen:
                seen.add(target)
                stack.append(target)
    return transition in seen


def events(trace):
    return [(e.time, e.transition, e.count) for e in trace.events]


class TestAgainstOracles:
    @given(marked_graphs())
    @settings(max_examples=300, deadline=None)
    def test_place_bounds_match_dijkstra(self, graph):
        assert graph.place_bounds() == oracles.place_bounds(graph)

    @given(marked_graphs())
    @settings(max_examples=300, deadline=None)
    def test_is_safe_matches_place_bounds(self, graph):
        if not graph.is_live():
            return
        bounds = oracles.place_bounds(graph).values()
        assert graph.is_safe() == all(b is not None and b <= 1
                                      for b in bounds)

    @given(marked_graphs())
    @settings(max_examples=200, deadline=None)
    def test_simulate_matches_worklist(self, graph):
        if not graph.is_live():
            return
        for rounds in range(1, 13):
            trace = simulate(graph, rounds=rounds)
            assert events(trace) == events(oracles.simulate(graph, rounds))
            for name in graph.transitions:
                assert trace.of_transition(name) == [
                    e for e in trace.events if e.transition == name]

    @given(marked_graphs())
    @settings(max_examples=200, deadline=None)
    def test_non_live_simulation_names_a_token_free_cycle(self, graph):
        if graph.is_live():
            return
        with pytest.raises(PetriError, match="token-free cycle") as info:
            simulate(graph, rounds=3)
        named = str(info.value).split(": ")[1].split()[0]
        assert token_free_cycle_through(graph, named)

    def test_core_model_traces_match_worklist(self):
        for name, model in core_models():
            for rounds in (1, 4, 10):
                assert events(simulate(model, rounds)) \
                    == events(oracles.simulate(model, rounds)), name


class TestNonLiveModel:
    def test_simulate_raises_instead_of_an_empty_trace(self):
        mg = MarkedGraph("dead")
        for name in "abc":
            mg.add_transition(name, delay=1.0)
        mg.connect("a", "b", tokens=1)
        mg.connect("b", "c")
        mg.connect("c", "b")
        # The worklist only ever fires ``a``.
        assert {e.transition for e in oracles.simulate(mg, 4).events} \
            == {"a"}
        with pytest.raises(PetriError,
                           match="dead: b lies on a token-free cycle"):
            simulate(mg, rounds=4)

    def test_verify_hold_is_not_a_vacuous_pass(self):
        result = desynchronize(inverter_pipeline(3), DesyncOptions(
            mode=HandshakeMode.SERIAL))
        checks = result.verify_hold(rounds=4)
        assert checks and all(check.ok for check in checks)
        for place in result.model.places:
            result.model.set_tokens(place, 0)
        with pytest.raises(PetriError, match="token-free cycle"):
            result.verify_hold(rounds=4)


def rebuilt(stg: Stg) -> Stg:
    """A fresh copy of ``stg`` built through the public API."""
    copy = Stg(stg.name)
    copy.initial_values = dict(stg.initial_values)
    for transition in stg.transitions.values():
        copy.add_transition(transition.name, transition.delay,
                            transition.label)
    for place in stg.places:
        copy.add_place(place, stg.initial_marking.get(place, 0))
        for transition in stg.place_pre[place]:
            copy.add_arc(transition, place)
        for transition in stg.place_post[place]:
            copy.add_arc(place, transition)
        if stg.edge_delay(place):
            copy.set_edge_delay(place, stg.edge_delay(place))
    return copy


def analyses(stg: Stg):
    return (outcome(stg.check_model),
            outcome(lambda: vars(cycle_time(stg))),
            outcome(lambda: events(simulate(stg, rounds=5))),
            outcome(stg.place_bounds))


class TestNoStaleIndex:
    def test_every_mutator_drops_the_index(self):
        stg = Stg("ring")
        for signal in "ab":
            stg.add_signal(signal, 0, delay=10.0)
        stg.connect("a+", "b+", place="ab+")
        stg.connect("b+", "a-", place="ba-")
        stg.connect("a-", "b-", place="ab-")
        stg.connect("b-", "a+", tokens=1, place="ba+")
        mutations = [
            lambda: stg.set_tokens("ab+", 1),
            lambda: stg.set_tokens("ab+", 0),
            lambda: stg.set_edge_delay("ab-", 40.0),
            lambda: stg.set_transition_delay("b+", 25.0),
            lambda: stg.add_signal("c", 0),
            lambda: stg.add_place("cc", 1),
            lambda: stg.add_arc("c+", "cc"),
            lambda: stg.add_arc("cc", "c-"),
            lambda: stg.connect("c-", "c+"),
            lambda: stg.connect("a+", "c+", tokens=1),
            lambda: stg.add_transition("d"),
        ]
        seen = {repr(analyses(stg))}
        for mutate in mutations:
            mutate()
            after = analyses(stg)
            assert after == analyses(rebuilt(stg))
            seen.add(repr(after))
        # The mutations moved every kind of answer.
        assert len(seen) >= 8

    def test_compose_keeps_the_slowest_delay(self):
        slow, fast = Stg("slow"), Stg("fast")
        slow.add_signal("a", 0, delay=50.0)
        fast.add_signal("a", 0, delay=5.0)
        fast.connect("a+", "a-")
        fast.connect("a-", "a+", tokens=1)
        slow.connect("a+", "a-")
        slow.connect("a-", "a+", tokens=1)
        composed = compose([fast, slow], "both")
        assert composed.transitions["a+"].delay == 50.0
        assert cycle_time(composed).cycle_time == 100.0


def brute_force_ratio(graph: MarkedGraph) -> float:
    """max over simple cycles of delay / tokens (no parallel edges)."""
    edges = {(e.source, e.target): e for e in graph.edges()}
    best = 0.0
    for cycle in oracles.simple_cycles(graph):
        steps = [edges[(cycle[i], cycle[(i + 1) % len(cycle)])]
                 for i in range(len(cycle))]
        delay = sum(graph.transitions[e.target].delay + e.delay
                    for e in steps)
        tokens = sum(e.tokens for e in steps)
        best = max(best, delay / tokens)
    return best


class TestHoward:
    @given(live_marked_graphs())
    @settings(max_examples=150, deadline=None)
    def test_matches_brute_force(self, graph):
        result = cycle_time(graph)
        expected = brute_force_ratio(graph)
        assert result.cycle_time == pytest.approx(expected, rel=1e-12)
        if expected > 0:
            assert result.critical_tokens >= 1
            assert result.critical_delay / result.critical_tokens \
                == result.cycle_time
        else:
            assert result.critical_cycle == []

    def test_no_cycle_means_zero_period(self):
        mg = MarkedGraph("line")
        for name in "abc":
            mg.add_transition(name, delay=5.0)
        mg.connect("a", "b")
        mg.connect("b", "c")
        assert cycle_time(mg).cycle_time == 0.0

    def test_dead_end_transitions_are_pruned(self):
        # A ring feeding a sink: the sink reaches no cycle.
        mg = MarkedGraph("tail")
        for name, delay in (("a", 10.0), ("b", 20.0), ("sink", 500.0)):
            mg.add_transition(name, delay=delay)
        mg.connect("a", "b", tokens=1)
        mg.connect("b", "a")
        mg.connect("b", "sink")
        result = cycle_time(mg)
        assert result.cycle_time == 30.0
        assert set(result.critical_cycle) == {"a", "b"}

    # Exact cycle times of corpus models: the sweep reports these
    # floats verbatim, so any change to the analysis that moves a bit
    # shows up here before it shows up as a changed sweep row.
    FROZEN = {
        ("counter6", "serial"): 1285.0,
        ("fir5", "overlap"): 2515.0,
        ("mult4", "dlap"): 2770.0,
        ("pipe8x2", "nonoverlap"): 1520.0,
        ("diamond2x4", "overlap"): 1562.5,
        ("diamond2x4", "dlap"): 1145.7142857142858,
    }

    @pytest.mark.parametrize("config,label", sorted(FROZEN))
    def test_frozen_corpus_cycle_times(self, config, label):
        _, pipeline, mode = next(kind for kind in MODEL_KINDS
                                 if kind[0] == label)
        ctx = run_pipeline(generate(config), DesyncOptions(mode=mode),
                           pipeline=pipeline)
        assert ctx.desync_cycle_time().cycle_time \
            == self.FROZEN[(config, label)]
