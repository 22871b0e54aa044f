"""Structural model checks and Howard cycle time against brute-force oracles.

``Stg.check_model`` decides liveness, boundedness and consistency from
token distances and :func:`repro.petri.cycle_time` runs Howard's policy
iteration; neither enumerates anything.  These tests hold both to the
explicit-state and enumerate-every-cycle answers on nets small enough
for those to finish: the corpus's core-tier models, seeded single-token
mutants of them (which must produce every verdict class, so the check
is shown able to refute), and random live marked graphs.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.corpus import generate, names
from repro.desync import DesyncOptions, HandshakeMode, run_pipeline
from repro.petri import MarkedGraph, cycle_time
from repro.stg import Stg
from repro.utils.errors import PetriError, StgError
from tests import oracles

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
    if not stg.is_bounded(2, max_states=ORACLE_CAP):
        return "unbounded"
    try:
        stg.check_consistency(max_states=ORACLE_CAP)
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
            ctx = run_pipeline(netlist, DesyncOptions(
                mode=mode, validate_model=False), pipeline=pipeline)
            yield f"{config}/{label}", ctx.model


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
        distances = mg.token_distances()
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
