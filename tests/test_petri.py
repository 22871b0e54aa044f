"""Tests for the Petri net substrate and marked-graph properties."""

import pytest

from repro.petri import MarkedGraph, PetriNet, marked_graph_to_dot
from repro.utils.errors import NotAMarkedGraphError, PetriError
from tests import oracles


def producer_consumer() -> PetriNet:
    net = PetriNet("pc")
    net.add_place("empty", tokens=1)
    net.add_place("full")
    net.add_transition("produce")
    net.add_transition("consume")
    net.add_arc("empty", "produce")
    net.add_arc("produce", "full")
    net.add_arc("full", "consume")
    net.add_arc("consume", "empty")
    return net


class TestPetriNet:
    def test_enabling(self):
        net = producer_consumer()
        marking = net.marking()
        assert net.is_enabled(marking, "produce")
        assert not net.is_enabled(marking, "consume")

    def test_fire(self):
        net = producer_consumer()
        marking = net.fire(net.marking(), "produce")
        assert marking == {"full": 1}
        assert net.is_enabled(marking, "consume")

    def test_fire_disabled_raises(self):
        net = producer_consumer()
        with pytest.raises(PetriError):
            net.fire(net.marking(), "consume")

    def test_fire_does_not_mutate_input(self):
        net = producer_consumer()
        marking = net.marking()
        net.fire(marking, "produce")
        assert marking == {"empty": 1}

    def test_fire_sequence(self):
        net = producer_consumer()
        final = net.fire_sequence(net.marking(),
                                  ["produce", "consume", "produce"])
        assert final == {"full": 1}

    def test_duplicate_place(self):
        net = PetriNet("t")
        net.add_place("p")
        with pytest.raises(PetriError):
            net.add_place("p")

    def test_bad_arc(self):
        net = PetriNet("t")
        net.add_place("p")
        net.add_place("q")
        with pytest.raises(PetriError):
            net.add_arc("p", "q")

    def test_reachability(self):
        net = producer_consumer()
        markings = net.reachable_markings()
        assert len(markings) == 2

    def test_boundedness(self):
        net = producer_consumer()
        assert oracles.is_bounded(net, 1)

    def test_unbounded_detection(self):
        net = PetriNet("gen")
        net.add_place("p")
        net.add_transition("t")
        net.add_arc("t", "p")  # pure producer: unbounded
        with pytest.raises(PetriError):
            net.reachable_markings(max_states=50)

    def test_deadlock_detection(self):
        net = PetriNet("dead")
        net.add_place("p")  # no tokens
        net.add_transition("t")
        net.add_arc("p", "t")
        assert oracles.has_deadlock(net)
        assert not oracles.has_deadlock(producer_consumer())


def two_stage_ring(tokens_a: int = 1, tokens_b: int = 0) -> MarkedGraph:
    mg = MarkedGraph("ring2")
    mg.add_transition("t0", delay=10.0)
    mg.add_transition("t1", delay=20.0)
    mg.connect("t0", "t1", tokens=tokens_a)
    mg.connect("t1", "t0", tokens=tokens_b)
    return mg


class TestMarkedGraph:
    def test_connect_builds_places(self):
        mg = two_stage_ring()
        mg.check_structure()
        assert len(mg.edges()) == 2

    def test_structure_violation(self):
        net = MarkedGraph("bad")
        net.add_transition("a")
        net.add_transition("b")
        net.add_place("shared", tokens=1)
        net.add_arc("shared", "a")
        net.add_arc("shared", "b")  # two consumers
        net.add_arc("a", "shared")
        with pytest.raises(NotAMarkedGraphError):
            net.check_structure()

    def test_liveness_with_token(self):
        assert two_stage_ring(1, 0).is_live()

    def test_liveness_fails_token_free_cycle(self):
        assert not two_stage_ring(0, 0).is_live()

    def test_safety(self):
        assert two_stage_ring(1, 0).is_safe()

    def test_two_tokens_on_two_ring_not_safe(self):
        # Firing t0 adds a token to the already-marked t0->t1 place.
        assert not two_stage_ring(1, 1).is_safe()

    def test_two_coupled_unit_token_rings_are_safe(self):
        # Safe iff every place lies on a cycle with exactly one token:
        # two rings sharing a transition, one token each.
        mg = MarkedGraph("eight")
        for name in ("hub", "a", "b"):
            mg.add_transition(name)
        mg.connect("hub", "a", tokens=1)
        mg.connect("a", "hub", tokens=0)
        mg.connect("hub", "b", tokens=0)
        mg.connect("b", "hub", tokens=1)
        assert mg.is_safe()

    def test_unsafe_marking(self):
        mg = two_stage_ring(2, 0)
        assert not mg.is_safe()

    def test_successors_predecessors(self):
        mg = two_stage_ring()
        assert mg.successors("t0") == ["t1"]
        assert mg.predecessors("t0") == ["t1"]

    def test_token_invariant_under_firing(self):
        mg = two_stage_ring(1, 1)
        marking = mg.marking()
        for transition in ("t0", "t1", "t0"):
            marking = mg.fire(marking, transition)
        assert sum(marking.values()) == 2  # cycle token count invariant
        assert oracles.token_count_invariant(mg, marking) == \
            oracles.token_count_invariant(mg) == {frozenset({"t0", "t1"}): 2}

    def test_simple_cycles(self):
        cycles = oracles.simple_cycles(two_stage_ring())
        assert len(cycles) == 1
        assert set(cycles[0]) == {"t0", "t1"}

    def test_edge_delay(self):
        mg = MarkedGraph("d")
        mg.add_transition("a")
        mg.add_transition("b")
        edge = mg.connect("a", "b", tokens=1, delay=42.0)
        assert mg.edge_delay(edge.place) == 42.0


class TestDotExport:
    def test_marked_graph_dot(self):
        dot = marked_graph_to_dot(two_stage_ring())
        assert '"t0" -> "t1"' in dot
