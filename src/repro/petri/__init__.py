"""Petri nets and timed marked graphs (the de-synchronization model's
formal substrate)."""

from repro.petri.analysis import CycleTimeResult, cycle_time, total_tokens
from repro.petri.dot import marked_graph_to_dot
from repro.petri.marked_graph import MarkedGraph, MgEdge
from repro.petri.net import Marking, PetriNet, Place, Transition
from repro.petri.simulate import TimedEvent, TimedTrace, simulate

__all__ = [
    "CycleTimeResult",
    "cycle_time",
    "total_tokens",
    "marked_graph_to_dot",
    "MarkedGraph",
    "MgEdge",
    "Marking",
    "PetriNet",
    "Place",
    "Transition",
    "TimedEvent",
    "TimedTrace",
    "simulate",
]
