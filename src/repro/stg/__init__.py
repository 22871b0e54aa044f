"""Signal transition graphs and the de-synchronization model builder."""

from repro.stg.desync_model import (
    LatchBank,
    build_model,
    extract_banks,
    latch_adjacency,
)
from repro.stg.patterns import (
    Parity,
    add_latch_cycle,
    add_pair_arcs,
    even_to_odd,
    linear_pipeline,
    odd_to_even,
    pairwise_pattern,
    ring,
)
from repro.stg.stg import FALL, RISE, Stg, compose, parse_label, transition_name

__all__ = [
    "LatchBank",
    "build_model",
    "extract_banks",
    "latch_adjacency",
    "Parity",
    "add_latch_cycle",
    "add_pair_arcs",
    "even_to_odd",
    "linear_pipeline",
    "odd_to_even",
    "pairwise_pattern",
    "ring",
    "FALL",
    "RISE",
    "Stg",
    "compose",
    "parse_label",
    "transition_name",
]
