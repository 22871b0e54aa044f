"""Flow-equivalence checking (the paper's correctness criterion)."""

from repro.equiv.flow_equivalence import (
    Divergence,
    FlowEquivalenceReport,
    check_flow_equivalence,
    check_flow_equivalence_batch,
    compare_streams,
    desync_streams,
    desync_streams_batch,
    reference_streams,
    reference_streams_batch,
    replay_simulator,
)

__all__ = [
    "Divergence",
    "FlowEquivalenceReport",
    "check_flow_equivalence",
    "check_flow_equivalence_batch",
    "compare_streams",
    "desync_streams",
    "desync_streams_batch",
    "reference_streams",
    "reference_streams_batch",
    "replay_simulator",
]
