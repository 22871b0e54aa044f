"""The paper's core contribution: automatic de-synchronization.

``desynchronize()`` runs the default staged pass pipeline
(:mod:`repro.desync.pipeline`) and returns its :class:`DesyncResult`;
the pipeline API itself — pass objects, the registered pass sequences
(:data:`PIPELINES`, run by :func:`run_pipeline`, each filling one
:class:`DesyncResult`), pluggable clustering strategies, partial
(hybrid sync/async) conversion and the sweep driver — is exported here
too.
"""

from repro.desync.clustering import (
    CLUSTERING_STRATEGIES,
    Cluster,
    Clustering,
    cluster_registers,
    cluster_stage_delays,
    clustering_from_partition,
    register_level_edges,
)
from repro.desync.flow import DesyncOptions, DesyncResult, HoldCheck, desynchronize
from repro.desync.latchify import latchify, master_name, slave_name
from repro.desync.network import (
    DEFAULT_HOLD_SLACK,
    HandshakeMode,
    ControllerReport,
    DesyncNetwork,
    build_network,
    clock_net_name,
)
from repro.desync.pipeline import (
    AUTO_SYNC_BANKS,
    BaselineModelPass,
    ClusterPass,
    ControllerNetworkPass,
    LatchifyPass,
    MatchedDelayPass,
    PIPELINES,
    PartialDesyncPass,
    Pass,
    PassRecord,
    PipelineVariant,
    default_variants,
    run_pipeline,
    sweep_pipelines,
)

__all__ = [
    "CLUSTERING_STRATEGIES",
    "Cluster",
    "Clustering",
    "cluster_registers",
    "cluster_stage_delays",
    "clustering_from_partition",
    "register_level_edges",
    "DesyncOptions",
    "HoldCheck",
    "HandshakeMode",
    "DEFAULT_HOLD_SLACK",
    "DesyncResult",
    "desynchronize",
    "latchify",
    "master_name",
    "slave_name",
    "ControllerReport",
    "DesyncNetwork",
    "build_network",
    "clock_net_name",
    "AUTO_SYNC_BANKS",
    "BaselineModelPass",
    "ClusterPass",
    "ControllerNetworkPass",
    "LatchifyPass",
    "MatchedDelayPass",
    "PIPELINES",
    "PartialDesyncPass",
    "Pass",
    "PassRecord",
    "PipelineVariant",
    "default_variants",
    "run_pipeline",
    "sweep_pipelines",
]
