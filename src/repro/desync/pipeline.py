"""Staged de-synchronization: the composable transform-pass pipeline.

The paper's flow is inherently staged — latch conversion, matched-delay
sizing, controller-network substitution — and this module makes the
stages first-class.  A sequence of :class:`Pass` objects fills one
:class:`~repro.desync.flow.DesyncResult` (netlist + timing + clustering
+ per-stage artifacts + provenance), each pass reading what earlier
passes produced:

``ClusterPass``
    picks the controller granularity via a pluggable strategy
    (:data:`repro.desync.clustering.CLUSTERING_STRATEGIES`);
``PartialDesyncPass``
    optionally keeps a subset of domains on the synchronous clock — it
    merges them into one *sync island* whose locally-generated clock is
    matched to the synchronous period, leaving handshake bridges at the
    island boundary (the hybrid sync/async design point);
``MatchedDelayPass``
    runs static timing analysis and aggregates stage delays to the
    clustering granularity;
``LatchifyPass``
    converts flip-flops to master/slave latch pairs;
``ControllerNetworkPass``
    materializes the handshake fabric and its timed marked-graph model;
``BaselineModelPass``
    instead builds a related-work baseline model (DLAP or non-overlapping
    clocking) over the same staged artifacts, so the baselines come from
    the same engine as the main flow.

:data:`PIPELINES` registers the stock pass sequences (``desync``,
``doubly_latched``, ``nonoverlap``); :func:`run_pipeline` runs one and
returns its :class:`~repro.desync.flow.DesyncResult`;
:func:`sweep_pipelines` drives (corpus config x pipeline variant) grids
through the batched flow-equivalence checker for the
``BENCH_pipeline`` series.

``repro.desync.flow.desynchronize()`` runs the ``desync`` pipeline and
remains the stable entry point.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from time import perf_counter

from repro.desync.clustering import (
    cluster_registers,
    cluster_stage_delays,
    clustering_from_partition,
    convex_closure,
    register_level_edges,
)
from repro.desync.flow import DesyncOptions, DesyncResult, latch_analysis
from repro.desync.latchify import latchify
from repro.desync.network import (
    HandshakeMode,
    build_network,
    controller_latency,
)
from repro.netlist.core import Netlist
from repro.obs.metrics import METRICS
from repro.obs.trace import TRACER
from repro.stg.cluster_model import fabric_model
from repro.timing.sta import INPUTS as STA_INPUTS
from repro.timing.sta import analyze
from repro.utils.errors import DesyncError, OptionsError, ReproError


@dataclass
class PassRecord:
    """Provenance of one executed pass: its name plus summary facts.

    ``duration_ms`` is the pass's wall time — the same interval the
    tracer records as the ``pass:<name>`` span, kept on the record so
    provenance carries the cost split even when tracing is off.
    """

    name: str
    info: dict[str, object] = field(default_factory=dict)
    duration_ms: float | None = None

    def describe(self) -> str:
        facts = ", ".join(f"{key}={value}" for key, value in
                          sorted(self.info.items()))
        if self.duration_ms is not None:
            facts = ", ".join(filter(None, [
                facts, f"duration_ms={self.duration_ms:.2f}"]))
        return f"{self.name}: {facts}" if facts else self.name


class Pass:
    """One composable transform stage.

    Subclasses set :attr:`name` and implement :meth:`run`, which fills
    fields of the flow's :class:`~repro.desync.flow.DesyncResult` and
    returns a dict of summary facts for the provenance record (or None).
    """

    name = "pass"

    def run(self, ctx: DesyncResult) -> dict[str, object] | None:
        raise NotImplementedError


class ClusterPass(Pass):
    """Compute the controller granularity via a pluggable strategy."""

    name = "cluster"

    def run(self, ctx: DesyncResult) -> dict[str, object]:
        opts = ctx.options
        ctx.clustering = cluster_registers(ctx.sync_netlist,
                                           strategy=opts.strategy,
                                           cap=opts.cluster_cap)
        return {
            "strategy": opts.strategy,
            "domains": len(ctx.clustering.clusters),
            "edges": len(ctx.clustering.edges),
        }


class PartialDesyncPass(Pass):
    """Partial (hybrid sync/async) conversion: the sync island.

    Merges the selected controller domains into one island that stays
    in lockstep on a single shared clock.  The island's clock is still
    generated locally (the whole point of de-synchronization is that
    the global tree goes away) but :class:`MatchedDelayPass` sizes its
    self-request to the design's worst stage, so the island ticks at
    the synchronous rate whenever its boundary handshakes are not
    back-pressuring it.  Every island-boundary adjacency keeps the
    standard bridge fabric — matched request line, request-token latch,
    acknowledge cell — which is what makes the hybrid verifiable by
    :func:`repro.equiv.check_flow_equivalence` like any full conversion.

    Selection entries may name registers or controller domains.  The
    island is closed under *convexity*: any domain lying on a directed
    path island -> x -> island is absorbed too, because leaving it out
    would put a handshake cycle around the island (the acyclicity
    invariant of :mod:`repro.desync.clustering`).
    """

    name = "partial"

    def run(self, ctx: DesyncResult) -> dict[str, object]:
        selected = ctx.options.sync_banks
        if not selected:
            return {"skipped": "no sync_banks selected"}
        clustering = ctx.clustering
        island: set[str] = set()
        for entry in selected:
            if entry in clustering.clusters:
                island.add(entry)
            elif entry in clustering.cluster_of:
                island.add(clustering.cluster_of[entry])
            else:
                raise OptionsError(
                    "sync_banks",
                    f"{entry!r} names neither a register nor a controller "
                    f"domain of {ctx.sync_netlist.name}")
        absorbed = convex_closure(clustering.edges, island)
        island |= absorbed
        banks, reg_edges = register_level_edges(ctx.sync_netlist)
        components = [sorted(reg for name in sorted(island)
                             for reg in clustering.clusters[name].registers)]
        components.extend(
            sorted(cluster.registers)
            for name, cluster in sorted(clustering.clusters.items())
            if name not in island)
        ctx.clustering = clustering_from_partition(banks, reg_edges,
                                                   components)
        island_name = min(components[0])
        island_cluster = ctx.clustering.clusters[island_name]
        # The island must tick even without internal register feedback:
        # its matched self-request is its clock generator.
        island_cluster.has_self_edge = True
        ctx.sync_island = island_name
        return {
            "island": island_name,
            "island_registers": len(island_cluster.registers),
            "absorbed_domains": len(absorbed),
            "async_domains": len(ctx.clustering.clusters) - 1,
            "boundary_edges": len(ctx.clustering.edges),
        }


class MatchedDelayPass(Pass):
    """Static timing analysis + stage aggregation at cluster granularity."""

    name = "matched-delay"

    def run(self, ctx: DesyncResult) -> dict[str, object]:
        ctx.timing = analyze(ctx.sync_netlist)
        ctx.stage_max, ctx.stage_min = cluster_stage_delays(
            ctx.timing.max_delay, ctx.timing.min_delay, ctx.clustering)
        # Worst primary-input-to-D delay per input-fed cluster, for the
        # serial fabric's environment source domain (``<inputs>`` is the
        # STA pseudo-bank for data input ports).
        ctx.env_stage = {}
        for (pred, succ), value in ctx.timing.max_delay.items():
            if pred == STA_INPUTS:
                bank = ctx.clustering.cluster_of.get(succ)
                if bank is not None:
                    ctx.env_stage[bank] = max(
                        ctx.env_stage.get(bank, 0.0), value)
        info: dict[str, object] = {
            "stages": len(ctx.stage_max),
            "worst_stage_ps": round(max(ctx.stage_max.values(), default=0.0),
                                    1),
        }
        if ctx.sync_island is not None:
            # The island's self-request is its clock generator: match it
            # to the design's critical path so the island runs at the
            # synchronous rate, not just at its own internal worst stage.
            key = (ctx.sync_island, ctx.sync_island)
            worst = max(ctx.timing.max_delay.values(), default=0.0)
            ctx.stage_max[key] = max(ctx.stage_max.get(key, 0.0), worst)
            ctx.stage_min.setdefault(key, worst)
            info["island_period_stage_ps"] = round(ctx.stage_max[key], 1)
        return info


class LatchifyPass(Pass):
    """Flip-flop to master/slave latch conversion (paper step 1)."""

    name = "latchify"

    def run(self, ctx: DesyncResult) -> dict[str, object]:
        ctx.latched = ctx.sync_netlist.memo(
            "latchify", lambda: latchify(ctx.sync_netlist))
        return {"latches": len(ctx.latched.latch_instances())}


class ControllerNetworkPass(Pass):
    """Materialize the handshake fabric and its timed model (step 3)."""

    name = "controller-network"

    def run(self, ctx: DesyncResult) -> dict[str, object]:
        opts = ctx.options
        ctx.network = build_network(ctx.latched, ctx.clustering,
                                    ctx.stage_max, margin=opts.margin,
                                    mode=opts.mode,
                                    env_stage=ctx.env_stage)
        ctx.model = fabric_model(ctx.clustering, ctx.network,
                                 ctx.sync_netlist.library,
                                 name=f"desync:{ctx.sync_netlist.name}")
        ctx.model.check_model()
        return {
            "controllers": len(ctx.network.controllers),
            "delay_lines": len(ctx.network.delay_plans),
            "controller_area_um2": round(ctx.network.controller_area, 1),
            "delay_line_area_um2": round(ctx.network.delay_line_area, 1),
        }


class BaselineModelPass(Pass):
    """Build a related-work baseline model from the staged artifacts.

    ``kind`` selects the scheme: ``dlap`` (Kol & Ginosar's doubly-latched
    asynchronous pipeline — one controller per latch bank, the paper's
    per-latch overlap model) or ``nonoverlap`` (strictly alternating
    latch clocking).  Both are built over the *actual* latchified design
    with STA-derived stage delays, so the baselines compare against the
    main flow on real netlists rather than on abstract stage counts.
    """

    name = "baseline-model"

    def __init__(self, kind: str):
        if kind not in ("dlap", "nonoverlap"):
            raise DesyncError(f"unknown baseline model kind {kind!r}")
        self.kind = kind

    def run(self, ctx: DesyncResult) -> dict[str, object]:
        from repro.baselines.doubly_latched import dlap_model
        from repro.baselines.nonoverlap import nonoverlap_model

        banks, adjacency, latch_timing = latch_analysis(ctx.latched)

        def delay_fn(pred: str, succ: str) -> float:
            return latch_timing.max_delay.get((pred, succ), 0.0)

        controller_delay = controller_latency(3, ctx.latched.library)
        builder = dlap_model if self.kind == "dlap" else nonoverlap_model
        ctx.model = builder(ctx.latched, banks=banks, adjacency=adjacency,
                            delay_fn=delay_fn,
                            controller_delay=controller_delay)
        ctx.model.check_model()
        return {
            "kind": self.kind,
            "controllers": len(banks),
            "controller_delay_ps": round(controller_delay, 1),
        }


#: Stock pass sequences.  ``desync`` is the paper's flow (what
#: ``desynchronize()`` runs); the baselines build a model-only
#: :class:`~repro.desync.flow.DesyncResult` (no controller network) from
#: the same staged artifacts.  Every sequence produces each artifact
#: before the pass that reads it.
PIPELINES: dict[str, tuple[Pass, ...]] = {
    "desync": (ClusterPass(), PartialDesyncPass(), MatchedDelayPass(),
               LatchifyPass(), ControllerNetworkPass()),
    "doubly_latched": (ClusterPass(), MatchedDelayPass(), LatchifyPass(),
                       BaselineModelPass("dlap")),
    "nonoverlap": (ClusterPass(), MatchedDelayPass(), LatchifyPass(),
                   BaselineModelPass("nonoverlap")),
}


def run_pipeline(netlist: Netlist, options: DesyncOptions | None = None,
                 pipeline: str = "desync") -> DesyncResult:
    """Run the registered pass sequence ``pipeline`` on ``netlist``.

    Each pass runs in a ``pass:<name>`` tracer span (inside one
    ``pipeline:<name>`` span) and leaves a :class:`PassRecord` in the
    result's ``records``.
    """
    result, passes = _new_result(netlist, options, pipeline)
    with TRACER.span(f"pipeline:{pipeline}", netlist=netlist.name):
        _run_passes(result, passes)
    return result


def _new_result(netlist: Netlist, options: DesyncOptions | None,
                pipeline: str) -> tuple[DesyncResult, tuple[Pass, ...]]:
    """The empty result of a ``pipeline`` run on ``netlist`` (validated
    first) and the passes that fill it."""
    try:
        passes = PIPELINES[pipeline]
    except KeyError:
        raise DesyncError(
            f"unknown pipeline {pipeline!r} "
            f"(have: {', '.join(sorted(PIPELINES))})") from None
    netlist.validate()
    return DesyncResult(sync_netlist=netlist,
                        options=options if options is not None
                        else DesyncOptions(),
                        pipeline=pipeline), passes


def _run_passes(result: DesyncResult, passes: tuple[Pass, ...]) -> None:
    """Run ``passes`` on ``result`` in order, each in its ``pass:<name>``
    span, appending one :class:`PassRecord` per pass."""
    for stage in passes:
        start = perf_counter()
        with TRACER.span(f"pass:{stage.name}") as span:
            info = stage.run(result)
            span.set(**(info or {}))
        result.records.append(PassRecord(
            stage.name, dict(info or {}),
            duration_ms=(perf_counter() - start) * 1e3))


# ----------------------------------------------------------------------
# Scenario sweeps: (corpus config x pipeline variant) grids.
# ----------------------------------------------------------------------

#: Sentinel for :attr:`PipelineVariant.sync_banks`: pick roughly half of
#: the base SCC domains (sorted-name order) as the sync island.
AUTO_SYNC_BANKS = "auto"


@dataclass
class PipelineVariant:
    """One column of the sweep grid.

    ``options`` carries the full flow configuration; ``sync_banks`` may
    be :data:`AUTO_SYNC_BANKS` to derive a per-config island.  With
    ``check_equivalence`` the variant is verified by
    :func:`repro.equiv.check_flow_equivalence_batch` (reference side on
    the vector backend) and hold-checked on the fabric it ran via
    :meth:`~repro.desync.flow.DesyncResult.verify_hold`.
    """

    name: str
    pipeline: str = "desync"
    options: DesyncOptions = field(default_factory=DesyncOptions)
    sync_banks: str | tuple[str, ...] = ()
    check_equivalence: bool = True


def default_variants() -> list[PipelineVariant]:
    """The stock sweep grid: the strategy spectrum, partial conversion,
    and the related-work baselines.

    Equivalence-checked variants run the statically race-free SERIAL
    discipline (the OVERLAP protocol's relative-timing assumptions are
    genuinely violated on fine-grained fabrics — see
    ``test_negative_hold_margin_is_observable`` — so an overlap sweep
    row reports metrics, not a correctness verdict).  ``single`` keeps
    the paper's OVERLAP default: a one-domain fabric has no
    inter-domain race to lose.
    """
    serial = HandshakeMode.SERIAL
    return [
        PipelineVariant("scc-overlap", check_equivalence=False),
        PipelineVariant("scc-serial",
                        options=DesyncOptions(mode=serial)),
        PipelineVariant("per-register-serial",
                        options=DesyncOptions(mode=serial,
                                              strategy="per-register")),
        PipelineVariant("single-overlap",
                        options=DesyncOptions(strategy="single")),
        PipelineVariant("greedy-cap4-serial",
                        options=DesyncOptions(mode=serial,
                                              strategy="greedy-cap",
                                              cluster_cap=4)),
        PipelineVariant("partial-serial",
                        options=DesyncOptions(mode=serial),
                        sync_banks=AUTO_SYNC_BANKS),
        PipelineVariant("dlap", pipeline="doubly_latched",
                        check_equivalence=False),
        PipelineVariant("nonoverlap", pipeline="nonoverlap",
                        check_equivalence=False),
    ]


def auto_sync_banks(netlist: Netlist) -> tuple[str, ...]:
    """Derive a deterministic sync-island selection for ``netlist``:
    the first half (rounded up) of the base SCC domains by name."""
    base = cluster_registers(netlist)
    names = sorted(base.clusters)
    return tuple(names[: (len(names) + 1) // 2])


SWEEP_COLUMNS = [
    "config", "variant", "pipeline", "strategy", "mode", "status",
    "registers", "domains", "edges", "sync_island",
    "sync_period_ps", "desync_cycle_ps", "cycle_ratio", "area_ratio",
    "equiv_seeds", "equiv_ok", "hold_ok", "desync_engine", "lanes",
    "build_ms", "verify_ms",
]

#: Default seed grid of the sweep: eight stimuli per verified cell.
#: Affordable because the whole batch costs one schedule recording plus
#: one lane-parallel replay per cell (both equivalence sides batched),
#: not one event simulation per seed.
SWEEP_SEEDS = tuple(range(8))

#: Designs with more instances than this skip equivalence and the hold
#: check (fabric simulation dominates the sweep cost): their rows
#: report ``status='unchecked'``.
MAX_EQUIV_INSTANCES = 200


def sweep_pipelines(configs: list[str] | None = None,
                    variants: list[PipelineVariant] | None = None,
                    seeds: tuple[int, ...] = SWEEP_SEEDS,
                    cycles: int = 10,
                    jobs: int | None = None,
                    job_dir: str | None = None,
                    ) -> tuple[list[str], list[list[object]], dict]:
    """Run a (corpus config x pipeline variant) grid.

    Returns ``(SWEEP_COLUMNS, rows, summary)``; columns and rows are
    ready for :func:`repro.report.write_json`.  Per cell: the variant's
    pipeline runs end to end (**once** — the de-synchronized netlist is
    built once per distinct fabric of a config and shared by every
    equivalence seed and every variant that builds the same fabric, see
    :func:`_sweep_cell`); full-flow
    variants with ``check_equivalence`` are verified by the batched
    flow-equivalence sweep — synchronous references lane-parallel on the
    vector backend, the de-synchronized side on the schedule-replay
    engine, with a logged per-seed event-simulation fallback — and
    hold-checked on the fabric's recorded local clocks, unless the
    design exceeds :data:`MAX_EQUIV_INSTANCES`, in which case the row
    reports ``status='unchecked'``.
    A variant that is structurally inapplicable (e.g. ``per-register``
    on a cyclic register graph) reports ``status='invalid'`` instead of
    failing the sweep.  Every cell that builds a timed model validates
    it (:meth:`repro.stg.stg.Stg.check_model` is exact and polynomial,
    so no design is too large for it).

    Each row records the build-vs-verify wall-time split (``build_ms`` /
    ``verify_ms``; near zero on a cell that reused an earlier variant's
    fabric), the engine(s) that produced the desync streams
    (``desync_engine`` — replay fallbacks are reported per row, never
    silent), and the lane width the batched equivalence check ran at
    (``lanes`` — one lane per seed, so ``len(seeds)``; ``None`` on rows
    that never reached verification).  ``summary`` aggregates
    across the whole grid what the per-row strings only show locally:
    status counts, per-seed desync engine counts, fallback-reason
    counts, and the grid runner's accounting (``executor``, plus
    ``jobs`` when a job dir is in play); the same totals land
    in the global metrics registry under ``sweep.*``
    (``sweep.fabrics.reused`` counts the cells that reused a fabric's
    row values).  Every cell also gets a ``sweep:cell`` tracer span.

    The grid runs on :func:`repro.jobs.run_grid`, one task per config.
    ``jobs`` (default: the ``REPRO_JOBS`` environment variable, else 1)
    workers share the configs; at one worker, with no cell timeout and
    no job dir, the configs run in this process.  The grid runner folds
    a pool worker's spans and metric counters into this process (see
    :func:`repro.jobs.run_grid`), so rows, summary and metrics equal the
    in-process run's (only the wall-time ``build_ms``/``verify_ms``
    fields differ).  A
    config that outlives ``REPRO_CELL_TIMEOUT`` or crashes its worker is
    retried (``REPRO_CELL_RETRIES``) and, if it keeps failing,
    quarantined — its rows report ``status='quarantined: ...'``.

    ``job_dir`` (default: ``REPRO_JOB_DIR``) schedules the configs
    through the durable job store (:mod:`repro.jobs`): independent
    sweep processes pointed at the same directory cooperate on the
    grid, dead workers' configs are reclaimed by survivors, every
    process returns the complete merged rows, and a rerun on the same
    directory resumes an interrupted sweep.  The directory files each
    config by content (:func:`_sweep_address`), so a rerun with other
    parameters recomputes every config it changes.  A config served
    from the directory adds no work counters and no spans: only the
    run that computed it did that work.
    """
    from repro.jobs import (ExecutorPolicy, cell_retries, cell_timeout,
                            default_job_dir, run_grid, sweep_jobs)

    config_names = configs if configs is not None else _registry_names()
    grid = variants if variants is not None else default_variants()
    n_jobs = jobs if jobs is not None else sweep_jobs()
    params = (grid, seeds, cycles)
    tasks = [(config, (config, *params)) for config in config_names]
    policy = ExecutorPolicy(
        jobs=max(1, min(n_jobs, len(tasks))), timeout=cell_timeout(),
        retries=cell_retries(),
        job_dir=job_dir if job_dir is not None else default_job_dir())
    rows: list[list[object]] = []
    statuses: dict[str, int] = {}
    engines: dict[str, int] = {}
    reasons: dict[str, int] = {}
    status_index = SWEEP_COLUMNS.index("status")

    # Register the replay-fallback counter up front so every sweep
    # envelope carries it even when it stays zero — the CI smoke job
    # asserts on exactly that.
    METRICS.counter("sim.replay.fallbacks").inc(0)
    with TRACER.span("sweep:grid", configs=len(config_names),
                     variants=len(grid), jobs=n_jobs) as grid_span:
        outcomes, exec_stats = run_grid(
            tasks, _sweep_config_task, policy,
            address=_sweep_address(*params) if policy.job_dir else None,
            metric_prefix="sweep.executor")
        for config in config_names:
            outcome = outcomes[config]
            if outcome.status != "ok":
                results = [(_quarantined_row(config, variant, outcome.error),
                            {"engines": {}, "reasons": {}})
                           for variant in grid]
            else:
                results = outcome.value
            for row, stats in results:
                rows.append(row)
                status = (row[status_index] or "").split(":")[0]
                statuses[status] = statuses.get(status, 0) + 1
                for engine, count in stats["engines"].items():
                    engines[engine] = engines.get(engine, 0) + count
                for reason, count in stats["reasons"].items():
                    reasons[reason] = reasons.get(reason, 0) + count
        grid_span.set(cells=len(rows))
    for status, count in statuses.items():
        METRICS.counter(f"sweep.status.{status}").inc(count)
    for engine, count in engines.items():
        METRICS.counter(f"sweep.desync_engine.{engine}").inc(count)
    if reasons:
        METRICS.counter("sweep.replay_fallbacks").inc(sum(reasons.values()))
    summary = {
        "cells": len(rows),
        "statuses": dict(sorted(statuses.items())),
        "desync_engines": dict(sorted(engines.items())),
        "fallback_reasons": dict(sorted(reasons.items())),
        "executor": exec_stats.as_dict(),
    }
    if exec_stats.jobs is not None:
        summary["jobs"] = exec_stats.jobs
    return list(SWEEP_COLUMNS), rows, summary


def _sweep_address(grid, seeds, cycles):
    """The ``address`` function that files each config of a sweep in a
    job dir: its name and netlist fingerprint plus every parameter and
    module constant its rows depend on (:data:`MAX_EQUIV_INSTANCES`)."""
    from repro.corpus import generate
    from repro.jobs import payload_digest
    params = payload_digest({
        "variants": [[variant.name, variant.pipeline,
                      variant.options.digest(), variant.sync_banks,
                      variant.check_equivalence] for variant in grid],
        "seeds": list(seeds), "cycles": cycles,
        "max_equiv_instances": MAX_EQUIV_INSTANCES})

    def address(config: str, payload: tuple) -> str:
        return "|".join(("sweep", config, generate(config).fingerprint(),
                         params))
    return address


def _registry_names() -> list[str]:
    from repro.corpus import names
    return names("all")


def _quarantined_row(config: str, variant: PipelineVariant,
                     error: str | None) -> list[object]:
    """A sweep row for a config the executor gave up on: identity
    columns filled, measurements empty, the failure in ``status``."""
    row = dict.fromkeys(SWEEP_COLUMNS)
    row.update(config=config, variant=variant.name,
               pipeline=variant.pipeline,
               strategy=variant.options.strategy,
               mode=getattr(variant.options.mode, "value",
                            variant.options.mode),
               status=f"quarantined: {error or 'executor gave up'}"[:160])
    return [row[column] for column in SWEEP_COLUMNS]


def _sweep_config_task(payload: tuple) -> list:
    """One shard task: every variant of one config, as ``[(row,
    stats), ...]`` in variant order.

    The variants share the config's netlist and everything memoized on
    it (latch conversion, STA, the batched reference streams), and one
    fabric table (see :func:`_sweep_cell`): variants that build the same
    fabric build, check and verify it once.  The checked variants run
    first, so a fabric an unchecked variant shares with a checked one
    is built once, together with its verdict; the rows still come back
    in variant order.  Each cell frees the fabric it built when it ends
    (:meth:`~repro.desync.flow.DesyncResult.release`), so the task
    holds one fabric at a time without running the collector.
    """
    config, grid, seeds, cycles = payload
    from repro.corpus import generate

    netlist = generate(config)
    fabrics: dict[tuple, dict] = {}
    order = sorted(range(len(grid)),
                   key=lambda index: not grid[index].check_equivalence)
    cells = {index: _sweep_cell(config, netlist, grid[index], seeds, cycles,
                                fabrics)
             for index in order}
    return [cells[index] for index in range(len(grid))]


def _fabric_key(result: DesyncResult) -> tuple:
    """Everything of ``result`` that its fabric, the fabric's model and
    their verdicts depend on besides the config's netlist: what
    :class:`ControllerNetworkPass` reads (the clustering, the stage
    delays, the margin and the mode) plus the minimum stage delays the
    hold check reads.  Equal keys on one netlist build equal fabrics."""
    clustering = result.clustering
    return (
        tuple((name, tuple(cluster.registers), cluster.has_self_edge)
              for name, cluster in clustering.clusters.items()),
        tuple(sorted(clustering.edges)),
        tuple(clustering.cluster_of.items()),
        tuple(sorted(result.stage_max.items())),
        tuple(sorted(result.stage_min.items())),
        tuple(sorted(result.env_stage.items())),
        result.options.margin, result.options.mode)


def _engine_summary(reports) -> str:
    """The batch's desync engine as one sweep-row cell: every seed of a
    batch shares one engine and fallback reason."""
    report = next(iter(reports.values()), None)
    if report is None:  # no seeds
        return ""
    if report.fallback_reason:
        return f"{report.desync_engine} ({report.fallback_reason[:60]})"
    return report.desync_engine


def _cell_options(netlist: Netlist,
                  variant: PipelineVariant) -> DesyncOptions:
    """The options a sweep cell of ``variant`` runs on ``netlist``: a
    copy of the variant's, with its sync banks resolved."""
    options = replace(variant.options)
    if variant.sync_banks == AUTO_SYNC_BANKS:
        options.sync_banks = auto_sync_banks(netlist)
    elif variant.sync_banks:
        options.sync_banks = tuple(variant.sync_banks)
    return options


def _sweep_cell(config, netlist, variant, seeds, cycles, fabrics):
    """One grid cell in its ``sweep:cell`` span: ``(row_values, stats)``.

    ``stats`` carries the aggregation inputs the row string cannot:
    ``engines`` (desync engine -> seed count) and ``reasons`` (fallback
    reason -> seed count), both empty for unverified cells.

    ``fabrics`` is the config task's fabric table: :func:`_fabric_key`
    -> the row values of that fabric (``desync_cycle_ps``,
    ``area_ratio`` and, once a checked cell verified it, ``verdict``:
    the verification's row fields and stats), never the fabric itself.
    A cell whose key is in the table takes those values instead of
    building the fabric; its ``build_ms``/``verify_ms`` then read the
    lookup, near zero.  A checked cell whose fabric has no verdict yet
    (first built by an unchecked variant) builds and verifies it.  The
    cell frees the fabric it built before it returns.
    """
    stats = {"engines": {}, "reasons": {}}
    options = _cell_options(netlist, variant)
    row = {column: None for column in SWEEP_COLUMNS}
    row.update(config=config, variant=variant.name,
               pipeline=variant.pipeline, strategy=options.strategy,
               mode=options.mode.value,
               registers=len(netlist.dff_instances()))
    checked = (variant.check_equivalence
               and len(netlist) <= MAX_EQUIV_INSTANCES)
    with TRACER.span("sweep:cell", config=config,
                     variant=variant.name) as span:
        reused = False
        build_start = perf_counter()
        try:
            result, fabric, reused = _build_cell(
                netlist, options, variant.pipeline, fabrics, checked)
        except ReproError as exc:
            row.update(status=f"invalid: {exc}"[:120],
                       build_ms=(perf_counter() - build_start) * 1e3)
        else:
            row.update(build_ms=(perf_counter() - build_start) * 1e3)
            try:
                _fill_row(row, stats, result, fabric, variant, seeds,
                          cycles)
            finally:
                result.release()
        span.set(status=row["status"], desync_engine=row["desync_engine"],
                 reused=reused)
    if reused:
        METRICS.counter("sweep.fabrics.reused").inc()
    return [row[column] for column in SWEEP_COLUMNS], stats


def _build_cell(netlist, options, pipeline, fabrics, checked):
    """Run a cell's pass sequence: ``(result, fabric, reused)``.

    A sequence without a controller network runs whole and gives
    ``fabric=None``.  In one with it, that pass comes last (it reads
    every other pass's artifact), and ``fabric`` is the fabric's entry
    in the table ``fabrics``: with ``reused`` the sequence stopped
    before the controller-network pass because the entry already had
    what the cell needs (a verdict, if the cell is ``checked``);
    without it the fabric was built and its fresh entry filed.
    """
    result, passes = _new_result(netlist, options, pipeline)
    with TRACER.span(f"pipeline:{pipeline}", netlist=netlist.name):
        if not isinstance(passes[-1], ControllerNetworkPass):
            _run_passes(result, passes)
            return result, None, False
        _run_passes(result, passes[:-1])
        key = _fabric_key(result)
        fabric = fabrics.get(key)
        if fabric is not None and (not checked or "verdict" in fabric):
            return result, fabric, True
        _run_passes(result, passes[-1:])
    fabrics[key] = fabric = {
        "desync_cycle_ps": result.desync_cycle_time().cycle_time,
        "area_ratio": (result.desync_netlist.total_area()
                       / netlist.total_area())}
    return result, fabric, False


def _fill_row(row, stats, result, fabric, variant, seeds, cycles):
    """Fill a built cell's measurement and verdict columns, and
    ``stats``, from ``result`` and its fabric's table entry; a checked
    cell verifies the fabric first if the entry has no verdict yet."""
    sync_period = result.sync_period()
    desync_cycle = (result.desync_cycle_time().cycle_time if fabric is None
                    else fabric["desync_cycle_ps"])
    row.update(domains=len(result.clustering.clusters),
               edges=len(result.clustering.edges),
               sync_island=result.sync_island,
               sync_period_ps=sync_period,
               desync_cycle_ps=desync_cycle,
               cycle_ratio=desync_cycle / sync_period)
    if fabric is None:
        row.update(status="model-only")
        return
    row.update(area_ratio=fabric["area_ratio"])
    if not variant.check_equivalence:
        row.update(status="unchecked")
        return
    if len(result.sync_netlist) > MAX_EQUIV_INSTANCES:
        row.update(status="unchecked", equiv_seeds=0)
        return
    row.update(lanes=len(seeds))
    verify_start = perf_counter()
    if "verdict" not in fabric:
        fabric["verdict"] = _verify(result, seeds, cycles)
    fields, tallies = fabric["verdict"]
    row.update(fields, verify_ms=(perf_counter() - verify_start) * 1e3)
    for name, tally in tallies.items():
        stats[name].update(tally)


def _verify(result, seeds, cycles):
    """The batched equivalence and hold verdict of ``result``'s fabric:
    its row fields and its ``stats`` tallies.  A stalled or deadlocked
    fabric is a ``failed`` verdict, not a reason to abort the grid and
    lose every completed row."""
    from repro.equiv import check_flow_equivalence_batch

    engines, reasons = {}, {}
    tallies = {"engines": engines, "reasons": reasons}
    try:
        reports = check_flow_equivalence_batch(result, seeds, cycles=cycles)
        equiv_ok = all(report.equivalent for report in reports.values())
        hold_ok = all(check.ok
                      for check in result.verify_hold(rounds=cycles))
    except ReproError as exc:
        return {"status": f"failed: {exc}"[:120], "equiv_seeds": len(seeds),
                "equiv_ok": False}, tallies
    for report in reports.values():
        engines[report.desync_engine] = \
            engines.get(report.desync_engine, 0) + 1
        if report.fallback_reason:
            reasons[report.fallback_reason] = \
                reasons.get(report.fallback_reason, 0) + 1
    return {"status": "ok" if (equiv_ok and hold_ok) else "failed",
            "equiv_seeds": len(reports), "equiv_ok": equiv_ok,
            "hold_ok": hold_ok,
            "desync_engine": _engine_summary(reports)}, tallies
