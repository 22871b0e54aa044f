"""Delay-fault injection campaigns over the de-synchronized corpus.

A campaign fans ``(config x perturbation x seed)`` cells through the
grid runner (:func:`repro.jobs.run_grid`) and asserts the paper's
robustness claim cell by cell:

* **delay cells** perturb every instance delay — uniform scaling
  (flow equivalence must survive *any* dilation), seeded gaussian
  jitter, and the adversarial fast-request/slow-data attack — and
  expect the fabric to stay flow-equivalent;
* **fault cells** inject stuck-at/glitch faults on controller nets
  (:mod:`repro.faults.inject`) and expect the equivalence checker to
  *detect* each one — a silent pass is reported, never dropped;
* **margin cells** erode one stage's matched delay line
  (:meth:`~repro.timing.DelayModel.eroded`) and bisect the factor at
  which equivalence breaks, measuring the stage's real failure margin
  against the 10 % guard band the planner paid for.

Workers cache the built pipeline per config (one desynchronization
serves every cell of that config in the same process) and honour the
``REPRO_FAULTS_SLEEP=<substr>:<seconds>`` chaos hook, which delays any
cell whose key contains ``substr`` — how CI exercises the per-cell
timeout and quarantine paths with a deliberately slow cell.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field

from repro.faults.inject import (
    CONTROL_PREFIXES,
    FAULT_KINDS,
    GLITCH_PREFIXES,
    FaultSite,
    run_detection,
    sample_control_nets,
)
from repro.jobs import (
    CellOutcome,
    ExecutorPolicy,
    cache_key,
    cell_retries,
    cell_timeout,
    default_job_dir,
    payload_digest,
    run_grid,
    sweep_jobs,
)
from repro.obs.metrics import METRICS
from repro.obs.trace import TRACER
from repro.timing.delays import DelayModel
from repro.utils.errors import (
    FaultCampaignError,
    FlowEquivalenceError,
    ReproError,
    SimulationError,
)

#: Chaos hook: ``<substr>:<seconds>`` sleeps before any cell whose key
#: contains ``substr`` — deterministic way to make a cell slow.
SLEEP_ENV = "REPRO_FAULTS_SLEEP"

#: Columns of the ``BENCH_faults`` envelope, one row per campaign cell.
CAMPAIGN_COLUMNS = [
    "cell", "kind", "config", "target", "param", "seed",
    "status", "detail", "margin", "attempts", "wall_ms",
]

#: Statuses that count as the expected outcome per cell kind.
_EXPECTED = {"delay": "survived", "fault": "detected", "margin": "cliff"}


@dataclass(frozen=True)
class CampaignSpec:
    """What a campaign sweeps.

    ``configs`` are corpus registry names, run through the serial-mode
    ``desync`` pipeline (the statically race-free discipline — the one
    whose equivalence the repo guarantees).  ``margin_configs`` default
    to the first config; erosion bisection costs ``margin_steps + 2``
    equivalence checks per config, so it is opt-in per config rather
    than blanket.
    """

    configs: tuple[str, ...]
    seeds: tuple[int, ...] = (0,)
    cycles: int = 8
    scales: tuple[float, ...] = (1.0 / 3.0, 3.0)
    jitter_sigmas: tuple[float, ...] = (0.01,)
    adversarial_eps: tuple[float, ...] = (0.02,)
    fault_kinds: tuple[str, ...] = FAULT_KINDS
    max_fault_sites: int = 4
    margin_configs: tuple[str, ...] | None = None
    margin_steps: int = 6

    def __post_init__(self) -> None:
        if not self.configs:
            raise FaultCampaignError("campaign needs at least one config")
        for kind in self.fault_kinds:
            if kind not in FAULT_KINDS:
                raise FaultCampaignError(
                    f"unknown fault kind {kind!r} "
                    f"(have: {', '.join(FAULT_KINDS)})")
        if self.margin_steps < 1:
            raise FaultCampaignError(
                f"margin_steps must be >= 1, got {self.margin_steps}")

    def resolved_margin_configs(self) -> tuple[str, ...]:
        if self.margin_configs is not None:
            return self.margin_configs
        return self.configs[:1]


def campaign_cells(spec: CampaignSpec) -> list[tuple[str, dict]]:
    """The deterministic ``(key, payload)`` cell list of a campaign.

    Keys are stable across runs and processes — they are the job-store
    identity that makes a rerun on the same job dir cell-exact.  Fault
    cells reference controller nets by *site index* into the seeded
    sample (the actual nets exist only after the worker builds the
    fabric).
    """
    cells: list[tuple[str, dict]] = []

    def add(key: str, **payload) -> None:
        payload.setdefault("seed", 0)
        payload["cell"] = key
        payload["cycles"] = spec.cycles
        cells.append((key, payload))

    for config in spec.configs:
        for seed in spec.seeds:
            for scale in spec.scales:
                add(f"delay:{config}:scale:{scale:g}:{seed}",
                    kind="delay", config=config, target="scale",
                    param=f"{scale:g}", seed=seed)
            for sigma in spec.jitter_sigmas:
                add(f"delay:{config}:jitter:{sigma:g}:{seed}",
                    kind="delay", config=config, target="jitter",
                    param=f"{sigma:g}", seed=seed)
            for eps in spec.adversarial_eps:
                add(f"delay:{config}:adversarial:{eps:g}:{seed}",
                    kind="delay", config=config, target="adversarial",
                    param=f"{eps:g}", seed=seed)
        seed = spec.seeds[0]
        for index in range(spec.max_fault_sites):
            for kind in spec.fault_kinds:
                add(f"fault:{config}:site{index}:{kind}:{seed}",
                    kind="fault", config=config, target=f"site{index}",
                    param=kind, seed=seed, site_index=index,
                    max_sites=spec.max_fault_sites)
    for config in spec.resolved_margin_configs():
        seed = spec.seeds[0]
        add(f"margin:{config}:erode:bisect:{seed}",
            kind="margin", config=config, target="erode", param="bisect",
            seed=seed, steps=spec.margin_steps)
    keys = [key for key, _ in cells]
    if len(set(keys)) != len(keys):
        raise FaultCampaignError("campaign spec generates duplicate cells")
    return cells


# ----------------------------------------------------------------------
# worker side
# ----------------------------------------------------------------------

#: Per-process cache: one built serial-mode pipeline serves every cell
#: of the same config that runs in this process — a pool worker, or
#: the campaign's own process when its cells run in process (then
#: :func:`run_campaign` clears it on return).
_RESULT_CACHE: dict[str, object] = {}


def _campaign_worker_init() -> None:
    from repro.obs.trace import TRACE_ENV
    os.environ.pop(TRACE_ENV, None)
    TRACER.disarm()
    _RESULT_CACHE.clear()


def campaign_options():
    """The serial-mode flow options a campaign uses for every config.

    Shared between the worker (which builds the pipeline) and the
    driver (which derives result-cache keys from
    :meth:`~repro.desync.flow.DesyncOptions.digest` without building
    anything), so the cache key always reflects the options actually
    run.
    """
    from repro.desync.flow import DesyncOptions, HandshakeMode
    return DesyncOptions(mode=HandshakeMode.SERIAL)


def _campaign_result(config: str):
    result = _RESULT_CACHE.get(config)
    if result is None:
        from repro.corpus import generate
        from repro.desync.pipeline import make_result, run_pipeline
        result = make_result(run_pipeline(generate(config),
                                          campaign_options()))
        _RESULT_CACHE[config] = result
    return result


def _chaos_sleep(key: str) -> None:
    raw = os.environ.get(SLEEP_ENV, "").strip()
    if not raw or ":" not in raw:
        return
    substr, _, seconds = raw.rpartition(":")
    if substr and substr in key:
        time.sleep(float(seconds))


def _check(result, cycles: int, seed: int, delay_model=None):
    from repro.equiv.flow_equivalence import check_flow_equivalence
    from repro.testing.stimulus import random_stimulus
    stimulus = random_stimulus(result.sync_netlist, cycles, seed)
    return check_flow_equivalence(result, cycles=cycles,
                                  inputs_per_cycle=stimulus,
                                  delay_model=delay_model)


def _delay_cell(row: dict, result, payload: dict) -> None:
    target, param = payload["target"], float(payload["param"])
    if target == "scale":
        model = DelayModel.scaled(param)
    elif target == "jitter":
        model = DelayModel.jittered(param, seed=payload["seed"])
    elif target == "adversarial":
        model = DelayModel.adversarial(param)
    else:
        raise FaultCampaignError(f"unknown delay target {target!r}")
    try:
        report = _check(result, payload["cycles"], payload["seed"],
                        delay_model=model)
    except FlowEquivalenceError as exc:
        row.update(status="stalled", detail=str(exc)[:160])
        return
    if report.equivalent:
        row.update(status="survived",
                   detail=f"{report.registers} registers x "
                          f"{report.cycles_compared} cycles")
    else:
        first = report.divergences[0]
        row.update(status="diverged",
                   detail=f"{first.register}@cycle{first.cycle}")


def _fault_cell(row: dict, result, payload: dict) -> None:
    kind = payload["param"]
    prefixes = GLITCH_PREFIXES if kind == "glitch" else CONTROL_PREFIXES
    nets = sample_control_nets(result.desync_netlist,
                               payload["max_sites"], prefixes=prefixes)
    index = payload["site_index"]
    if index >= len(nets):
        row.update(status="skipped",
                   detail=f"only {len(nets)} controller sites")
        return
    site = FaultSite(nets[index], kind)
    detected, how = run_detection(result, site,
                                  cycles=payload["cycles"],
                                  seed=payload["seed"])
    status = ("skipped" if detected is None
              else "detected" if detected else "undetected")
    row.update(status=status, detail=f"{site.label}: {how}"[:160])


def _margin_cell(row: dict, result, payload: dict) -> None:
    plans = result.network.delay_plans
    if not plans:
        row.update(status="skipped", detail="no matched delay lines")
        return
    pred, succ = max(plans, key=lambda edge: plans[edge].achieved)
    cycles, seed = payload["cycles"], payload["seed"]

    def survives(factor: float) -> bool:
        try:
            return _check(result, cycles, seed,
                          delay_model=DelayModel.eroded(pred, succ, factor)
                          ).equivalent
        except (FlowEquivalenceError, SimulationError):
            return False

    stage = f"{pred}->{succ}"
    if not survives(1.0):
        row.update(status="broken-at-nominal", detail=f"stage {stage}")
        return
    if survives(0.0):
        # Even a zero-delay request line keeps equivalence: the stage's
        # data path is outrun by the controller overhead itself.
        row.update(status="no-cliff", margin=1.0,
                   detail=f"stage {stage} survives factor 0")
        return
    lo, hi = 0.0, 1.0  # lo breaks, hi survives — invariant of the loop
    for _ in range(payload["steps"]):
        mid = (lo + hi) / 2.0
        if survives(mid):
            hi = mid
        else:
            lo = mid
    row.update(status="cliff", margin=round(1.0 - hi, 4),
               detail=f"stage {stage} breaks below {hi:.4f}x "
                      f"({plans[(pred, succ)].achieved:.0f} ps line)")


def _campaign_cell(payload: dict) -> dict:
    """One campaign cell, executed in a pool worker or in process.

    Returns the row as a JSON-serializable dict (the job store and the
    result cache round-trip it); ``attempts`` is filled by the driver.
    """
    from time import perf_counter
    _chaos_sleep(payload["cell"])
    row = {column: None for column in CAMPAIGN_COLUMNS}
    row.update(cell=payload["cell"], kind=payload["kind"],
               config=payload["config"], target=payload["target"],
               param=payload["param"], seed=payload["seed"])
    start = perf_counter()
    try:
        result = _campaign_result(payload["config"])
        if payload["kind"] == "delay":
            _delay_cell(row, result, payload)
        elif payload["kind"] == "fault":
            _fault_cell(row, result, payload)
        elif payload["kind"] == "margin":
            _margin_cell(row, result, payload)
        else:
            raise FaultCampaignError(
                f"unknown cell kind {payload['kind']!r}")
    except ReproError as exc:
        # A cell verdict, not a reason to lose the campaign: the row
        # records the failure and the survival/detection rates count it
        # against the claim.
        row.update(status=f"error: {type(exc).__name__}"[:60],
                   detail=str(exc)[:160])
    row["wall_ms"] = (perf_counter() - start) * 1e3
    return row


# ----------------------------------------------------------------------
# driver
# ----------------------------------------------------------------------

@dataclass
class CampaignReport:
    """Everything :func:`run_campaign` learned, envelope-ready."""

    columns: list[str]
    rows: list[list[object]]
    summary: dict
    quarantined: list[str] = field(default_factory=list)


def _campaign_cache_key():
    """The ``cache_key`` function that gives each campaign cell its
    content address, computed driver-side.

    The netlist is generated here (cheap — the expensive part is
    desynchronizing it, which is exactly what the cache skips) so the
    key can be derived from its structural fingerprint plus the digest
    of the flow options and the full cell payload.
    """
    from repro.corpus import generate
    options_digest = campaign_options().digest()
    fingerprints: dict[str, str] = {}

    def address(key: str, payload: dict) -> str:
        config = payload["config"]
        if config not in fingerprints:
            fingerprints[config] = generate(config).fingerprint()
        return cache_key(fingerprints[config],
                         f"{options_digest}:{payload_digest(payload)}",
                         "campaign")
    return address


def run_campaign(spec: CampaignSpec, jobs: int | None = None,
                 timeout: float | None = None,
                 retries: int | None = None,
                 job_dir: str | None = None,
                 cache_dir: str | None = None,
                 worker_id: str | None = None,
                 lease_ttl: float | None = None) -> CampaignReport:
    """Run a fault-injection campaign on the grid runner.

    ``jobs``/``timeout``/``retries`` default to the ``REPRO_JOBS`` /
    ``REPRO_CELL_TIMEOUT`` / ``REPRO_CELL_RETRIES`` environment knobs.
    Rows come back in canonical cell order whatever the completion
    order, so envelopes of two runs compare row-for-row (modulo the
    wall-time fields).  Quarantined cells become rows with status
    ``"quarantined: ..."``.

    ``job_dir`` (default :data:`repro.jobs.JOB_DIR_ENV`) routes
    scheduling through the durable job store: several processes running
    the same campaign against one directory cooperate, crashed workers
    are reclaimed, every process returns the complete merged report, and
    rerunning on the same directory resumes an interrupted campaign
    without re-running its finished cells.  ``cache_dir`` points at a
    content-addressed result cache — cells whose (netlist fingerprint,
    options digest, payload) was already computed are served from the
    cache instead of re-run.
    """
    cells = campaign_cells(spec)
    policy = ExecutorPolicy(
        jobs=jobs if jobs is not None else sweep_jobs(),
        timeout=timeout if timeout is not None else cell_timeout(),
        retries=retries if retries is not None else cell_retries(),
        job_dir=job_dir if job_dir is not None else default_job_dir(),
        worker_id=worker_id, lease_ttl=lease_ttl)
    with TRACER.span("faults:campaign", cells=len(cells),
                     configs=len(spec.configs), jobs=policy.jobs):
        try:
            outcomes, stats = run_grid(
                cells, _campaign_cell, policy,
                cache_key=_campaign_cache_key(), cache_dir=cache_dir,
                initializer=_campaign_worker_init,
                metric_prefix="faults.executor")
        finally:
            _RESULT_CACHE.clear()  # pipelines an in-process run built

    rows: list[list[object]] = []
    counts: dict[str, dict[str, int]] = {}
    margins: dict[str, float | None] = {}
    for key, payload in cells:
        row = _outcome_row(key, payload, outcomes[key])
        rows.append([row[column] for column in CAMPAIGN_COLUMNS])
        kind, status = row["kind"], (row["status"] or "").split(":")[0]
        per_kind = counts.setdefault(kind, {})
        per_kind[status] = per_kind.get(status, 0) + 1
        if kind == "margin" and status in ("cliff", "no-cliff"):
            margins[row["config"]] = row["margin"]

    summary = {
        "cells": len(cells),
        "statuses": {kind: dict(sorted(states.items()))
                     for kind, states in sorted(counts.items())},
        "survival_rate": _rate(counts.get("delay", {}), "survived"),
        "detection_rate": _rate(counts.get("fault", {}), "detected"),
        "margins": dict(sorted(margins.items())),
        "quarantined": list(stats.quarantined),
        "executor": stats.as_dict(),
    }
    if stats.jobs is not None:
        summary["jobs"] = stats.jobs
    for kind, states in counts.items():
        for status, count in states.items():
            METRICS.counter(f"faults.{kind}.{status}").inc(count)
        expected = _EXPECTED.get(kind)
        if expected is not None:
            METRICS.counter(f"faults.{kind}.{expected}").inc(0)
    METRICS.counter("faults.cells").inc(len(cells))
    return CampaignReport(columns=list(CAMPAIGN_COLUMNS), rows=rows,
                          summary=summary,
                          quarantined=list(stats.quarantined))


def _outcome_row(key: str, payload: dict, outcome: CellOutcome) -> dict:
    if outcome.status == "ok":
        row = {column: outcome.value.get(column)
               for column in CAMPAIGN_COLUMNS}
    else:
        row = {column: None for column in CAMPAIGN_COLUMNS}
        row.update(cell=key, kind=payload["kind"],
                   config=payload["config"], target=payload["target"],
                   param=payload["param"], seed=payload["seed"],
                   status=f"quarantined: {outcome.error}"[:160],
                   wall_ms=0.0)
    row["attempts"] = outcome.attempts
    return row


def _rate(states: dict[str, int], expected: str) -> float | None:
    total = sum(count for status, count in states.items()
                if status != "skipped")
    if not total:
        return None
    return states.get(expected, 0) / total
