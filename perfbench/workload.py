"""Run one benchmark workload in this (fresh) interpreter.

This is the child side of ``perfbench/run.py``: each repetition of a
workload runs here in its own interpreter with ``jobs=1``, so every
process-local cache starts empty, as it does for a user.  Prints one
JSON object as its last line of standard output.

    python3 perfbench/workload.py --workload sweep --seed 0
    python3 perfbench/workload.py --workload sweep --seed 0 --trace DIR
    python3 perfbench/workload.py --workload sweep --setup-only

``--setup-only`` stops right before the workload's call and reports
when that was; ``--trace DIR`` installs the per-layer wrappers
(:mod:`layers`) and reports their totals, with forked workers' totals
dumped to and merged from ``DIR``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import resource
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# Each workload is sized so one repetition takes about 5 s on a 2-vCPU
# x86-64 box, and a run of --seconds 60 reports the median of about 10.
# On a shared host, speed drifts by up to 1.5x from one 15 s stretch to
# the next, so a run must span several of them to be repeatable.

#: Sweep configs under the model-validation bank cap: the
#: explicit-reachability model check runs on them.  The other configs
#: that qualify (pipe8x*, fir10, diamond2x4, rnd8s*, diamond1x8,
#: diamond3x5) are left out only to bound the repetition length.
UNDER_CAP = ("fir8", "rnd8s5")

#: Sweep configs above the cap with at most 200 instances: reachability
#: is skipped, so batched equivalence and cycle time run instead.
VERIFIED = ("fir16s", "mult6", "diamond4x8", "pipe12x2", "rnd16s0",
            "rnd32s0")

#: Sweep configs over ``max_equiv_instances``: every cell is
#: ``unchecked``, so only the flow passes run.  DLX goes through the
#: Verilog reader.
BUILD_ONLY = ("dlx", "mult12", "pipe20x4")

SWEEP = UNDER_CAP + VERIFIED + BUILD_ONLY

#: Fault campaign over the core tier plus pipe12x2, whose stuck-at cell
#: ``stuck1@ack:st10>st11`` passes silently (reported, not asserted
#: away); margin bisection runs on counter6 only.
CAMPAIGN = (
    "counter6", "crc5", "crc8", "diamond2x4", "fir5", "fir8", "lfsr16",
    "lfsr8", "mult2", "mult4", "pipe4x1", "pipe4x4", "pipe8x2",
    "pipe12x2",
)
CAMPAIGN_MARGIN = ("counter6",)

WORKLOADS = {
    "sweep": SWEEP,
    "campaign": CAMPAIGN,
}

#: Stimulus seeds per sweep cell, as in ``SWEEP_SEEDS``.
SEEDS_PER_CELL = 8


def sweep_seeds(seed: int) -> tuple[int, ...]:
    """Stimulus seeds of workload seed ``seed``: seed 0 gives 0..7, the
    sweep default; seed n gives the next disjoint block of eight."""
    return tuple(range(seed * SEEDS_PER_CELL, (seed + 1) * SEEDS_PER_CELL))


def timing_fields() -> tuple[str, ...]:
    """Row fields that hold wall times, from ``check_envelopes``."""
    import importlib.util
    path = os.path.join(ROOT, "benchmarks", "check_envelopes.py")
    spec = importlib.util.spec_from_file_location("check_envelopes", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return tuple(module.TIMING_FIELDS)


def rows_digest(columns: list[str], rows: list[list[object]]) -> str:
    """sha256 of the rows with the wall-time fields removed."""
    drop = set(timing_fields())
    keep = [i for i, column in enumerate(columns) if column not in drop]
    view = [[columns[i] for i in keep]] + [[row[i] for i in keep]
                                           for row in rows]
    canonical = json.dumps(view, separators=(",", ":"), default=str)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def gmean(values: list[float]) -> float | None:
    values = [value for value in values if value and value > 0]
    if not values:
        return None
    return math.exp(sum(math.log(value) for value in values) / len(values))


FAILED_STATUSES = ("failed", "quarantined", "error", "dead-letter")


def classify(columns: list[str], rows: list[list[object]],
             keys: tuple[str, ...]):
    """Column index, status stem per row, and one problem per row whose
    status is a failure (the row named by its ``keys`` columns)."""
    at = {column: i for i, column in enumerate(columns)}
    statuses = [(row[at["status"]] or "").split(":")[0] for row in rows]
    problems = [f"{'/'.join(str(row[at[key]]) for key in keys)}: "
                f"{row[at['status']]}"
                for row, status in zip(rows, statuses)
                if status.startswith(FAILED_STATUSES)]
    return at, statuses, problems


def run_sweep(configs: tuple[str, ...], seed: int) -> dict:
    from repro.desync.pipeline import sweep_pipelines
    from repro.obs.metrics import METRICS
    call_at = time.monotonic()
    start = time.perf_counter()
    columns, rows, _ = sweep_pipelines(list(configs), seeds=sweep_seeds(seed),
                                       jobs=1)
    wall = time.perf_counter() - start
    at, statuses, problems = classify(columns, rows, ("config", "variant"))
    failed = len(problems)
    problems += [f"{row[at['config']]}/{row[at['variant']]}: ok without "
                 "equiv_ok and hold_ok"
                 for row, status in zip(rows, statuses)
                 if status == "ok" and not (row[at["equiv_ok"]]
                                            and row[at["hold_ok"]])]
    fallbacks = METRICS.snapshot().get("sim.replay.fallbacks",
                                       {}).get("value", 0)
    if fallbacks:
        problems.append(f"sim.replay.fallbacks = {fallbacks}")
    return {
        "call_at": call_at, "wall_s": wall, "columns": columns,
        "rows": rows, "attempted": len(rows), "failed": failed,
        "problems": problems,
        "executor": {"overhead_s": 0.0, "retries": 0, "quarantined": 0},
        "quality": {
            "fail_share": failed / len(rows),
            "checked_share": sum(s in ("ok", "failed") for s in statuses)
            / len(rows),
            "cycle_ratio_gmean": gmean([row[at["cycle_ratio"]]
                                        for row in rows]),
            "area_ratio_gmean": gmean([row[at["area_ratio"]]
                                       for row in rows]),
        },
    }


def run_campaign(configs: tuple[str, ...], seed: int) -> dict:
    from repro.faults.campaign import CampaignSpec, run_campaign as campaign
    spec = CampaignSpec(configs=configs, seeds=(seed,),
                        margin_configs=CAMPAIGN_MARGIN)
    call_at = time.monotonic()
    start = time.perf_counter()
    report = campaign(spec, jobs=1)
    wall = time.perf_counter() - start
    columns, rows, summary = report.columns, report.rows, report.summary
    at, statuses, problems = classify(columns, rows, ("cell",))
    failed = len(problems)
    if summary["survival_rate"] != 1.0:
        problems.append(f"survival_rate = {summary['survival_rate']}")
    return {
        "call_at": call_at, "wall_s": wall, "columns": columns,
        "rows": rows, "attempted": len(rows), "failed": failed,
        "problems": problems,
        "executor": {
            "overhead_s": wall - sum(row[at["wall_ms"]] or 0.0
                                     for row in rows) / 1e3,
            "retries": summary["executor"]["retries"],
            "quarantined": len(summary["executor"]["quarantined"]),
        },
        "undetected": [f"{row[at['cell']]} ({row[at['detail']]})"
                       for row, status in zip(rows, statuses)
                       if status == "undetected"],
        "quality": {
            "fail_share": failed / len(rows),
            "survival_rate": summary["survival_rate"],
            "detection_rate": summary["detection_rate"],
        },
    }


def peak_rss_mb() -> float:
    """Peak RSS of this process plus its largest waited-for child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--trace", metavar="DIR")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    sys.path.insert(0, os.path.join(ROOT, "src"))
    import repro.corpus  # noqa: F401  (the workload's imports are set-up)
    import repro.desync.pipeline  # noqa: F401
    import repro.equiv  # noqa: F401
    import repro.faults.campaign  # noqa: F401

    if args.setup_only:
        print(json.dumps({"call_at": time.monotonic()}))
        return 0
    clock = None
    if args.trace:
        from layers import install
        clock = install(args.trace)
    configs = WORKLOADS[args.workload]
    runner = run_campaign if args.workload == "campaign" else run_sweep
    result = runner(configs, args.seed)
    result["digest"] = rows_digest(result.pop("columns"), result.pop("rows"))
    result["peak_rss_mb"] = peak_rss_mb()
    if clock is not None:
        seconds, counts, counters = clock.merge_dumps()
        result["layers"] = {"seconds": seconds, "counts": counts,
                            "counters": counters, "absent": clock.absent}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
