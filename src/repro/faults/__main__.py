"""Command-line fault-injection campaign driver.

Runs :func:`repro.faults.run_campaign` over a corpus tier (or an
explicit config list) and writes the ``BENCH_faults`` envelope — the
same ``repro-bench/2`` JSON shape as the other benchmarks, so
``benchmarks/check_envelopes.py`` validates and compares it.

Examples::

    PYTHONPATH=src python -m repro.faults --tier core \
        --out benchmarks/out/BENCH_faults.json

    # interruptible and reusable: a rerun with the same --job-dir
    # runs only the cells it holds no result for (cells are filed by
    # content, so a changed --cycles or config list recomputes exactly
    # the cells it changes)
    PYTHONPATH=src python -m repro.faults --configs pipe4x1 counter6 \
        --job-dir /tmp/faults-jobs
    PYTHONPATH=src python -m repro.faults --configs pipe4x1 counter6 \
        --job-dir /tmp/faults-jobs

    # two cooperating worker processes on one durable job dir
    PYTHONPATH=src python -m repro.faults --tier core --job-dir /tmp/jobs &
    PYTHONPATH=src python -m repro.faults --tier core --job-dir /tmp/jobs
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.corpus import names
from repro.faults.campaign import CampaignSpec, run_campaign
from repro.obs.metrics import METRICS
from repro.report import TextTable, write_json


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.faults",
        description="delay-fault injection campaign over the corpus")
    parser.add_argument("--configs", nargs="+", metavar="NAME",
                        help="explicit corpus configs (default: --tier)")
    parser.add_argument("--tier", default="core",
                        help="corpus tier when --configs is absent "
                             "(core, scale, all; default: core)")
    parser.add_argument("--seeds", nargs="+", type=int, default=[0],
                        metavar="N", help="stimulus seeds (default: 0)")
    parser.add_argument("--cycles", type=int, default=8,
                        help="register captures compared per cell")
    parser.add_argument("--scales", nargs="+", type=float,
                        default=[1.0 / 3.0, 3.0], metavar="F",
                        help="uniform delay scaling factors")
    parser.add_argument("--fault-sites", type=int, default=4,
                        help="controller nets faulted per config")
    parser.add_argument("--margin-configs", nargs="*", metavar="NAME",
                        help="configs to bisect margin cliffs on "
                             "(default: first config)")
    parser.add_argument("--margin-steps", type=int, default=6,
                        help="bisection steps per margin cell")
    parser.add_argument("--jobs", type=int, default=None,
                        help="worker processes (default: REPRO_JOBS)")
    parser.add_argument("--timeout", type=float, default=None,
                        help="per-cell seconds "
                             "(default: REPRO_CELL_TIMEOUT)")
    parser.add_argument("--retries", type=int, default=None,
                        help="per-cell retries "
                             "(default: REPRO_CELL_RETRIES)")
    parser.add_argument("--job-dir", metavar="DIR", default=None,
                        help="shared durable job directory: processes "
                             "started with the same --job-dir cooperate "
                             "on the campaign, and a rerun serves every "
                             "cell already computed for the same netlist, "
                             "options and cell (default: REPRO_JOB_DIR)")
    parser.add_argument("--worker-id", metavar="NAME", default=None,
                        help="stable worker identity in --job-dir")
    parser.add_argument("--lease-ttl", type=float, default=None,
                        help="seconds before a silent worker's cells "
                             "are reclaimed (default: REPRO_LEASE_TTL)")
    parser.add_argument("--out", metavar="PATH",
                        default="benchmarks/out/BENCH_faults.json",
                        help="envelope path (a .txt table is written "
                             "next to it)")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    configs = tuple(args.configs) if args.configs else tuple(names(args.tier))
    spec = CampaignSpec(
        configs=configs, seeds=tuple(args.seeds), cycles=args.cycles,
        scales=tuple(args.scales), max_fault_sites=args.fault_sites,
        margin_configs=(tuple(args.margin_configs)
                        if args.margin_configs is not None else None),
        margin_steps=args.margin_steps)

    METRICS.reset()  # the envelope's metrics block is this run's alone
    report = run_campaign(spec, jobs=args.jobs,
                          timeout=args.timeout, retries=args.retries,
                          job_dir=args.job_dir,
                          worker_id=args.worker_id,
                          lease_ttl=args.lease_ttl)

    table = TextTable("BENCH faults - delay/fault campaign",
                      report.columns)
    for row in report.rows:
        table.add_row(*(("-" if cell is None else
                         f"{cell:.3f}" if isinstance(cell, float) else cell)
                        for cell in row))
    table.print()
    print(json.dumps(report.summary, indent=2))

    write_json(args.out, report.columns, report.rows,
               metrics=METRICS.snapshot())
    txt = args.out[:-5] + ".txt" if args.out.endswith(".json") \
        else args.out + ".txt"
    with open(txt, "w") as handle:
        handle.write(table.render() + "\n\n"
                     + json.dumps(report.summary, indent=2) + "\n")

    if report.quarantined:
        print(f"quarantined cells: {', '.join(report.quarantined)}",
              file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
