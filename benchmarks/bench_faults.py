"""BENCH faults — the delay-fault injection campaign.

Drives :func:`repro.faults.run_campaign` over the corpus: per config,
uniform ±3x delay scaling, seeded gaussian jitter and the adversarial
fast-request/slow-data attack (flow equivalence must survive all of
them), stuck-at and transient faults on sampled handshake controller
nets (the equivalence checker must detect every one), and a
margin-erosion bisection measuring where a feedback config's matched
delay line actually breaks.

The campaign fans cells through the grid runner
(:func:`repro.jobs.run_grid`) — per-cell timeouts, crash recovery,
bounded retries, quarantine — whose accounting lands in the summary and
the ``faults.executor.*`` metric counters.

Artifacts: ``benchmarks/out/BENCH_faults.txt`` (paper-style table) and
``benchmarks/out/BENCH_faults.json`` (versioned series, validated by
``check_envelopes.py`` like every other envelope).

Grid size: set ``REPRO_GRID=smoke`` for the CI smoke subset; the
default campaigns the whole core tier.  ``REPRO_JOBS=N`` shards cells
across a process pool.

Run:  PYTHONPATH=src python -m pytest benchmarks/bench_faults.py -q
"""

from __future__ import annotations


import pytest

from benchmarks.conftest import out_path, smoke_grid, write_out
from repro.corpus import names
from repro.faults import CampaignSpec, run_campaign
from repro.obs import METRICS
from repro.report import TextTable, write_json

#: CI smoke subset: one feed-forward pipeline (delay/fault coverage on
#: a linear chain) plus the feedback counter, whose self-loop stage is
#: the margin-cliff config.
SMOKE_CONFIGS = ("pipe4x1", "counter6")


def _spec() -> CampaignSpec:
    if smoke_grid():
        configs = SMOKE_CONFIGS
    else:
        configs = tuple(names("core"))
    # counter6's self-loop stage has a real erosion cliff; the
    # feed-forward configs out-pace their own data cones even at factor
    # 0 (controller overhead dominates), which would measure nothing.
    return CampaignSpec(configs=configs, margin_configs=("counter6",))


@pytest.mark.benchmark(group="faults")
def test_bench_faults(benchmark):
    spec = _spec()
    METRICS.reset()  # the envelope's metrics block is this run's alone
    report = benchmark.pedantic(run_campaign, args=(spec,),
                                rounds=1, iterations=1)

    table = TextTable("BENCH faults - delay/fault injection campaign",
                      report.columns)
    for row in report.rows:
        table.add_row(*(("-" if cell is None else
                         f"{cell:.3f}" if isinstance(cell, float) else cell)
                        for cell in row))
    table.print()

    stats = TextTable("BENCH faults - campaign summary",
                      ["kind", "name", "value"])
    for kind, states in report.summary["statuses"].items():
        for status, count in states.items():
            stats.add_row("status", f"{kind}.{status}", count)
    stats.add_row("rate", "survival", report.summary["survival_rate"])
    stats.add_row("rate", "detection", report.summary["detection_rate"])
    for config, margin in report.summary["margins"].items():
        stats.add_row("margin", config, margin)
    for name, value in report.summary["executor"].items():
        stats.add_row("executor", name, value)
    stats.print()
    write_out("BENCH_faults.txt",
              table.render() + "\n\n" + stats.render())
    write_json(out_path("BENCH_faults.json"), report.columns, report.rows,
               metrics=METRICS.snapshot())

    by = [dict(zip(report.columns, row)) for row in report.rows]
    assert report.summary["cells"] == len(by)
    assert not report.quarantined, report.quarantined

    # The paper's robustness claim, cell by cell: every delay
    # perturbation survived, every injected controller fault detected.
    assert report.summary["survival_rate"] == 1.0, [
        c for c in by if c["kind"] == "delay" and c["status"] != "survived"]
    assert report.summary["detection_rate"] == 1.0, [
        c for c in by if c["kind"] == "fault"
        and c["status"] not in ("detected", "skipped")]

    # At least one measured margin cliff: erosion found the factor where
    # equivalence actually breaks, strictly inside (0, 1).
    cliffs = [c for c in by if c["kind"] == "margin"
              and c["status"] == "cliff"]
    assert cliffs, [c for c in by if c["kind"] == "margin"]
    assert all(0.0 < c["margin"] < 1.0 for c in cliffs), cliffs
