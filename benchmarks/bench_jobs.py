"""BENCH jobs — the content-addressed durable job store.

Runs the same fault-injection campaign twice on one job directory
(:mod:`repro.jobs`): a **cold** phase that computes every cell and
files it under its content address, then a **warm** phase that must
serve (almost) all of them back from the directory.  The envelope
records, per phase, the campaign wall time, the served/computed split
(``cache_hits`` counts the cells already durable when the phase
started), and the durable-substrate counters (reclaimed leases,
duplicate results, dead-lettered cells, quarantined entries) — the
numbers the chaos drills in CI grep for.

The load-bearing assertion: the warm rerun must skip at least 90 % of
the compute cells (the flow is a pure function of the netlist
fingerprint and the options digest, so a correct address serves every
cell; the 90 % floor leaves room for a deliberately damaged entry
without masking a broken address derivation).  A served cell did no
work in the warm phase, so that phase must also add no work counters
(``equiv.*``, ``sim.*``): the job dir keeps a cell's value, never the
telemetry of the run that computed it.

Artifacts: ``benchmarks/out/BENCH_jobs.txt`` and
``benchmarks/out/BENCH_jobs.json`` (validated by ``check_envelopes.py``,
which requires the ``cache_hit_rate``/``reclaimed``/``duplicates``
columns).

Grid size: set ``REPRO_GRID=smoke`` for the CI smoke subset; the
default campaigns the whole core tier.

Run:  PYTHONPATH=src python -m pytest benchmarks/bench_jobs.py -q
"""

from __future__ import annotations

import tempfile
import time

import pytest

from benchmarks.conftest import out_path, smoke_grid, write_out
from repro.corpus import names
from repro.faults import CampaignSpec, run_campaign
from repro.obs import METRICS
from repro.report import TextTable, write_json

#: Same CI smoke subset as BENCH faults: a feed-forward pipeline plus
#: the feedback counter with the measurable margin cliff.
SMOKE_CONFIGS = ("pipe4x1", "counter6")

COLUMNS = [
    "phase", "cells", "wall_s", "cache_hits", "cache_misses",
    "cache_hit_rate", "reclaimed", "duplicates", "dead_letter",
    "quarantined_entries",
]


def _spec() -> CampaignSpec:
    if smoke_grid():
        configs = SMOKE_CONFIGS
    else:
        configs = tuple(names("core"))
    return CampaignSpec(configs=configs, margin_configs=("counter6",))


def _work_counters() -> dict[str, float]:
    """The nonzero ``equiv.*``/``sim.*`` counters: work done by cells."""
    return {name: entry["value"]
            for name, entry in METRICS.snapshot().items()
            if entry["type"] == "counter" and entry["value"]
            and name.startswith(("equiv.", "sim."))}


def _phase_row(phase: str, report, wall_s: float) -> list[object]:
    jobs = report.summary["jobs"]
    return [phase, report.summary["cells"], round(wall_s, 3),
            jobs["cache_hits"], jobs["cache_misses"],
            jobs["cache_hit_rate"], jobs["reclaimed"],
            jobs["duplicates"], jobs["dead_letter"],
            jobs["quarantined_entries"]]


@pytest.mark.benchmark(group="jobs")
def test_bench_jobs(benchmark):
    spec = _spec()
    job_dir = tempfile.mkdtemp(prefix="repro-jobs-")
    METRICS.reset()  # the envelope's metrics block is this run's alone

    start = time.perf_counter()
    cold = run_campaign(spec, job_dir=job_dir)
    cold_s = time.perf_counter() - start

    def warm_run():
        return run_campaign(spec, job_dir=job_dir)

    cold_work = _work_counters()
    start = time.perf_counter()
    warm = benchmark.pedantic(warm_run, rounds=1, iterations=1)
    warm_s = time.perf_counter() - start
    warm_work = _work_counters()

    rows = [_phase_row("cold", cold, cold_s),
            _phase_row("warm", warm, warm_s)]

    table = TextTable("BENCH jobs - cold vs warm job-dir campaign", COLUMNS)
    for row in rows:
        table.add_row(*("-" if cell is None else cell for cell in row))
    table.print()
    write_out("BENCH_jobs.txt", table.render())
    write_json(out_path("BENCH_jobs.json"), COLUMNS, rows,
               metrics=METRICS.snapshot())

    # Both phases produced the identical campaign verdicts: the job
    # dir replays results, it never changes them.
    assert cold.columns == warm.columns
    strip = {"wall_ms", "attempts"}
    indexes = [i for i, c in enumerate(cold.columns) if c not in strip]
    for row_a, row_b in zip(cold.rows, warm.rows):
        assert [row_a[i] for i in indexes] == [row_b[i] for i in indexes]

    # Cold phase computed everything; warm phase served >= 90 % of the
    # compute cells from the content-addressed job dir.
    assert cold.summary["jobs"]["cache_hits"] == 0
    hit_rate = warm.summary["jobs"]["cache_hit_rate"]
    assert hit_rate is not None and hit_rate >= 0.9, warm.summary["jobs"]
    assert not warm.quarantined and not cold.quarantined
    # The cold phase's pool workers reported their work; the served
    # warm phase replays none of it.
    assert cold_work, "the cold phase folded in no worker counters"
    assert warm_work == cold_work, {
        name: warm_work.get(name, 0) - cold_work.get(name, 0)
        for name in set(warm_work) | set(cold_work)
        if warm_work.get(name) != cold_work.get(name)}
