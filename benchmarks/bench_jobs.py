"""BENCH jobs — the durable job store and content-addressed cache.

Runs the same fault-injection campaign twice against one result cache
(:mod:`repro.jobs`): a **cold** phase that computes every cell and
populates the cache, then a **warm** phase that must serve (almost) all
of them back from the content-addressed store.  The envelope records,
per phase, the campaign wall time, the cache hit/miss split, and the
durable-substrate counters (reclaimed leases, duplicate results,
dead-lettered cells, quarantined entries) — the numbers the chaos
drills in CI grep for.

The load-bearing assertion: the warm rerun must skip at least 90 % of
the compute cells (the flow is a pure function of the netlist
fingerprint and the options digest, so a correct cache serves every
cell; the 90 % floor leaves room for a deliberately invalidated entry
without masking a broken key derivation).

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
    cache_dir = tempfile.mkdtemp(prefix="repro-jobs-cache-")
    METRICS.reset()  # the envelope's metrics block is this run's alone

    start = time.perf_counter()
    cold = run_campaign(spec, cache_dir=cache_dir)
    cold_s = time.perf_counter() - start

    def warm_run():
        return run_campaign(spec, cache_dir=cache_dir)

    start = time.perf_counter()
    warm = benchmark.pedantic(warm_run, rounds=1, iterations=1)
    warm_s = time.perf_counter() - start

    rows = [_phase_row("cold", cold, cold_s),
            _phase_row("warm", warm, warm_s)]

    table = TextTable("BENCH jobs - cold vs warm-cache campaign", COLUMNS)
    for row in rows:
        table.add_row(*("-" if cell is None else cell for cell in row))
    table.print()
    write_out("BENCH_jobs.txt", table.render())
    write_json(out_path("BENCH_jobs.json"), COLUMNS, rows,
               metrics=METRICS.snapshot())

    # Both phases produced the identical campaign verdicts: the cache
    # replays results, it never changes them.
    assert cold.columns == warm.columns
    strip = {"wall_ms", "attempts"}
    indexes = [i for i, c in enumerate(cold.columns) if c not in strip]
    for row_a, row_b in zip(cold.rows, warm.rows):
        assert [row_a[i] for i in indexes] == [row_b[i] for i in indexes]

    # Cold phase computed everything; warm phase served >= 90 % of the
    # compute cells from the content-addressed cache.
    assert cold.summary["jobs"]["cache_hits"] == 0
    hit_rate = warm.summary["jobs"]["cache_hit_rate"]
    assert hit_rate is not None and hit_rate >= 0.9, warm.summary["jobs"]
    assert not warm.quarantined and not cold.quarantined
