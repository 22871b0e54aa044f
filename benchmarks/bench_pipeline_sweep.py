"""BENCH pipeline — the (corpus config x pipeline variant) sweep.

Drives :func:`repro.desync.pipeline.sweep_pipelines` over the corpus
registry and the stock variant grid (clustering-strategy spectrum,
partial sync-island conversion, related-work baseline pass sequences).
Full-flow variants are verified by the batched flow-equivalence checker
— synchronous reference streams lane-parallel on the vector backend,
the self-timed side lane-parallel on the schedule-replay engine (one
recorded event simulation plus one bitwise replay per cell, falling
back to per-seed event simulation with the reason in the
``desync_engine`` column) — and hold-checked on the local-clock edges
that the recording captured; model-only baselines report cycle-time
metrics.  Since the batched
desync side made per-seed cost marginal, every verified cell runs the
default eight-seed grid (``repro.desync.pipeline.SWEEP_SEEDS``), and
each row carries its build-vs-verify wall-time split.

Artifacts: ``benchmarks/out/BENCH_pipeline.txt`` (paper-style table)
and ``benchmarks/out/BENCH_pipeline.json`` (versioned series for the
perf trajectory, alongside BENCH_corpus / BENCH_sim / BENCH_vector).

Grid size: set ``REPRO_GRID=smoke`` for the CI smoke subset
(small configs only); the default sweeps the whole registry — core plus
the 10x scale tier (fir16/fir32, mult16, deep/wide pipelines, seeded
random netlists, the DLX datapath via the Verilog frontend).  Set
``REPRO_JOBS=N`` to shard configs across a process pool; the merged
rows and summary equal the single-process run's modulo the per-row
wall-time fields.

Run:  PYTHONPATH=src python -m pytest benchmarks/bench_pipeline_sweep.py -q
"""

from __future__ import annotations


import pytest

from benchmarks.conftest import out_path, smoke_grid, write_out
from repro.corpus import generate, names
from repro.desync import desynchronize, sweep_pipelines
from repro.desync.pipeline import SWEEP_SEEDS
from repro.obs import METRICS
from repro.obs.probe import probe_handshakes
from repro.report import TextTable, write_json

#: Small-but-diverse subset for the CI smoke job: a feed-forward
#: pipeline (every strategy applies), a feedback shape (per-register is
#: structurally invalid there — the sweep must report, not fail), and a
#: fork/join.
SMOKE_CONFIGS = ["pipe4x1", "pipe4x4", "counter6", "diamond2x4"]


def _grid() -> list[str] | None:
    if smoke_grid():
        return [name for name in SMOKE_CONFIGS]
    return None  # the whole registry


@pytest.mark.benchmark(group="pipeline")
def test_bench_pipeline_sweep(benchmark):
    configs = _grid()
    METRICS.reset()  # the envelope's metrics block is this run's alone
    columns, rows, summary = benchmark.pedantic(
        sweep_pipelines, kwargs={"configs": configs, "cycles": 10},
        rounds=1, iterations=1)

    table = TextTable("BENCH pipeline - strategy x corpus sweep", columns)
    for row in rows:
        table.add_row(*(("-" if cell is None else
                         f"{cell:.3f}" if isinstance(cell, float) else cell)
                        for cell in row))
    table.print()

    # Aggregated engine/fallback accounting for the whole grid (the
    # per-row desync_engine column, rolled up), appended to the text
    # artifact and asserted below.
    engines = TextTable("BENCH pipeline - engine summary",
                        ["kind", "name", "cells"])
    for status, count in summary["statuses"].items():
        engines.add_row("status", status, count)
    for engine, count in summary["desync_engines"].items():
        engines.add_row("desync_engine", engine, count)
    for reason, count in summary["fallback_reasons"].items():
        engines.add_row("fallback_reason", reason, count)
    engines.print()
    write_out("BENCH_pipeline.txt",
              table.render() + "\n\n" + engines.render())

    # Handshake metrics from a representative fabric ride along in the
    # envelope's metrics block, next to the sweep.* counters the sweep
    # itself recorded.
    probe_config = (configs or SMOKE_CONFIGS)[0]
    probe_handshakes(desynchronize(generate(probe_config)))
    write_json(out_path("BENCH_pipeline.json"), columns, rows,
               metrics=METRICS.snapshot())

    assert summary["cells"] == len(rows)
    assert sum(summary["desync_engines"].values()) >= 1
    assert summary["statuses"].get("ok", 0) >= 1

    by = [dict(zip(columns, row)) for row in rows]
    n_configs = len({cell["config"] for cell in by})
    assert n_configs == len(configs if configs else names("all"))

    # The acceptance floor: at least three clustering strategies and at
    # least one partial-desync configuration verified equivalent (and
    # hold-clean) end to end somewhere in the grid.
    ok = [cell for cell in by if cell["status"] == "ok"]
    ok_strategies = {cell["strategy"] for cell in ok}
    assert len(ok_strategies) >= 3, ok_strategies
    assert any(cell["sync_island"] for cell in ok)
    # No verified variant may fail, anywhere in the grid ("failed" =
    # divergence, "failed: ..." = stall/harness error).  The wide-join
    # serial divergences this floor used to carve out are fixed (the
    # fired-latch retirement and the environment source domain, see
    # repro.desync.network); a new failure is a regression, full stop.
    failed = {(cell["config"], cell["variant"]) for cell in by
              if cell["status"].startswith("failed")}
    assert not failed, failed
    # Every verified row ran the full default seed grid on the batched
    # desync engine; replay fallbacks are visible, never silent.
    verified = [cell for cell in by
                if cell["status"] in ("ok", "failed")]
    assert all(cell["equiv_seeds"] == len(SWEEP_SEEDS) for cell in verified
               if cell["equiv_seeds"]), verified
    assert all(cell["desync_engine"] == "replay" for cell in ok), (
        [c["desync_engine"] for c in ok])
    # The replay engine must never have silently fallen back to scalar
    # event simulation anywhere in the grid: the counter is registered
    # at zero by the sweep, so its absence is also a failure.
    fallbacks = METRICS.snapshot().get("sim.replay.fallbacks")
    assert fallbacks is not None, "sim.replay.fallbacks not registered"
    assert fallbacks["value"] == 0, fallbacks
    # Build-vs-verify split recorded per row.
    assert all(cell["build_ms"] is not None for cell in by)
    assert all(cell["verify_ms"] is not None for cell in verified
               if cell["status"] == "ok")
    # Baseline pass sequences produce model-level rows for every config.
    baselines = [cell for cell in by if cell["status"] == "model-only"]
    assert len(baselines) == 2 * n_configs
    # The shape the baselines exist to show, on real netlists: strict
    # alternation is never faster than the DLAP overlap class.
    for config in {cell["config"] for cell in by}:
        dlap = next(c for c in by if c["config"] == config
                    and c["variant"] == "dlap")
        non = next(c for c in by if c["config"] == config
                   and c["variant"] == "nonoverlap")
        assert non["desync_cycle_ps"] >= dlap["desync_cycle_ps"]
