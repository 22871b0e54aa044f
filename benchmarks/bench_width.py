"""Lane-width sweep — seeds/sec versus word width.

Sweeps the lane-parallel ``vector`` cycle engine over W in ``WIDTHS``
lanes per word on representative core- and scale-tier corpus
configurations.  Each cell reports per-stimulus cost and seeds/sec at
full occupancy, normalized against the same config's W=64 row — the
pre-tuning default — so the table reads directly as "what does
widening the word buy".  Lane 0 of every run must demux to the scalar
:class:`~repro.sim.sync.CycleSimulator` capture streams, so every
width cell is also a correctness check at workload size.

This bench is the measurement behind
:data:`repro.sim.lanes.TUNING_TABLE`: the txt artifact ends with the
per-config full-occupancy optimum and the shipped table's knee-point
rationale (resolved width is paid by every batch, full or not — see
``src/repro/sim/lanes.py``).

Set ``REPRO_GRID=smoke`` for the reduced CI grid (two configs,
two widths).  Artifacts: ``benchmarks/out/BENCH_width.{txt,json}``.

Run:  PYTHONPATH=src python -m pytest benchmarks/bench_width.py -q
"""

from __future__ import annotations

import json
import time

import pytest

from benchmarks.conftest import out_path, smoke_grid, write_out
from repro.corpus import generate, get
from repro.report import JSON_SCHEMA, TextTable, write_json
from repro.sim import VectorCycleSimulator
from repro.sim.sync import CycleSimulator
from repro.sim.vector import pack_stimuli
from repro.testing import DEFAULT_SEED, random_stimulus

CYCLES = 192
REPEATS = 2

#: (config, tier) cells of the sweep; tiers per ``repro.corpus.names``.
FULL_CONFIGS = [("lfsr8", "core"), ("mult4", "core"), ("pipe8x2", "core"),
                ("crc32", "scale"), ("mult8", "scale"), ("dlx", "scale")]
FULL_WIDTHS = (64, 128, 256, 512, 1024)
SMOKE_CONFIGS = [("lfsr8", "core"), ("crc32", "scale")]
SMOKE_WIDTHS = (64, 256)

#: Acceptance floor: widening to 256 lanes must buy at least 1.5x
#: seeds/sec over W=64 on the scale tier (measured: >= 3.4x on every
#: config, core and scale alike).
SPEEDUP_FLOOR = 1.5

COLUMNS = ["name", "tier", "instances", "backend", "cycles", "lanes",
           "wall_ms", "per_stim_us", "seeds_per_s", "speedup_vs_64"]


def _grid() -> tuple[list[tuple[str, str]], tuple[int, ...]]:
    if smoke_grid():
        return SMOKE_CONFIGS, SMOKE_WIDTHS
    return FULL_CONFIGS, FULL_WIDTHS


def _best_of(repeats: int, build_and_run) -> tuple[float, object]:
    best = float("inf")
    sim = None
    for _ in range(repeats):
        start = time.perf_counter()
        sim = build_and_run()
        best = min(best, time.perf_counter() - start)
    return best, sim


def _sweep() -> list[list[object]]:
    configs, widths = _grid()
    rows: list[list[object]] = []
    for name, tier in configs:
        netlist = generate(name)
        assert get(name).tier == tier, name
        stimuli = [random_stimulus(netlist, CYCLES, DEFAULT_SEED + i % 64)
                   for i in range(max(widths))]
        scalar = CycleSimulator(netlist)
        scalar.run(CYCLES, stimuli[0])
        scalar_streams = {port: list(stream)
                          for port, stream in scalar.captures.items()}

        base_per_stim: float | None = None  # W=64 (or widths[0])
        for width in widths:
            packed = pack_stimuli(stimuli[:width])

            def run():
                sim = VectorCycleSimulator(netlist, lanes=width)
                sim.run(CYCLES, packed)
                return sim

            wall_s, sim = _best_of(REPEATS, run)
            # Every width cell must agree with the scalar engine on
            # lane 0 — the bench doubles as the at-width correctness
            # check.
            assert sim.lane_captures(0) == scalar_streams, (
                f"{name}/W={width}")
            per_stim_s = wall_s / width
            if base_per_stim is None:
                base_per_stim = per_stim_s
            rows.append([
                name, tier, len(netlist), "vector", CYCLES, width,
                wall_s * 1e3, per_stim_s * 1e6, 1.0 / per_stim_s,
                base_per_stim / per_stim_s,
            ])
    return rows


def _suggested_table(rows: list[list[object]]) -> str:
    """The per-config full-occupancy optimum."""
    by_name: dict[str, dict] = {}
    for row in rows:
        data = dict(zip(COLUMNS, row))
        best = by_name.get(data["name"])
        if best is None or data["seeds_per_s"] > best["seeds_per_s"]:
            by_name[data["name"]] = data
    lines = ["suggested TUNING_TABLE (full-occupancy optimum per config;",
             "the shipped table sits at the knee instead — see",
             "src/repro/sim/lanes.py for why partial batches cap it):"]
    for data in sorted(by_name.values(), key=lambda d: d["instances"]):
        lines.append(
            f"  {data['name']:10s} ({data['instances']:5d} inst, "
            f"{data['tier']}): W={data['lanes']} "
            f"-> {data['speedup_vs_64']:.1f}x vs W=64")
    return "\n".join(lines)


@pytest.mark.benchmark(group="width-sweep")
def test_bench_width(benchmark):
    rows = benchmark.pedantic(_sweep, rounds=1, iterations=1)

    table = TextTable("BENCH width - lane-width sweep", COLUMNS)
    for row in rows:
        head, values = row[:6], row[6:]
        table.add_row(*head, *(f"{value:,.0f}" if value >= 100 else
                               f"{value:.3f}" for value in values))
    table.print()
    suggested = _suggested_table(rows)
    print(suggested)
    write_out("BENCH_width.txt", table.render() + "\n\n" + suggested)
    write_json(out_path("BENCH_width.json"), COLUMNS, rows)

    with open(out_path("BENCH_width.json")) as handle:
        payload = json.load(handle)
    assert payload["schema"] == JSON_SCHEMA
    assert set(payload) == {"schema", "git_sha", "columns", "rows",
                            "metrics"}
    assert payload["columns"] == COLUMNS
    assert len(payload["rows"]) == len(rows)

    by_cell = {(r[0], r[5]): dict(zip(COLUMNS, r)) for r in rows}
    assert len(by_cell) == len(rows)
    # Acceptance: on the scale tier, W=256 words must buy at least
    # SPEEDUP_FLOOR seeds/sec over the W=64 default.
    scale_gains = [data["speedup_vs_64"]
                   for (name, lanes), data in by_cell.items()
                   if data["tier"] == "scale" and lanes == 256]
    assert scale_gains, "no scale-tier W=256 cell in the grid"
    assert max(scale_gains) >= SPEEDUP_FLOOR, (
        f"best scale-tier W=256 speedup {max(scale_gains):.2f}x under "
        f"the {SPEEDUP_FLOOR}x floor")
    # Widening must never make the engine slower than its own W=64
    # baseline on any config.
    for (name, lanes), data in by_cell.items():
        assert data["speedup_vs_64"] >= 0.95, (
            f"{name} W={lanes}: {data['speedup_vs_64']:.2f}x")
