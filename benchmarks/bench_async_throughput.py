"""Desync-side throughput — scalar event engine vs. schedule replay.

Runs serial-mode de-synchronizations of corpus configurations through
the paced flow-equivalence protocol two ways: per-stimulus on the
scalar :class:`~repro.sim.compiled.CompiledSimulator` (the engine the
sweeps used before the replay engine existed) and batched on the
lane-parallel :class:`~repro.sim.vector_async.ScheduleReplaySimulator`
(one recorded event simulation plus one bitwise replay for all
``LANES`` stimuli).  Reported is the **per-stimulus** speedup — the
number that sets the cost of wide flow-equivalence sweeps.

Correctness is checked at workload size in the same run:

* every lane of the replay must demux to exactly the per-stimulus
  scalar streams (values, per register, per cycle);
* lane 0 must be **event-for-event identical to** ``EventSimulator`` —
  an event-recorded replay is compared capture-for-capture (times
  included) against its interpreter recording, and the compiled-recorded
  replay must agree with it exactly;
* no configuration may silently fall back to scalar simulation.

The scalar side is timed over ``SCALAR_SAMPLE`` stimuli and scaled (the
full 64 would measure the same loop 8x longer); the replay side is
timed over all ``LANES`` stimuli.

Artifacts: ``benchmarks/out/BENCH_async.txt`` (table) and
``benchmarks/out/BENCH_async.json`` (versioned series for the perf
trajectory, uploaded by the CI ``async`` job).  Set
``REPRO_GRID=smoke`` for the CI subset (the two floor-carrying
configurations).

Run:  PYTHONPATH=src python -m pytest benchmarks/bench_async_throughput.py -q
"""

from __future__ import annotations

import json
import time

import pytest

from benchmarks.conftest import out_path, smoke_grid, write_out
from repro.corpus import generate
from repro.desync import DesyncOptions, desynchronize, master_name
from repro.equiv import desync_streams, replay_simulator
from repro.report import JSON_SCHEMA, TextTable, write_json
from repro.testing import DEFAULT_SEED, random_stimulus

CYCLES = 10
LANES = 64
SCALAR_SAMPLE = 8
#: The two largest configurations carry the acceptance floor.
SPEEDUP_FLOOR = {"mult4": 10.0, "pipe8x2": 10.0}

CONFIGS = ["counter6", "lfsr8", "pipe4x4", "diamond2x4", "mult4", "pipe8x2"]
SMOKE_CONFIGS = ["mult4", "pipe8x2"]

COLUMNS = ["name", "instances", "nets", "registers", "cycles", "lanes",
           "scalar_per_stim_ms", "replay_ms", "replay_per_stim_ms",
           "speedup", "engine"]


def _grid() -> list[str]:
    if smoke_grid():
        return list(SMOKE_CONFIGS)
    return list(CONFIGS)


def _sweep() -> list[list[object]]:
    rows: list[list[object]] = []
    for name in _grid():
        result = desynchronize(generate(name),
                               DesyncOptions(mode="serial"))
        fabric = result.desync_netlist
        stimuli = [random_stimulus(result.sync_netlist, CYCLES,
                                   DEFAULT_SEED + i) for i in range(LANES)]

        scalar_streams = []
        start = time.perf_counter()
        for stimulus in stimuli[:SCALAR_SAMPLE]:
            scalar_streams.append(desync_streams(
                result, CYCLES, inputs_per_cycle=stimulus,
                backend="compiled"))
        scalar_per_stim = (time.perf_counter() - start) / SCALAR_SAMPLE

        start = time.perf_counter()
        sim = replay_simulator(result, stimuli, CYCLES, backend="compiled")
        replay_s = time.perf_counter() - start

        # Every sampled lane must demux to the per-stimulus scalar run.
        masters = {master_name(ff.name): ff.name
                   for ff in result.sync_netlist.dff_instances()}
        for lane, expected in enumerate(scalar_streams):
            values = sim.lane_capture_values(lane)
            actual = {masters[m]: values[m][:CYCLES] for m in masters}
            assert actual == expected, (name, lane)

        # Lane 0 must be event-for-event identical to EventSimulator: an
        # interpreter-recorded replay self-checks against its recording
        # (times included), and the compiled-recorded replay must agree
        # with it capture-for-capture.
        event_sim = replay_simulator(result, stimuli[:1], CYCLES,
                                     backend="event")
        assert sim.capture_times == event_sim.capture_times, name
        assert sim.lane_capture_values(0) == \
            event_sim.lane_capture_values(0), name

        rows.append([
            name, len(fabric), len(fabric.nets),
            len(result.sync_netlist.dff_instances()), CYCLES, LANES,
            scalar_per_stim * 1e3, replay_s * 1e3,
            replay_s / LANES * 1e3,
            scalar_per_stim / (replay_s / LANES),
            "replay",
        ])
    return rows


@pytest.mark.benchmark(group="async-throughput")
def test_bench_async_throughput(benchmark):
    rows = benchmark.pedantic(_sweep, rounds=1, iterations=1)

    table = TextTable("BENCH async - desync-side throughput, "
                      "scalar event vs schedule replay", COLUMNS)
    for row in rows:
        head, values = row[:6], row[6:-1]
        table.add_row(*head, *(f"{value:,.0f}" if value >= 100 else
                               f"{value:.3f}" for value in values),
                      row[-1])
    table.print()
    write_out("BENCH_async.txt", table.render())
    write_json(out_path("BENCH_async.json"), COLUMNS, rows)

    # The artifact must carry the perf-trajectory envelope.
    with open(out_path("BENCH_async.json")) as handle:
        payload = json.load(handle)
    assert payload["schema"] == JSON_SCHEMA
    assert set(payload) == {"schema", "git_sha", "columns", "rows",
                            "metrics"}
    assert payload["columns"] == COLUMNS

    by_name = {row[0]: dict(zip(COLUMNS, row)) for row in rows}
    assert len(by_name) == len(rows)
    # No silent fallback: every benched fabric replayed.
    assert all(data["engine"] == "replay" for data in by_name.values())
    for name, floor in SPEEDUP_FLOOR.items():
        assert by_name[name]["speedup"] >= floor, (
            f"{name}: replay per-stimulus speedup "
            f"{by_name[name]['speedup']:.1f}x under the {floor}x floor")
