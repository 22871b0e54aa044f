"""Event-simulator throughput — interpreter vs. compiled backend.

Runs every corpus configuration under seeded random per-cycle stimulus
on both event-driven engines and reports events/second plus the
compiled engine's speedup.  The engines must also *agree exactly*
(capture streams, toggle counts, event counts) on every run — this
bench doubles as a differential check at realistic workload sizes.

The speedup floor asserted here (>= 3x on the two largest
configurations) is what makes corpus-wide randomized verification
affordable in CI: the differential harness and the flow-equivalence
sweeps inherit it through the ``backend="compiled"`` selection.

Artifacts: ``benchmarks/out/BENCH_sim.txt`` (table) and
``benchmarks/out/BENCH_sim.json`` (machine-readable series for the
perf trajectory, uploaded per CI run).

Run:  PYTHONPATH=src python -m pytest benchmarks/bench_sim_throughput.py -q
"""

from __future__ import annotations

import statistics
import time

import pytest

from benchmarks.conftest import out_path, write_out
from repro.corpus import generate, iter_corpus
from repro.obs import METRICS, TRACER
from repro.report import TextTable, write_json
from repro.testing import DEFAULT_SEED, drive_clocked, random_stimulus

CYCLES = 256
REPEATS = 3
#: The two largest configurations carry the acceptance floor.
SPEEDUP_FLOOR = {"mult4": 3.0, "pipe8x2": 3.0}

#: Ceiling on enabled-tracing slowdown of the event engine.  The
#: instrumentation is span-per-run plus one counter flush, so the true
#: ratio is ~1.0; the generous bound only exists to catch someone
#: accidentally putting a span in the event loop.
TRACE_OVERHEAD_CEILING = 1.5

#: Tracer-off/tracer-on run pairs behind the overhead ratio.
OVERHEAD_PAIRS = 11

COLUMNS = ["name", "generator", "instances", "nets", "cycles", "events",
           "event_ms", "compiled_ms", "event_eps", "compiled_eps",
           "speedup"]


def _sweep() -> list[list[object]]:
    rows: list[list[object]] = []
    for spec, netlist in iter_corpus():
        stimulus = random_stimulus(netlist, CYCLES, seed=DEFAULT_SEED)
        best: dict[str, float] = {}
        sims: dict[str, object] = {}
        for backend in ("event", "compiled"):
            for _ in range(REPEATS):
                start = time.perf_counter()
                sim = drive_clocked(netlist, backend, stimulus)
                seconds = time.perf_counter() - start
                if backend not in best or seconds < best[backend]:
                    best[backend] = seconds
                sims[backend] = sim
        event_sim, compiled_sim = sims["event"], sims["compiled"]
        # The bench is only meaningful if the engines agree exactly.
        assert event_sim.n_events == compiled_sim.n_events
        assert dict(event_sim.captures) == dict(compiled_sim.captures)
        assert dict(event_sim.toggle_counts) == \
            dict(compiled_sim.toggle_counts)
        events = event_sim.n_events
        rows.append([
            spec.name, spec.generator, len(netlist), len(netlist.nets),
            CYCLES, events,
            best["event"] * 1e3, best["compiled"] * 1e3,
            events / best["event"], events / best["compiled"],
            best["event"] / best["compiled"],
        ])
    return rows


def _traced_overhead() -> tuple[float, float, float]:
    """Event-engine wall time (ms) on ``pipe8x2`` with the tracer
    disabled and enabled: ``(disabled_ms, enabled_ms, ratio)``.

    The runs come in :data:`OVERHEAD_PAIRS` adjacent off/on pairs, in
    alternating order, so a drift in host speed lands on both sides of
    a pair rather than on one side of the comparison.  The times are
    medians over the pairs and ``ratio`` is the median of the paired
    enabled/disabled ratios.

    If the tracer is already armed (``REPRO_TRACE`` covers the whole
    process) both runs of a pair are enabled rather than disarming an
    externally owned trace — the ratio then trivially holds, which is
    correct: there is no disabled baseline to regress against.
    """
    netlist = generate("pipe8x2")
    stimulus = random_stimulus(netlist, CYCLES, seed=DEFAULT_SEED)
    externally_armed = TRACER.enabled

    def run_ms(traced: bool) -> float:
        if traced and not externally_armed:
            TRACER.start()
        try:
            start = time.perf_counter()
            drive_clocked(netlist, "event", stimulus)
            return (time.perf_counter() - start) * 1e3
        finally:
            if traced and not externally_armed:
                TRACER.stop()

    disabled, enabled = [], []
    for pair in range(OVERHEAD_PAIRS):
        if pair % 2:
            enabled.append(run_ms(True))
            disabled.append(run_ms(False))
        else:
            disabled.append(run_ms(False))
            enabled.append(run_ms(True))
    ratio = statistics.median(on / off for off, on in zip(disabled, enabled))
    return statistics.median(disabled), statistics.median(enabled), ratio


@pytest.mark.benchmark(group="sim-throughput")
def test_bench_sim_throughput(benchmark):
    METRICS.reset()  # the envelope's metrics block is this run's alone
    rows = benchmark.pedantic(_sweep, rounds=1, iterations=1)

    table = TextTable("BENCH sim - event-driven throughput, "
                      "interpreter vs compiled", COLUMNS)
    for row in rows:
        head, values = row[:6], row[6:]
        table.add_row(*head, *(f"{value:,.0f}" if value >= 100 else
                               f"{value:.2f}" for value in values))
    table.print()

    # Enabled-vs-disabled tracing overhead on the largest pipeline —
    # the measured guarantee behind "tracing off costs nothing".
    disabled_ms, enabled_ms, ratio = _traced_overhead()
    METRICS.gauge("sim.trace_overhead.disabled_ms").set(disabled_ms)
    METRICS.gauge("sim.trace_overhead.enabled_ms").set(enabled_ms)
    METRICS.gauge("sim.trace_overhead.ratio").set(ratio)
    overhead = TextTable("BENCH sim - tracing overhead (pipe8x2, event)",
                         ["tracer", "median_ms"])
    overhead.add_row("disabled", f"{disabled_ms:.2f}")
    overhead.add_row("enabled", f"{enabled_ms:.2f}")
    overhead.add_row("ratio", f"{ratio:.3f}")
    overhead.print()
    write_out("BENCH_sim.txt",
              table.render() + "\n\n" + overhead.render())
    write_json(out_path("BENCH_sim.json"), COLUMNS, rows,
               metrics=METRICS.snapshot(prefix="sim"))
    assert ratio < TRACE_OVERHEAD_CEILING, (
        f"enabled tracing slows the event engine {ratio:.2f}x "
        f"(ceiling {TRACE_OVERHEAD_CEILING}x)")

    assert len(rows) >= 10
    by_name = {row[0]: dict(zip(COLUMNS, row)) for row in rows}
    for name, floor in SPEEDUP_FLOOR.items():
        assert by_name[name]["speedup"] >= floor, (
            f"{name}: compiled speedup {by_name[name]['speedup']:.2f}x "
            f"under the {floor}x floor")
    # The compiled engine must never come close to a regression anywhere.
    # 1.5x leaves headroom for wall-clock noise on small configs (the
    # ratio itself is fairly noise-robust: both engines are best-of-3 on
    # the same machine) while still catching any real slowdown — every
    # config measures 3x+ on an idle machine.
    for name, data in by_name.items():
        assert data["speedup"] > 1.5, f"{name}: {data['speedup']:.2f}x"
