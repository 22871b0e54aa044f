"""Ablations A1–A3: the design choices DESIGN.md calls out.

* A1 — acknowledge discipline: the paper's overlapping protocol vs the
  strictly-ordered serial one.  Overlap keeps the period flat as the
  handshake pipeline deepens; serial degrades linearly (the reason the
  paper's protocol exists).
* A2 — matched-delay margin sweep: the de-synchronized cycle time tracks
  the guard band linearly; at zero margin the fabric overhead remains.
* A3 — pipeline depth sweep: sync period is depth-independent; the
  de-synchronized overlap period stays within a constant envelope.
"""

from __future__ import annotations

import pytest

from benchmarks.conftest import write_out
from repro.desync import DesyncOptions, HandshakeMode, run_pipeline
from repro.report import TextTable, write_csv
from tests.circuits import inverter_pipeline, ripple_counter


def _cycle(netlist, mode, margin=0.10):
    # Pipeline API: the ablations only read the timed model's cycle
    # time and the synchronous period off the flow's DesyncResult.
    result = run_pipeline(netlist, DesyncOptions(mode=mode, margin=margin))
    return result.desync_cycle_time().cycle_time, result.sync_period()


@pytest.mark.benchmark(group="ablations")
def test_a1_controller_discipline(benchmark):
    def run():
        rows = []
        for depth in (3, 5, 8):
            overlap, _ = _cycle(inverter_pipeline(depth),
                                HandshakeMode.OVERLAP)
            serial, sync = _cycle(inverter_pipeline(depth),
                                  HandshakeMode.SERIAL)
            rows.append((depth, sync, overlap, serial))
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    table = TextTable("A1 - acknowledge discipline (cycle time, ps)",
                      ["depth", "sync", "overlap", "serial"])
    for depth, sync, overlap, serial in rows:
        table.add_row(depth, f"{sync:.0f}", f"{overlap:.0f}",
                      f"{serial:.0f}")
    table.print()
    write_out("ablation_a1.txt", table.render())

    for _, __, overlap, serial in rows:
        assert overlap < serial
    # Serial grows with depth; overlap stays within a constant envelope.
    assert rows[-1][3] > 1.8 * rows[0][3]
    assert rows[-1][2] < 1.5 * rows[0][2]


@pytest.mark.benchmark(group="ablations")
def test_a2_margin_sweep(benchmark):
    margins = [0.0, 0.1, 0.25, 0.5, 1.0]

    def run():
        # A counter's feedback stage is hundreds of ps, so the guard
        # band moves the matched line by whole buffers.
        return [(m, _cycle(ripple_counter(6), HandshakeMode.OVERLAP,
                           margin=m)[0]) for m in margins]

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    table = TextTable("A2 - matched-delay margin sweep",
                      ["margin", "desync cycle (ps)"])
    for margin, cycle in rows:
        table.add_row(f"{margin:.2f}", f"{cycle:.0f}")
    table.print()
    write_out("ablation_a2.txt", table.render())
    write_csv("benchmarks/out/ablation_a2.csv", ["margin", "cycle_ps"],
              [[m, c] for m, c in rows])

    cycles = [cycle for _, cycle in rows]
    assert cycles == sorted(cycles)  # monotone in the guard band
    assert cycles[-1] > cycles[0]


@pytest.mark.benchmark(group="ablations")
def test_a3_pipeline_depth(benchmark):
    depths = [2, 4, 6, 10]

    def run():
        rows = []
        for depth in depths:
            desync, sync = _cycle(inverter_pipeline(depth),
                                  HandshakeMode.OVERLAP)
            rows.append((depth, sync, desync))
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    table = TextTable("A3 - pipeline depth sweep (cycle time, ps)",
                      ["depth", "sync", "desync", "ratio"])
    for depth, sync, desync in rows:
        table.add_row(depth, f"{sync:.0f}", f"{desync:.0f}",
                      f"{desync / sync:.2f}")
    table.print()
    write_out("ablation_a3.txt", table.render())
    write_csv("benchmarks/out/ablation_a3.csv",
              ["depth", "sync_ps", "desync_ps"],
              [[d, s, a] for d, s, a in rows])

    sync_periods = {round(sync) for _, sync, _ in rows}
    assert len(sync_periods) == 1  # sync period is depth-independent
    desyncs = [desync for _, __, desync in rows]
    assert max(desyncs) < 1.5 * min(desyncs)
