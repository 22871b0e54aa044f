"""Shared fixtures for the benchmark harness.

Heavy artifacts (the DLX builds and their de-synchronizations) are
session-cached so every bench reuses them.  Results are also written as
text/CSV under ``benchmarks/out/`` for EXPERIMENTS.md.
"""

from __future__ import annotations

import os

import pytest

from repro.desync import DesyncOptions, make_result, run_pipeline
from repro.dlx import DlxConfig, build_dlx

OUT_DIR = os.path.join(os.path.dirname(__file__), "out")


def out_path(name: str) -> str:
    os.makedirs(OUT_DIR, exist_ok=True)
    return os.path.join(OUT_DIR, name)


def write_out(name: str, text: str) -> None:
    with open(out_path(name), "w") as handle:
        handle.write(text + "\n")


def smoke_grid() -> bool:
    """True when ``REPRO_GRID=smoke`` asks every bench for its CI subset."""
    return os.environ.get("REPRO_GRID", "").strip() == "smoke"


@pytest.fixture(scope="session")
def dlx_paper_scale():
    """The paper-scale DLX: 32-bit datapath, 32 registers."""
    return build_dlx(DlxConfig(width=32, n_registers=32, name="dlx32"))


@pytest.fixture(scope="session")
def dlx_sim_scale():
    """The simulation-scale DLX: 16-bit datapath, 8 registers."""
    return build_dlx(DlxConfig(width=16, n_registers=8, name="dlx16"))


@pytest.fixture(scope="session")
def desync_paper_scale(dlx_paper_scale):
    ctx = run_pipeline(dlx_paper_scale.netlist, DesyncOptions())
    write_out("table1_provenance.txt", ctx.provenance())
    return make_result(ctx)


@pytest.fixture(scope="session")
def desync_sim_scale(dlx_sim_scale):
    return make_result(run_pipeline(dlx_sim_scale.netlist, DesyncOptions()))
