"""Import and environment footprint: the de-synchronization flow runs
on the standard library alone, and reads only the documented knobs.

numpy is declared for :mod:`repro.power` (the EMI spectra), and only
that package may load it.  networkx is a test-only oracle
(``tests/oracles.py``): the flow's graph passes are its own.  Each
import check runs in a fresh interpreter so no other test's imports
leak into ``sys.modules``.  Every ``REPRO_*`` name the library spells
out must be a row of the README's environment-knob table, and every
row must still be read.
"""

import ast
import os
import re
import subprocess
import sys

import pytest

REPO = os.path.dirname(os.path.dirname(__file__))
SRC = os.path.join(REPO, "src")

#: An environment knob's name.
KNOB = re.compile(r"REPRO_[A-Z_]+")

#: The modules a flow process imports: the corpus, the pass pipeline
#: and its sweep, equivalence checking and the fault campaign.
FLOW_MODULES = ("repro.corpus", "repro.desync.pipeline", "repro.equiv",
                "repro.faults.campaign")

#: A one-config, one-seed sweep: every flow pass, the model analyses,
#: the hold screen and batched equivalence run on it.
SMOKE_SWEEP = ("from repro.desync.pipeline import sweep_pipelines\n"
               "sweep_pipelines(configs=['pipe4x4'], seeds=(0,), jobs=1)\n")

#: Everything the flow does with a graph, on a feed-forward pipeline, a
#: reconvergent one and a cyclic random netlist: ``desynchronize``,
#: every clustering strategy, and a partial island from a first to a
#: last domain, whose convex closure absorbs every domain between.
GRAPH_PASSES = """
from repro.corpus import generate
from repro.desync import DesyncOptions, cluster_registers, desynchronize
from repro.desync.clustering import CLUSTERING_STRATEGIES
from repro.utils.errors import DesyncError

for config in ("pipe4x4", "diamond2x4", "rnd8s5"):
    netlist = generate(config)
    desynchronize(netlist)
    for strategy in sorted(CLUSTERING_STRATEGIES):
        cap = 2 if strategy == "greedy-cap" else None
        try:
            clustering = cluster_registers(netlist, strategy=strategy, cap=cap)
        except DesyncError as exc:
            assert (config, strategy) == ("rnd8s5", "per-register"), exc
            assert "cyclic controller graph" in str(exc)
            print(config, strategy, "cyclic")
            continue
        print(config, strategy, len(clustering.clusters))
    base = cluster_registers(netlist)
    first = min(d for d in base.clusters if not base.predecessors(d))
    last = max(d for d in base.clusters if not base.successors(d))
    result = desynchronize(netlist, DesyncOptions(sync_banks=(first, last)))
    absorbed = len(base.clusters) - len(result.clustering.clusters) - 1
    print(config, "absorbed", absorbed)
"""


def _run(code: str) -> str:
    env = dict(os.environ, PYTHONPATH=SRC)
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    return out.stdout


def _loaded(modules, then: str = "") -> set[str]:
    """Which of numpy and networkx are in ``sys.modules`` after importing
    ``modules`` and running ``then``."""
    code = "".join(f"import {module}\n" for module in modules) + then
    code += ("import sys\n"
             "print(*(m for m in ('numpy', 'networkx')\n"
             "        if m in sys.modules))\n")
    return set(_run(code).splitlines()[-1].split())


def test_flow_imports_do_not_load_numpy():
    assert "numpy" not in _loaded(FLOW_MODULES)


def test_flow_imports_and_a_sweep_load_neither_numpy_nor_networkx():
    assert _loaded(FLOW_MODULES, then=SMOKE_SWEEP) == set()


def test_power_still_loads_numpy():
    # The positive control: the probe above must be able to see numpy.
    pytest.importorskip("numpy")
    assert _loaded(["repro.power.emi"]) == {"numpy"}


def test_graph_passes_run_with_networkx_blocked():
    # ``None`` in sys.modules makes any ``import networkx`` raise.
    out = _run("import sys\nsys.modules['networkx'] = None\n"
               + GRAPH_PASSES)
    assert "rnd8s5 per-register cyclic" in out
    absorbed = [int(line.split()[-1]) for line in out.splitlines()
                if " absorbed " in line]
    assert len(absorbed) == 3 and min(absorbed) > 0


def _source_knobs() -> set[str]:
    """Every ``REPRO_*`` name in a string literal under ``src/``."""
    knobs: set[str] = set()
    for root, _, files in os.walk(SRC):
        for name in files:
            if not name.endswith(".py"):
                continue
            with open(os.path.join(root, name), encoding="utf-8") as handle:
                tree = ast.parse(handle.read())
            for node in ast.walk(tree):
                if isinstance(node, ast.Constant) \
                        and isinstance(node.value, str):
                    knobs.update(KNOB.findall(node.value))
    return knobs


def _readme_knobs() -> set[str]:
    """The first-column names of the README's environment-knob table."""
    with open(os.path.join(REPO, "README.md"), encoding="utf-8") as handle:
        text = handle.read()
    section = text.split("\n## Environment knobs\n", 1)[1]
    section = section.split("\n## ", 1)[0]
    return set(re.findall(r"^\| `(REPRO_[A-Z_]+)` \|", section, re.M))


def test_every_knob_is_documented():
    knobs = _source_knobs()
    assert "REPRO_TRACE" in knobs  # the scan sees the library's knobs
    assert knobs == _readme_knobs()
