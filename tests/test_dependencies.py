"""Import footprint: the de-synchronization flow runs without numpy.

numpy is declared for :mod:`repro.power` (the EMI spectra), and only
that package may load it.  Each check runs in a fresh interpreter so
no other test's imports leak into ``sys.modules``.
"""

import os
import subprocess
import sys

import pytest

SRC = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")

#: The modules a flow process imports: the corpus, the pass pipeline
#: and its sweep, equivalence checking and the fault campaign.
FLOW_MODULES = ("repro.corpus", "repro.desync.pipeline", "repro.equiv",
                "repro.faults.campaign")


def _loads_numpy(modules) -> bool:
    code = "".join(f"import {module}\n" for module in modules)
    code += "import sys\nprint('numpy' in sys.modules)\n"
    env = dict(os.environ, PYTHONPATH=SRC)
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    return out.stdout.strip() == "True"


def test_flow_imports_do_not_load_numpy():
    assert not _loads_numpy(FLOW_MODULES)


def test_power_still_loads_numpy():
    # The positive control: the probe above must be able to see numpy.
    pytest.importorskip("numpy")
    assert _loads_numpy(["repro.power.emi"])
