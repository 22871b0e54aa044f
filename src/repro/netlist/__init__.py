"""Gate-level netlist representation and the generic cell library."""

from repro.netlist.cells import (
    Cell,
    CellKind,
    Library,
    GENERIC,
    generic_library,
    truth_table,
)
from repro.netlist.core import (
    Instance,
    Net,
    Netlist,
    clone,
    iter_register_banks,
)
from repro.netlist.stats import NetlistStats, collect_stats

__all__ = [
    "Cell",
    "CellKind",
    "Library",
    "GENERIC",
    "generic_library",
    "truth_table",
    "Instance",
    "Net",
    "Netlist",
    "clone",
    "iter_register_banks",
    "NetlistStats",
    "collect_stats",
]
