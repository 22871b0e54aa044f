"""Power, clock-tree, and EMI models."""

from repro.power.activity import (
    ActivityProfile,
    from_cycle_simulation,
)
from repro.power.clock_tree import ClockTreeModel, build_clock_tree
from repro.power.emi import (
    CurrentProfile,
    EmiSpectrum,
    current_profile,
    spectrum,
)
from repro.power.power import (
    PowerReport,
    classify_instance,
    dynamic_power,
    fabric_cycle_energy,
    fabric_power_mw,
    sequential_clock_pin_energy,
)

__all__ = [
    "ActivityProfile",
    "from_cycle_simulation",
    "ClockTreeModel",
    "build_clock_tree",
    "CurrentProfile",
    "EmiSpectrum",
    "current_profile",
    "spectrum",
    "PowerReport",
    "classify_instance",
    "dynamic_power",
    "fabric_cycle_energy",
    "fabric_power_mw",
    "sequential_clock_pin_energy",
]
