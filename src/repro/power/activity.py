"""Switching-activity profiles extracted from simulation runs."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.netlist.core import Netlist


@dataclass
class ActivityProfile:
    """Per-net toggle counts over a known simulated duration.

    ``duration_ps`` is the wall-clock span of the run; for cycle-accurate
    runs it is ``cycles * period``.
    """

    toggles: dict[str, int] = field(default_factory=dict)
    duration_ps: float = 0.0
    cycles: int = 0

    @property
    def total_toggles(self) -> int:
        return sum(self.toggles.values())

    def rate(self, net: str) -> float:
        """Average toggles per cycle of one net."""
        if not self.cycles:
            return 0.0
        return self.toggles.get(net, 0) / self.cycles


def from_cycle_simulation(netlist: Netlist, toggle_counts: dict[str, int],
                          cycles: int, period_ps: float) -> ActivityProfile:
    """Wrap a :class:`~repro.sim.sync.CycleSimulator` run.

    The cycle simulator does not toggle the clock net itself; the clock
    pin activity is accounted separately by the clock-tree model.
    """
    del netlist
    return ActivityProfile(toggles=dict(toggle_counts),
                           duration_ps=cycles * period_ps, cycles=cycles)
