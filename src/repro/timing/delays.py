"""Matched-delay line planning and synthesis.

Step 2 of the paper's flow: "generation of matched delays for
combinational logic".  A matched delay is a chain of buffer cells placed
on the request wire between two latch controllers; it must exceed the
worst-case launch-to-capture data delay of the stage it protects:

    target = clk_to_q(latch) + worst CL delay * (1 + margin)

The margin plays the role of the process/extraction guard band the paper's
commercial flow applies; the default 10 % is the figure commonly used in
the de-synchronization literature.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from repro.netlist.cells import Library
from repro.netlist.core import Net, Netlist
from repro.utils.errors import TimingError

DEFAULT_MARGIN = 0.10
DELAY_CELL = "BUF"

#: Instance-name prefixes of the handshake fabric's own cells (delay
#: lines, pacing taps, controller gates, token/acknowledge latches).
#: :meth:`DelayModel.adversarial` uses them to attack the matched-delay
#: assumption precisely: shrink the request lines, stretch the data
#: cones, keep the controllers nominal.
CONTROL_PREFIXES = ("ctl:", "tok:", "ack:", "pace:", "pc:")
DELAY_LINE_PREFIX = "dl:"


@dataclass(frozen=True)
class DelayModel:
    """A seeded, deterministic perturbation of per-instance cell delays.

    The simulators resolve every instance's propagation delay once, at
    construction, as ``cell.delay * factor(instance_name)`` (see
    :func:`repro.sim.events.resolve_delays`), so a model is a pure
    description — picklable, order-independent, identical across the
    interpreter and compiled engines.

    ``factor`` composes three ingredients:

    * a global ``scale`` (uniform time dilation — the paper's claim is
      that flow equivalence survives *any* such scaling);
    * ordered ``prefix_scales`` rules ``(prefix, factor)``; the first
      rule whose prefix matches the instance name multiplies in (an
      empty-string prefix is a catch-all);
    * a per-instance gaussian jitter of sigma ``jitter_sigma`` seeded
      by ``(seed, instance name)`` and clamped to ±3 sigma.

    Invalid parameters raise :class:`TimingError` at construction.
    """

    scale: float = 1.0
    jitter_sigma: float = 0.0
    seed: int = 0
    prefix_scales: tuple[tuple[str, float], ...] = ()

    def __post_init__(self) -> None:
        if not math.isfinite(self.scale) or self.scale < 0:
            raise TimingError(
                f"delay model scale must be finite and >= 0, "
                f"got {self.scale!r}")
        if not math.isfinite(self.jitter_sigma) or self.jitter_sigma < 0:
            raise TimingError(
                f"delay model jitter sigma must be finite and >= 0, "
                f"got {self.jitter_sigma!r}")
        for prefix, factor in self.prefix_scales:
            if not isinstance(prefix, str) or not math.isfinite(factor) \
                    or factor < 0:
                raise TimingError(
                    f"delay model prefix rule ({prefix!r}, {factor!r}) "
                    "must pair a string prefix with a finite factor >= 0")

    # -- constructors ---------------------------------------------------
    @classmethod
    def scaled(cls, factor: float) -> "DelayModel":
        """Uniform time dilation: every cell delay times ``factor``."""
        return cls(scale=factor)

    @classmethod
    def jittered(cls, sigma: float, seed: int = 0) -> "DelayModel":
        """Independent per-instance gaussian delay variation."""
        return cls(jitter_sigma=sigma, seed=seed)

    @classmethod
    def adversarial(cls, epsilon: float) -> "DelayModel":
        """Worst-case attack on the matched-delay guard band.

        Every matched request line runs ``1/(1+epsilon)`` fast while
        every data-path cell (latches and combinational cones) runs
        ``1+epsilon`` slow; controller cells stay nominal.  Survives
        while ``(1+epsilon)^2`` stays inside the planning margin — the
        sharpest structured perturbation short of targeted erosion.
        """
        if not math.isfinite(epsilon) or epsilon < 0:
            raise TimingError(
                f"adversarial epsilon must be finite and >= 0, "
                f"got {epsilon!r}")
        rules = ((DELAY_LINE_PREFIX, 1.0 / (1.0 + epsilon)),)
        rules += tuple((prefix, 1.0) for prefix in CONTROL_PREFIXES)
        return cls(prefix_scales=rules + (("", 1.0 + epsilon),))

    @classmethod
    def eroded(cls, pred: str, succ: str, factor: float) -> "DelayModel":
        """Targeted margin erosion: scale one stage's matched delay line.

        Only the buffers of the ``dl:{pred}>{succ}`` chain shrink (or
        stretch); bisecting ``factor`` until flow equivalence breaks
        measures that stage's real failure margin.
        """
        return cls(prefix_scales=(
            (f"{DELAY_LINE_PREFIX}{pred}>{succ}/", factor),))

    # -- queries --------------------------------------------------------
    @property
    def is_identity(self) -> bool:
        return (self.scale == 1.0 and self.jitter_sigma == 0.0
                and not self.prefix_scales)

    def factor(self, name: str) -> float:
        """Delay multiplier for the instance called ``name``."""
        value = self.scale
        for prefix, rule_factor in self.prefix_scales:
            if name.startswith(prefix):
                value *= rule_factor
                break
        if self.jitter_sigma:
            value *= self._jitter(name)
        return value

    def _jitter(self, name: str) -> float:
        sigma = self.jitter_sigma
        drawn = random.Random(f"{self.seed}:{name}").gauss(1.0, sigma)
        return min(max(drawn, 1.0 - 3.0 * sigma), 1.0 + 3.0 * sigma)

    def max_factor(self) -> float:
        """Upper bound of :meth:`factor` over any instance name (the
        pacing layer scales its stall horizon by this)."""
        rules = [f for _, f in self.prefix_scales] or [1.0]
        bound = self.scale * max(rules + [1.0] if not self._has_catch_all()
                                 else rules)
        return bound * (1.0 + 3.0 * self.jitter_sigma)

    def min_factor(self) -> float:
        """Lower bound of :meth:`factor` over any instance name (the
        pacing layer shrinks its polling granularity by this)."""
        rules = [f for _, f in self.prefix_scales] or [1.0]
        bound = self.scale * min(rules + [1.0] if not self._has_catch_all()
                                 else rules)
        return bound * max(0.0, 1.0 - 3.0 * self.jitter_sigma)

    def _has_catch_all(self) -> bool:
        return any(prefix == "" for prefix, _ in self.prefix_scales)


@dataclass(frozen=True)
class DelayPlan:
    """A planned matched-delay line.

    Attributes:
        target: required minimum delay in ps.
        n_cells: number of buffer cells in the chain.
        achieved: actual chain delay in ps (>= target).
        area: added area in um^2.
    """

    target: float
    n_cells: int
    achieved: float
    area: float


def plan_delay_line(target: float, library: Library,
                    cell_name: str = DELAY_CELL,
                    context: str | None = None) -> DelayPlan:
    """Plan a buffer chain whose delay is at least ``target`` ps.

    ``context`` names what the line protects (e.g. ``"stage A->B"``);
    it is woven into any :class:`TimingError` so a failure localizes to
    the stage or bank being planned, not just a number.
    """
    where = f" while planning {context}" if context else ""
    if not math.isfinite(target) or target < 0:
        raise TimingError(f"bad delay target {target}{where}")
    cell = library[cell_name]
    unit = cell.delay
    if unit <= 0:
        raise TimingError(
            f"cell {cell_name} has non-positive delay{where}")
    n_cells = max(0, math.ceil(target / unit))
    return DelayPlan(target=target, n_cells=n_cells,
                     achieved=n_cells * unit, area=n_cells * cell.area)


def matched_delay_target(stage_delay: float, clk_to_q: float,
                         margin: float = DEFAULT_MARGIN,
                         launch_pad: float = 0.0) -> float:
    """Required request delay for a stage.

    Launch overhead (``clk_to_q`` plus any hold-fixing ``launch_pad`` on
    the latch enable) plus the guarded combinational delay.
    """
    if margin < 0:
        raise TimingError(f"negative margin {margin}")
    return launch_pad + clk_to_q + stage_delay * (1.0 + margin)


def insert_delay_line(netlist: Netlist, source: Net, prefix: str,
                      plan: DelayPlan, cell_name: str = DELAY_CELL) -> Net:
    """Instantiate ``plan`` as a buffer chain fed by ``source``.

    Returns the chain's output net (== ``source`` when the plan is empty).
    Instances are named ``<prefix>/d<i>`` so they group visually with
    their controller.
    """
    current = source
    for index in range(plan.n_cells):
        current = netlist.add_gate(cell_name, [current],
                                   name=f"{prefix}/d{index}")
    return current


def chain_toggle_energy(plan: DelayPlan, library: Library,
                        cell_name: str = DELAY_CELL) -> float:
    """Energy in fJ of one full transition propagating down the chain."""
    cell = library[cell_name]
    return plan.n_cells * library.switching_energy(cell, fanout=1)
