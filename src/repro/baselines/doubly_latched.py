"""Baseline: the doubly-latched asynchronous pipeline (Kol & Ginosar '96).

The DLAP — reference [3] of the paper — gives every pipeline stage a
master *and* a slave latch, each with its own handshake controller, so a
stage can capture a new item while still holding the previous one for
its successor.  In marked-graph terms it is exactly the paper's per-latch
overlapping model applied to a master/slave chain: the intra-stage edge
has (near-)zero combinational delay, the inter-stage edge carries the
stage logic.

The comparison the paper implies: DLAP achieves the same throughput
class as de-synchronization but pays **two controllers and two latch
banks per stage** by construction, whereas de-synchronization inherits
the latch pairs from the existing flip-flops and can cluster
controllers.  The bench quantifies cycle time and controller count.
"""

from __future__ import annotations

from collections.abc import Callable
from typing import TYPE_CHECKING

from repro.stg.patterns import Parity, linear_pipeline
from repro.stg.stg import Stg

if TYPE_CHECKING:
    from repro.netlist.core import Netlist
    from repro.stg.desync_model import LatchBank


def dlap_pipeline(stages: int, stage_delay: float,
                  controller_delay: float = 0.0,
                  internal_delay: float = 0.0) -> Stg:
    """The DLAP model for ``stages`` pipeline stages.

    Each stage is a master latch (even) and a slave latch (odd); the
    master -> slave edge carries ``internal_delay`` (a wire), the
    slave -> next-master edge the real ``stage_delay``.
    """
    names: list[str] = []
    delays: list[float] = []
    for index in range(stages):
        names.extend([f"M{index}", f"S{index}"])
        delays.extend([internal_delay, stage_delay])
    model = linear_pipeline(names, first_parity=Parity.EVEN,
                            stage_delay=stage_delay,
                            controller_delay=controller_delay,
                            stage_delays=delays[:-1])
    model.name = f"dlap:{stages}"
    return model


def dlap_controller_count(stages: int) -> int:
    """Handshake controllers a DLAP needs (two per stage)."""
    return 2 * stages


def dlap_model(latched: "Netlist",
               banks: dict[str, "LatchBank"] | None = None,
               adjacency: frozenset[tuple[str, str]] | None = None,
               delay_fn: Callable[[str, str], float] | None = None,
               controller_delay: float = 0.0) -> Stg:
    """The DLAP model of an arbitrary latchified netlist.

    DLAP gives *every* latch bank its own controller, which on a
    master/slave design is structurally the paper's per-latch
    overlapping model (Figure 4 patterns composed over the bank
    adjacency) — the difference the comparison quantifies is cost, not
    protocol: one controller per latch bank (two per original register)
    versus one per cluster.  Built by the
    :class:`repro.desync.pipeline.BaselineModelPass` over the staged
    artifacts, so the stage delays are the real STA results rather than
    an abstract per-stage constant.
    """
    from repro.stg.desync_model import build_model

    model = build_model(latched, delay_fn=delay_fn,
                        controller_delay=controller_delay,
                        banks=banks, adjacency=adjacency)
    model.name = f"dlap:{latched.name}"
    return model
