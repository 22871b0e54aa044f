"""Baseline: non-overlapping (strictly alternating) latch clocking.

The naive way to generate local latch clocks is to forbid adjacent
latches from ever being transparent simultaneously: a successor may only
open after its predecessor closed, and the predecessor may only reopen
after the successor closed.  This is safe without any relative-timing
argument, but each data token must traverse open/close of every latch
*sequentially*, so a pipeline stage costs two full handshakes — the
de-synchronization paper's overlapping patterns (Figure 4) exist exactly
to avoid this penalty.
"""

from __future__ import annotations

from collections.abc import Callable
from typing import TYPE_CHECKING

from repro.stg.patterns import Parity
from repro.stg.stg import Stg, transition_name, RISE, FALL
from repro.utils.errors import StgError

if TYPE_CHECKING:
    from repro.netlist.core import Netlist
    from repro.stg.desync_model import LatchBank


def add_nonoverlap_arcs(stg: Stg, pred: str, succ: str,
                        data_delay: float = 0.0, tag: str = "") -> None:
    """Non-overlapping handshake arcs for ``pred -> succ``.

    ``p- -> s+`` (the successor opens only on frozen data — carries the
    settled combinational delay) and ``s- -> p+`` (the predecessor
    reopens only after the successor closed).
    """
    prefix = tag or f"{pred}>{succ}"
    stg.connect(transition_name(pred, FALL), transition_name(succ, RISE),
                tokens=0, delay=data_delay, place=f"{prefix}:r")
    stg.connect(transition_name(succ, FALL), transition_name(pred, RISE),
                tokens=0, place=f"{prefix}:a")


def nonoverlap_pipeline(names: list[str],
                        first_parity: Parity = Parity.EVEN,
                        stage_delay: float = 0.0,
                        controller_delay: float = 0.0) -> Stg:
    """A linear pipeline under the non-overlapping discipline.

    Markings follow the synchronous reset state: even latches are
    transparent (their closing self-arc is marked), odd latches hold
    data (their opening... is gated by the predecessor's close).  A
    boundary token on the sink's acknowledge arc closes the environment
    loop.
    """
    if len(names) < 2:
        raise StgError("a pipeline needs at least two latches")
    stg = Stg("nonoverlap:" + "-".join(names))
    parity = first_parity
    for name in names:
        stg.add_signal(name, parity.initial_control,
                       delay=controller_delay)
        even = parity is Parity.EVEN
        stg.connect(transition_name(name, RISE),
                    transition_name(name, FALL),
                    tokens=1 if even else 0, place=f"self:{name}:rf")
        stg.connect(transition_name(name, FALL),
                    transition_name(name, RISE),
                    tokens=0 if even else 1, place=f"self:{name}:fr")
        parity = parity.opposite
    for pred, succ in zip(names, names[1:]):
        add_nonoverlap_arcs(stg, pred, succ, data_delay=stage_delay)
    # Environment: the source's reopen and the sink's acknowledgement.
    stg.connect(transition_name(names[-1], FALL),
                transition_name(names[0], RISE),
                tokens=1, place="env:ring")
    return stg


def nonoverlap_model(latched: "Netlist",
                     banks: dict[str, "LatchBank"] | None = None,
                     adjacency: frozenset[tuple[str, str]] | None = None,
                     delay_fn: Callable[[str, str], float] | None = None,
                     controller_delay: float = 0.0) -> Stg:
    """The non-overlapping model of an arbitrary latchified netlist.

    Generalizes :func:`nonoverlap_pipeline` from linear chains to the
    full bank adjacency that :class:`repro.desync.pipeline`'s staged
    artifacts provide: per bank, the parity-marked alternation
    self-loop; per adjacency, the strict alternation arcs of
    :func:`add_nonoverlap_arcs` with the STA-derived stage delay on the
    opening request.  Every pair cycle
    ``p- -> s+ -> s- -> p+ -> p-`` carries exactly one token (the
    predecessor's initial transparency), so each data token traverses
    open/close of every latch sequentially — the serialization penalty
    the paper's overlapping patterns exist to avoid, here measurable on
    real corpus netlists.  The banks and their alternation self-loops
    are :func:`repro.stg.desync_model.build_model`'s; only the pair arcs
    differ.
    """
    from repro.stg.desync_model import build_model

    def pair_arcs(stg: Stg, pred: str, succ: str, pred_parity: Parity,
                  data_delay: float) -> None:
        add_nonoverlap_arcs(stg, pred, succ, data_delay=data_delay)

    model = build_model(latched, delay_fn=delay_fn,
                        controller_delay=controller_delay,
                        banks=banks, adjacency=adjacency,
                        pair_arcs=pair_arcs)
    model.name = f"nonoverlap:{latched.name}"
    return model
