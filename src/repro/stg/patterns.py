"""The paper's Figure-4 pairwise synchronization patterns.

For an adjacent latch pair *p* (predecessor) -> *s* (successor) the
de-synchronization handshake is the four-arc cycle

    p+ -> s+ -> p- -> s- -> p+

(``x+`` = latch x opens, ``x-`` = latch x closes/captures), with roles:

* ``r``  (``p+ -> s+``): *request* — the successor opens only after the
  predecessor has launched new data; this arc carries the **matched
  combinational delay**;
* ``a``  (``s+ -> p-``): *acknowledge* — the predecessor holds its data
  until the successor has opened.  This is the arc that makes the pulses
  **overlap** (both latches transparent simultaneously), the paper's key
  observation: a data item may ripple through several latches whose
  previous values were already captured downstream;
* ``rf`` (``p- -> s-``): the successor captures only after the predecessor
  froze its output;
* ``af`` (``s- -> p+``): *no-overwrite* — the predecessor reopens only
  after the successor captured the previous item.

Every latch additionally carries the self-loop ``x+ -> x- -> x+`` that
enforces rise/fall alternation of its control (for boundary latches these
are the paper's "auxiliary arcs" modelling the abstracted environment; for
interior latches they are the controller's own state).

**Initial marking** (derived from the synchronous reset state — clock low,
even/master latches transparent, odd/slave latches opaque and holding
data — by placing a token on an arc exactly when its producer fired more
recently than its pending consumer in the reference schedule):

* ``r`` holds a token iff the predecessor is even;
* ``rf`` holds a token iff the predecessor is odd;
* ``af`` always holds a token;
* ``a`` never holds a token;
* the self-loop token sits on ``x+ -> x-`` for even latches and on
  ``x- -> x+`` for odd ones.

The composed model is live and consistent, guarantees the paper's
no-overwrite property, and reproduces the overlapping pulse behaviour of
Figure 3.  It is 2-bounded: along the canonical schedule every place holds
at most one token, while boundary latches may transiently run one
handshake ahead under maximally-reordered interleavings (the gate-level
controllers sequence these, as the flow-equivalence tests confirm).  Like
the implemented flow, correctness of ripple-through relies on the matched
delay exceeding the handshake response time (the standard relative-timing
assumption of de-synchronization, analogous to synchronous hold checks).
"""

from __future__ import annotations

import enum

from repro.stg.stg import Stg, transition_name, RISE, FALL
from repro.utils.errors import StgError


class Parity(enum.Enum):
    """Latch phase: EVEN = master (transparent when the reference clock is
    low), ODD = slave (transparent when it is high)."""

    EVEN = "even"
    ODD = "odd"

    @property
    def opposite(self) -> "Parity":
        return Parity.ODD if self is Parity.EVEN else Parity.EVEN

    @property
    def initial_control(self) -> int:
        """Initial latch-control value (1 = transparent) at reset."""
        return 1 if self is Parity.EVEN else 0


def add_pair_arcs(stg: Stg, pred: str, succ: str, pred_parity: Parity,
                  data_delay: float = 0.0, tag: str = "",
                  decoupled: bool = False) -> None:
    """Add the four handshake arcs for the pair ``pred -> succ`` to ``stg``.

    Both transitions of both signals must already exist.  ``data_delay``
    (the matched combinational delay between the banks, in ps) is carried
    by the request arc ``p+ -> s+``: the successor may open only once the
    data wave launched by the predecessor's opening has settled.

    With ``decoupled`` the acknowledge arc ``s+ -> p-`` is replaced by
    ``p+ -> p-`` carrying the request delay: the predecessor holds its
    pulse until its request has *reached* the successor instead of until
    the successor has opened.  This is the semi-decoupled refinement of
    the controller family in the paper's reference [1]; it removes the
    successor's own
    gating from the predecessor's capture path, which both shortens the
    cycle and keeps captures fast (the relative-timing/hold story).
    """
    p_rise, p_fall = transition_name(pred, RISE), transition_name(pred, FALL)
    s_rise, s_fall = transition_name(succ, RISE), transition_name(succ, FALL)
    even_to_odd = pred_parity is Parity.EVEN
    prefix = tag or f"{pred}>{succ}"
    stg.connect(p_rise, s_rise, tokens=1 if even_to_odd else 0,
                delay=data_delay, place=f"{prefix}:r")
    if decoupled:
        stg.connect(p_rise, p_fall, tokens=1 if even_to_odd else 0,
                    delay=data_delay, place=f"{prefix}:a")
    else:
        stg.connect(s_rise, p_fall, tokens=0, place=f"{prefix}:a")
    stg.connect(p_fall, s_fall, tokens=0 if even_to_odd else 1,
                place=f"{prefix}:rf")
    stg.connect(s_fall, p_rise, tokens=1, place=f"{prefix}:af")


def add_latch_cycle(stg: Stg, latch: str, parity: Parity) -> None:
    """Add the alternation self-loop ``x+ -> x- -> x+`` for one latch.

    The single token sits on ``x+ -> x-`` for even latches (transparent at
    reset, so the next event is closing) and on ``x- -> x+`` for odd
    latches (opaque at reset, next event is opening).
    """
    rise = transition_name(latch, RISE)
    fall = transition_name(latch, FALL)
    even = parity is Parity.EVEN
    stg.connect(rise, fall, tokens=1 if even else 0, place=f"self:{latch}:rf")
    stg.connect(fall, rise, tokens=0 if even else 1, place=f"self:{latch}:fr")


# Boundary latches have no real neighbours on one side; their self-loop
# doubles as the paper's auxiliary environment arcs.
add_environment_arcs = add_latch_cycle


def pairwise_pattern(pred: str, succ: str, pred_parity: Parity,
                     data_delay: float = 0.0) -> Stg:
    """Build the standalone Figure-4 pattern for ``pred -> succ``.

    The self-loops of both latches model the abstracted parts of the
    system (those that precede ``pred`` and succeed ``succ``), making the
    pattern a live, consistent STG on its own.
    """
    if pred == succ:
        raise StgError("pairwise pattern requires two distinct latches")
    stg = Stg(f"pattern:{pred}->{succ}:{pred_parity.value}")
    stg.add_signal(pred, pred_parity.initial_control)
    stg.add_signal(succ, pred_parity.opposite.initial_control)
    add_pair_arcs(stg, pred, succ, pred_parity, data_delay)
    add_latch_cycle(stg, pred, pred_parity)
    add_latch_cycle(stg, succ, pred_parity.opposite)
    return stg


def even_to_odd(pred: str = "A", succ: str = "B",
                data_delay: float = 0.0) -> Stg:
    """Figure 4(a): synchronization from an even latch to an odd latch."""
    return pairwise_pattern(pred, succ, Parity.EVEN, data_delay)


def odd_to_even(pred: str = "B", succ: str = "A",
                data_delay: float = 0.0) -> Stg:
    """Figure 4(b): synchronization from an odd latch to an even latch."""
    return pairwise_pattern(pred, succ, Parity.ODD, data_delay)


def linear_pipeline(names: list[str], first_parity: Parity = Parity.EVEN,
                    stage_delay: float = 0.0,
                    controller_delay: float = 0.0,
                    stage_delays: list[float] | None = None) -> Stg:
    """The Figure-3 model: a linear pipeline of alternating latches.

    ``names[0]`` has parity ``first_parity``; adjacent latches alternate.
    ``stage_delays[i]`` overrides the uniform ``stage_delay`` for the
    edge ``names[i] -> names[i+1]`` (e.g. zero for the direct
    master-to-slave wire inside a decomposed flip-flop).
    """
    if len(names) < 2:
        raise StgError("a pipeline needs at least two latches")
    if stage_delays is not None and len(stage_delays) != len(names) - 1:
        raise StgError("stage_delays must have one entry per edge")
    stg = Stg("pipeline:" + "-".join(names))
    parity = first_parity
    for name in names:
        stg.add_signal(name, parity.initial_control, delay=controller_delay)
        add_latch_cycle(stg, name, parity)
        parity = parity.opposite
    parity = first_parity
    for index, (pred, succ) in enumerate(zip(names, names[1:])):
        delay = (stage_delays[index] if stage_delays is not None
                 else stage_delay)
        add_pair_arcs(stg, pred, succ, parity, data_delay=delay)
        parity = parity.opposite
    return stg


def ring(names: list[str], stage_delay: float = 0.0,
         controller_delay: float = 0.0,
         stage_delays: list[float] | None = None) -> Stg:
    """A closed ring of alternating latches (even count required).

    Rings model feedback circuits such as a flip-flop self-loop after
    master/slave decomposition (slave output feeding the master's input
    through combinational logic).  ``stage_delays[i]`` is the matched
    delay of the edge ``names[i] -> names[i+1]`` (wrapping); for a
    decomposed flip-flop the master->slave edge is a direct wire with
    near-zero delay while slave->master carries the real combinational
    delay.  ``stage_delay`` is the uniform fallback.
    """
    if len(names) < 2 or len(names) % 2:
        raise StgError("a latch ring needs an even number of latches")
    if stage_delays is not None and len(stage_delays) != len(names):
        raise StgError("stage_delays must have one entry per ring edge")
    stg = Stg("ring:" + "-".join(names))
    parity = Parity.EVEN
    for name in names:
        stg.add_signal(name, parity.initial_control, delay=controller_delay)
        add_latch_cycle(stg, name, parity)
        parity = parity.opposite
    parity = Parity.EVEN
    for i, pred in enumerate(names):
        succ = names[(i + 1) % len(names)]
        delay = stage_delays[i] if stage_delays is not None else stage_delay
        add_pair_arcs(stg, pred, succ, parity, data_delay=delay)
        parity = parity.opposite
    return stg
