"""Build the global de-synchronization model of a latch-based netlist.

This is the generalization step of the paper (Figure 2): identify the
pairwise interactions between adjacent latch banks and compose the
Figure-4 patterns into one marked graph whose transitions ``x+`` / ``x-``
are the local latch-control events.  The composed model drives:

* correctness checking (liveness, safety, consistency — the properties
  ref [1] proves);
* cycle-time analysis of the de-synchronized circuit
  (:func:`repro.petri.analysis.cycle_time`);
* the controller-activity counts used by the power model.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field

from repro.netlist.cells import CellKind
from repro.netlist.core import (
    Instance,
    Netlist,
    iter_register_banks,
    register_fanin,
)
from repro.stg.patterns import Parity, add_latch_cycle, add_pair_arcs
from repro.stg.stg import Stg
from repro.utils.errors import DesyncError


@dataclass
class LatchBank:
    """A group of latches sharing one local-clock controller."""

    name: str
    parity: Parity
    instances: list[Instance] = field(default_factory=list)

    @property
    def width(self) -> int:
        return len(self.instances)


_PARITY_OF_KIND = {
    CellKind.LATCH_LOW: Parity.EVEN,   # transparent when the clock is low
    CellKind.LATCH_HIGH: Parity.ODD,   # transparent when the clock is high
}


def extract_banks(netlist: Netlist) -> dict[str, LatchBank]:
    """Group the latches of a latch-based netlist into controller banks.

    Banks follow the naming convention of :func:`iter_register_banks`
    (hierarchical prefix).  All latches in a bank must share the same
    parity; flip-flops are rejected — run
    :func:`repro.desync.latchify.latchify` first.
    """
    if netlist.dff_instances():
        raise DesyncError(
            f"{netlist.name} still contains flip-flops; latchify it before "
            "building the de-synchronization model")
    banks: dict[str, LatchBank] = {}
    for bank_name, instances in iter_register_banks(netlist):
        parities = {_PARITY_OF_KIND[inst.cell.kind] for inst in instances}
        if len(parities) != 1:
            raise DesyncError(
                f"latch bank {bank_name} mixes even and odd latches; banks "
                "must be phase-homogeneous to share a controller")
        banks[bank_name] = LatchBank(bank_name, parities.pop(),
                                     list(instances))
    if not banks:
        raise DesyncError(f"{netlist.name} contains no latches")
    return banks


def latch_adjacency(netlist: Netlist,
                    banks: dict[str, LatchBank],
                    ) -> frozenset[tuple[str, str]]:
    """Bank-level data adjacency: ``(pred, succ)`` pairs such that some
    latch output in ``pred`` reaches a latch D input in ``succ`` through
    combinational logic (or directly)."""
    sources = register_fanin(netlist).bank_sources(
        {bank.name: bank.instances for bank in banks.values()})
    pairs: set[tuple[str, str]] = set()
    for bank, preds in sources.items():
        if bank in preds:
            raise DesyncError(
                f"latch bank {bank} feeds itself combinationally "
                "(a latch must not drive its own D input without "
                "passing through the opposite phase)")
        pairs.update((pred, bank) for pred in preds)
    return frozenset(pairs)


def build_model(netlist: Netlist,
                delay_fn: Callable[[str, str], float] | None = None,
                controller_delay: float | Callable[[str], float] = 0.0,
                banks: dict[str, LatchBank] | None = None,
                adjacency: frozenset[tuple[str, str]] | None = None,
                pair_arcs: Callable[[Stg, str, str, Parity, float], None]
                = add_pair_arcs) -> Stg:
    """Compose the de-synchronization marked graph for ``netlist``.

    Args:
        netlist: a latch-based netlist (after latchify).
        delay_fn: maps ``(pred_bank, succ_bank)`` to the matched
            combinational delay between the banks in ps (default 0, the
            untimed model).
        controller_delay: firing delay of the latch-control transitions
            (the handshake controller latency) — a constant, or a
            callable from bank name to per-controller latency.
        banks / adjacency: precomputed structures, to avoid recomputation
            inside larger flows.
        pair_arcs: adds the handshake arcs of one adjacency
            ``(stg, pred, succ, pred_parity, data_delay)`` — the paper's
            Figure-4 overlap pattern by default; the non-overlapping
            baseline passes its strict-alternation arcs.

    Returns:
        A live, consistent :class:`~repro.stg.stg.Stg` whose signals
        are the latch-bank names.
    """
    if banks is None:
        banks = extract_banks(netlist)
    if adjacency is None:
        adjacency = latch_adjacency(netlist, banks)
    model = Stg(f"desync:{netlist.name}")
    for bank in sorted(banks.values(), key=lambda b: b.name):
        delay = (controller_delay(bank.name) if callable(controller_delay)
                 else controller_delay)
        model.add_signal(bank.name, bank.parity.initial_control,
                         delay=delay)
        add_latch_cycle(model, bank.name, bank.parity)
    for pred, succ in sorted(adjacency):
        pred_parity = banks[pred].parity
        if banks[succ].parity is not pred_parity.opposite:
            raise DesyncError(
                f"adjacent banks {pred} -> {succ} share parity "
                f"{pred_parity.value}; latchify must alternate phases along "
                "every path")
        delay = delay_fn(pred, succ) if delay_fn else 0.0
        pair_arcs(model, pred, succ, pred_parity, delay)
    return model
