"""The end-to-end de-synchronization flow.

``desynchronize(netlist)`` performs the paper's three steps on a
synchronous flip-flop netlist:

1. conversion into a latch-based circuit (:mod:`repro.desync.latchify`);
2. matched-delay generation from static timing analysis
   (:mod:`repro.timing`);
3. replacement of the clock network by handshake controllers
   (:mod:`repro.desync.network`), at the register-cluster granularity
   that a software-verified flow can guarantee
   (:mod:`repro.desync.clustering`).

The steps are the passes of :mod:`repro.desync.pipeline`:
``desynchronize()`` runs the default ``desync`` pass sequence, and
:func:`repro.desync.pipeline.run_pipeline` runs any registered one
(clustering strategies and partial hybrid sync/async conversion are
:class:`DesyncOptions`; the related-work baselines are their own
sequences).

Every pass sequence fills one :class:`DesyncResult`, which bundles every
intermediate artifact — the latch-based netlist, the timed
marked-graph model of the fabric, the final self-timed netlist — plus
the per-pass provenance and the analyses the evaluation needs: the
synchronous period, the de-synchronized cycle time (maximum cycle ratio
of the model), and area accounting.  The paper's *per-latch* Figure-4
model of the same design is available through
:meth:`DesyncResult.spec_model` for the idealized analysis used in the
figure reproductions.
"""

from __future__ import annotations

import math

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.desync.clustering import CLUSTERING_STRATEGIES, Clustering
from repro.desync.network import DesyncNetwork, HandshakeMode
from repro.netlist.core import Netlist
from repro.petri.analysis import CycleTimeResult, cycle_time
from repro.petri.simulate import simulate
from repro.sim.backends import DEFAULT_BACKEND, make_simulator
from repro.stg.desync_model import (
    LatchBank,
    build_model,
    extract_banks,
    latch_adjacency,
)
from repro.stg.stg import Stg
from repro.timing.delays import DEFAULT_MARGIN
from repro.timing.sta import TimingResult, analyze
from repro.utils.errors import DesyncError, OptionsError
from repro.utils.naming import clock_net_name

if TYPE_CHECKING:
    from repro.desync.pipeline import PassRecord


@dataclass
class DesyncOptions:
    """Tunable parameters of the flow.

    Attributes:
        margin: matched-delay guard band (fraction of the stage delay).
        mode: acknowledge discipline — the paper's concurrent OVERLAP
            protocol (default) or the statically race-free SERIAL one
            (see :class:`repro.desync.network.HandshakeMode`); the
            protocol name string is accepted too.
        strategy: clustering strategy name (an entry of
            :data:`repro.desync.clustering.CLUSTERING_STRATEGIES`).
        cluster_cap: register cap forwarded to size-capped strategies
            (only meaningful for ``greedy-cap``).
        sync_banks: registers or controller domains to *keep
            synchronous* — they are merged into one sync island whose
            locally-generated clock is matched to the synchronous
            period, with handshake bridges at the boundary (partial
            de-synchronization; see
            :class:`repro.desync.pipeline.PartialDesyncPass`).

    Everything else the flow fixes: the synchronous capture margins of
    the reference period are :data:`repro.timing.sta.DEFAULT_SETUP` and
    :data:`~repro.timing.sta.DEFAULT_SKEW`, the overlap-mode pacing
    stretch is :data:`repro.desync.network.DEFAULT_HOLD_SLACK`, and
    every pass that builds a timed model checks it with
    :meth:`repro.stg.stg.Stg.check_model` (exact and polynomial in the
    model size, so no design is too large for it).

    Invalid values raise :class:`repro.utils.errors.OptionsError`
    located at the offending field.
    """

    margin: float = DEFAULT_MARGIN
    mode: HandshakeMode = HandshakeMode.OVERLAP
    strategy: str = "scc"
    cluster_cap: int | None = None
    sync_banks: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if isinstance(self.mode, str):
            try:
                self.mode = HandshakeMode(self.mode)
            except ValueError:
                raise OptionsError(
                    "mode",
                    f"unknown handshake mode {self.mode!r} (have: "
                    f"{', '.join(m.value for m in HandshakeMode)})"
                ) from None
        elif not isinstance(self.mode, HandshakeMode):
            raise OptionsError(
                "mode", f"expected a HandshakeMode, got {self.mode!r}")
        margin = self.margin
        # NaN slips through a bare `margin < 0` (all comparisons are
        # False), so finiteness is checked explicitly.
        if not isinstance(margin, (int, float)) or isinstance(margin, bool) \
                or not math.isfinite(margin) or margin < 0:
            raise OptionsError(
                "margin",
                f"must be a finite non-negative number, got {margin!r}")
        if self.strategy not in CLUSTERING_STRATEGIES:
            raise OptionsError(
                "strategy",
                f"unknown clustering strategy {self.strategy!r} (have: "
                f"{', '.join(sorted(CLUSTERING_STRATEGIES))})")
        if self.cluster_cap is not None:
            if not isinstance(self.cluster_cap, int) or self.cluster_cap < 1:
                raise OptionsError(
                    "cluster_cap",
                    f"must be a positive register count, got "
                    f"{self.cluster_cap!r}")
        if isinstance(self.sync_banks, str) or \
                not all(isinstance(entry, str) for entry in self.sync_banks):
            raise OptionsError(
                "sync_banks",
                f"must be a sequence of register or controller-domain "
                f"names, got {self.sync_banks!r}")
        self.sync_banks = tuple(self.sync_banks)

    def digest(self) -> str:
        """Stable sha256 of this configuration, for result-cache keys.

        Every field participates, serialized as sorted-key canonical
        JSON, so the digest is independent of construction details: the
        declaration order of the dataclass, string-vs-enum ``mode``,
        list-vs-tuple ``sync_banks``, and explicitly passing a default
        value all normalize to the same digest — while any *semantic*
        change to any field changes it.
        """
        import hashlib
        import json
        from dataclasses import fields

        view: dict[str, object] = {}
        for spec in fields(self):
            value = getattr(self, spec.name)
            if isinstance(value, HandshakeMode):
                value = value.value
            elif isinstance(value, tuple):
                value = list(value)
            view[spec.name] = value
        canonical = json.dumps(view, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


@dataclass
class HoldCheck:
    """Hold margin of one cluster edge under the overlap protocol.

    ``margin`` is the worst observed slack (ps) between a consumer's
    capture and the earliest corrupting data wave from this producer;
    negative margins mean the relative-timing assumption is violated and
    the edge needs min-delay padding or a longer overlap-mode pacing
    stretch (:data:`repro.desync.network.DEFAULT_HOLD_SLACK`).
    """

    pred: str
    succ: str
    margin: float

    @property
    def ok(self) -> bool:
        return self.margin >= 0.0


@dataclass
class DesyncResult:
    """Everything one pass sequence produced.

    :func:`repro.desync.pipeline.run_pipeline` creates the result with
    the synchronous netlist and the options, and its passes fill the
    artifact fields in order; a field stays ``None`` when no pass of
    the sequence produces it.  The ``desync`` sequence fills every
    field; the model-only baselines (``doubly_latched``,
    ``nonoverlap``) build no controller ``network``.
    """

    sync_netlist: Netlist
    options: DesyncOptions
    #: Name of the pass sequence that produced this result.
    pipeline: str = "desync"
    latched: Netlist | None = None
    clustering: Clustering | None = None
    timing: TimingResult | None = None
    stage_max: dict[tuple[str, str], float] | None = None
    stage_min: dict[tuple[str, str], float] | None = None
    #: Worst primary-input-to-D delay per input-fed cluster.
    env_stage: dict[str, float] | None = None
    network: DesyncNetwork | None = None
    model: Stg | None = None
    #: Controller domain kept on the synchronous clock by partial
    #: de-synchronization, or None for a full conversion.
    sync_island: str | None = None
    #: One record per executed pass, in order.
    records: list["PassRecord"] = field(default_factory=list)
    _cycle_time: CycleTimeResult | None = field(default=None, repr=False)

    @property
    def desync_netlist(self) -> Netlist:
        return self._fabric().netlist

    def _fabric(self) -> DesyncNetwork:
        if self.network is None:
            raise DesyncError(
                f"pipeline {self.pipeline!r} produced no controller "
                "network (model-level pass sequences have no gate-level "
                "de-synchronized netlist)")
        return self.network

    def sync_period(self) -> float:
        """Clock period of the synchronous reference, ps."""
        return self.timing.sync_period()

    def desync_cycle_time(self) -> CycleTimeResult:
        """Steady-state cycle time of the de-synchronized circuit, ps
        (maximum cycle ratio of the timed model)."""
        if self._cycle_time is None:
            self._cycle_time = cycle_time(self.model)
        return self._cycle_time

    def provenance(self) -> str:
        """Human-readable pass-by-pass account of this run."""
        lines = [f"pipeline {self.pipeline!r} on {self.sync_netlist.name}:"]
        lines.extend(f"  {record.describe()}" for record in self.records)
        return "\n".join(lines)

    def spec_model(self, controller_delay: float = 0.0,
                   timed: bool = True) -> Stg:
        """The paper's per-latch Figure-4 model of this design.

        Built on the latch netlist with one signal per latch bank; with
        ``timed`` the request arcs carry the matched stage delays.  This
        is the idealized model the paper analyzes (per-latch controllers
        under relative-timing assumptions); the constructed fabric is its
        clustered refinement.
        """
        banks, adjacency, latch_timing = latch_analysis(self.latched)

        def delay_fn(pred: str, succ: str) -> float:
            if not timed:
                return 0.0
            return latch_timing.max_delay.get((pred, succ), 0.0)

        return build_model(self.latched, delay_fn=delay_fn,
                           controller_delay=controller_delay,
                           banks=banks, adjacency=adjacency)

    def verify_hold(self, rounds: int = 10,
                    use_model: bool = True) -> list[HoldCheck]:
        """Check the overlap-mode relative-timing (hold) conditions.

        For every inter-cluster edge ``g -> p``, measures the worst
        margin between the consumer's k-th capture (``p+``) and the
        corrupting wave of the producer's same-epoch launch (``g+`` plus
        latch delay plus the *minimum* combinational path).  With
        ``use_model`` the schedule comes from the timed fabric model (a
        fast, conservative screening — the model's eager schedule can
        launch earlier than the gate-level fabric, so negative margins
        here are warnings); otherwise the gate-level fabric itself is
        simulated (:meth:`_free_run`) and the realized local-clock edges
        are compared.  A model with a
        token-free cycle raises :class:`~repro.utils.errors.PetriError`
        rather than passing vacuously.  The paper's flow
        discharges these checks with commercial timing signoff; the
        definitive functional check in this reproduction is
        :func:`repro.equiv.check_flow_equivalence`.

        A model-only result raises :class:`DesyncError`: its model's
        signals are latch banks, not the clusters screened here, so the
        screen would pass vacuously.
        """
        self._fabric()
        latch_delay = self.sync_netlist.library["LATCH_H"].delay
        if use_model:
            trace = simulate(self.model, rounds=rounds)
            rises = {bank: trace.times_of(f"{bank}+")
                     for bank in self.clustering.clusters}
        else:
            banks = list(self.clustering.clusters)
            sim = self._free_run(rounds, record=[clock_net_name(bank)
                                                 for bank in banks])
            rises = {bank: [t for t, v
                            in sim.history.get(clock_net_name(bank), [])
                            if v == 1]
                     for bank in banks}
        checks: list[HoldCheck] = []
        for pred, succ in sorted(self.clustering.edges):
            min_cl = self.stage_min.get((pred, succ), 0.0)
            pred_rises = rises[pred]
            succ_rises = rises[succ]
            worst = float("inf")
            for k in range(1, min(len(pred_rises), len(succ_rises))):
                corruption = pred_rises[k] + latch_delay + min_cl
                capture = succ_rises[k]
                worst = min(worst, corruption - capture)
            checks.append(HoldCheck(pred, succ, worst))
        return checks

    def _free_run(self, rounds: int, record: list[str] | None = None,
                  record_all: bool = False):
        """Free-run the gate-level fabric for about ``rounds`` handshake
        rounds (``rounds + 4`` model cycle times) on the default event
        engine, recording ``record`` (every net with ``record_all``);
        returns the engine."""
        sim = make_simulator(self.desync_netlist, DEFAULT_BACKEND,
                             record=record, record_all=record_all)
        sim.run((rounds + 4) * max(1.0, self.desync_cycle_time().cycle_time))
        return sim

    def dump_vcd(self, path: str, rounds: int = 10,
                 nets: list[str] | None = None) -> str:
        """Simulate the de-synchronized fabric and write a VCD file.

        Free-runs the fabric for about ``rounds`` handshake rounds
        (:meth:`_free_run`) and writes the recorded waveforms as
        standard VCD (GTKWave-openable) to ``path``.
        ``nets`` restricts the dump; by default every net is recorded —
        handshake signals (``lt:*``, ``req:*``, ``ack:*``, ``tok:*``)
        and data alike.  Returns ``path``.
        """
        from repro.obs.vcd import write_vcd

        sim = self._free_run(rounds, record=nets, record_all=nets is None)
        return write_vcd(path, sim.history,
                         module=self.desync_netlist.name,
                         comment=f"desync fabric of "
                                 f"{self.sync_netlist.name}, "
                                 f"{DEFAULT_BACKEND} engine, "
                                 f"t<={sim.now:.0f}ps")

    def overhead_summary(self) -> dict[str, float]:
        """Area accounting of what de-synchronization added/removed."""
        return {
            "sync_area": self.sync_netlist.total_area(),
            "latched_area": self.latched.total_area(),
            "desync_area": self.desync_netlist.total_area(),
            "controller_area": self.network.controller_area,
            "delay_line_area": self.network.delay_line_area,
        }

    def describe(self) -> str:
        network = self._fabric()
        cycle = self.desync_cycle_time()
        lines = [
            f"de-synchronization of {self.sync_netlist.name}:",
            f"  registers          {len(self.clustering.cluster_of)}",
            f"  controller domains {len(self.clustering.clusters)}",
            f"  domain adjacencies {len(self.clustering.edges)}",
            f"  sync period        {self.sync_period():,.0f} ps",
            f"  desync cycle time  {cycle.cycle_time:,.0f} ps",
            f"  controller area    {network.controller_area:,.0f} um^2",
            f"  delay-line area    {network.delay_line_area:,.0f} um^2",
        ]
        if self.sync_island is not None:
            island = self.clustering.clusters[self.sync_island]
            lines.insert(4, f"  sync island        {self.sync_island} "
                            f"({len(island.registers)} registers kept "
                            "synchronous)")
        return "\n".join(lines)


def latch_analysis(latched: Netlist,
                   ) -> tuple[dict[str, LatchBank],
                              frozenset[tuple[str, str]], TimingResult]:
    """Controller banks, bank adjacency and bank-to-bank STA of a latch
    netlist: the inputs of every per-latch model (the paper's Figure-4
    model in :meth:`DesyncResult.spec_model` and the baselines of
    :class:`repro.desync.pipeline.BaselineModelPass`).

    All three are memoized on ``latched``, so the models built on one
    latch netlist share them; callers must only read them.
    """
    def structure():
        banks = extract_banks(latched)
        return banks, latch_adjacency(latched, banks)

    banks, adjacency = latched.memo("latch_banks", structure)
    return banks, adjacency, analyze(latched)


def desynchronize(netlist: Netlist,
                  options: DesyncOptions | None = None) -> DesyncResult:
    """Run the complete de-synchronization flow on ``netlist``.

    ``netlist`` must be a validated synchronous flip-flop design with a
    declared clock port.  Returns a :class:`DesyncResult`; raises
    :class:`DesyncError` on structural problems (no flip-flops, clock
    used as data...).

    This is the default pass sequence of :mod:`repro.desync.pipeline`
    — ``options`` selects every variation (clustering strategy,
    handshake mode, partial conversion); use
    :func:`repro.desync.pipeline.run_pipeline` directly for the baseline
    pass sequences.
    """
    from repro.desync.pipeline import run_pipeline
    return run_pipeline(netlist, options)
