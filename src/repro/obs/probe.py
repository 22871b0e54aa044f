"""Handshake probe: fabric telemetry from recorded event simulation.

The de-synchronized fabric's behaviour is temporal — the paper's whole
argument rests on *when* latch enables fire relative to each other and
to the matched-delay requests.  :class:`HandshakeProbe` taps the nets
that carry that behaviour (``lt:<bank>`` local clocks, ``req:p>s``
matched-delay requests, ``tok:p>s`` request tokens) during an
event-driven run and distills them into metrics:

``handshake.latency_ps``
    histogram of request-to-capture latency per adjacency: each rise of
    ``req:p>s`` to the next rise of the consumer's ``lt:s``.
``handshake.enable_overlap_ps``
    histogram of total pairwise latch-enable overlap per adjacency —
    the quantity Figure 3 of the paper visualizes.
``handshake.tokens_in_flight.<bank>``
    histogram, per cluster domain, of how many incoming request tokens
    are high at each of the domain's capture edges.
``handshake.requests`` / ``handshake.captures``
    total request and capture rises observed.

Use :func:`probe_handshakes` for the one-call form: it runs a
:class:`~repro.desync.flow.DesyncResult`'s fabric with only the probe
nets recorded and returns the snapshot.
"""

from __future__ import annotations

from bisect import bisect_right

from repro.obs.metrics import METRICS, MetricsRegistry
from repro.sim.waves import WaveGroup, overlap_intervals
from repro.utils.naming import (
    clock_net_name,
    request_net_name,
    token_net_name,
)


class HandshakeProbe:
    """Tap of one fabric's handshake nets (see the module docstring).

    Construction just computes ``record_nets`` — the nets a simulator
    must record (``make_simulator(..., record=probe.record_nets)``);
    :meth:`collect` then reduces the recorded history into the metrics
    registry and returns the snapshot.
    """

    def __init__(self, clustering, netlist,
                 registry: MetricsRegistry | None = None):
        self.banks = sorted(clustering.clusters)
        self.edges = sorted(clustering.edges)
        self.registry = registry if registry is not None else METRICS
        wanted = [clock_net_name(bank) for bank in self.banks]
        for pred, succ in self.edges:
            wanted.append(request_net_name(pred, succ))
            wanted.append(token_net_name(pred, succ))
        # Partial-desync fabrics omit some of these (the sync island has
        # no matched-delay request); probe whatever is actually there.
        self.record_nets = [name for name in wanted
                            if name in netlist.nets]

    def collect(self, history, until: float) -> dict[str, dict]:
        """Reduce a recorded history into metrics; return the snapshot.

        ``history`` is an ``EventSimulator.history``-shaped dict and
        ``until`` the simulated horizon (``sim.now``) — overlap windows
        and in-flight counts are only meaningful up to it.
        """
        present = [name for name in self.record_nets if name in history]
        group = WaveGroup.from_history(history, names=present)
        latency = self.registry.histogram("handshake.latency_ps")
        overlap = self.registry.histogram("handshake.enable_overlap_ps")
        requests = self.registry.counter("handshake.requests")
        captures = self.registry.counter("handshake.captures")

        rises: dict[str, list[float]] = {}
        for name in present:
            rises[name] = [time for time, value
                           in group.wave(name).changes if value == 1]
        for bank in self.banks:
            captures.inc(len(rises.get(clock_net_name(bank), [])))

        for pred, succ in self.edges:
            req = request_net_name(pred, succ)
            req_rises = rises.get(req, [])
            requests.inc(len(req_rises))
            succ_rises = rises.get(clock_net_name(succ), [])
            for req_time in req_rises:
                index = bisect_right(succ_rises, req_time)
                if index < len(succ_rises):
                    latency.observe(succ_rises[index] - req_time)
            pred_clock = group.waves.get(clock_net_name(pred))
            succ_clock = group.waves.get(clock_net_name(succ))
            if pred_clock is not None and succ_clock is not None \
                    and pred != succ:
                overlap.observe(
                    overlap_intervals(pred_clock, succ_clock, until))

        for bank in self.banks:
            incoming = [token_net_name(pred, succ)
                        for pred, succ in self.edges if succ == bank]
            incoming = [name for name in incoming if name in group.waves]
            if not incoming:
                continue
            in_flight = self.registry.histogram(
                f"handshake.tokens_in_flight.{bank}")
            for capture_time in rises.get(clock_net_name(bank), []):
                in_flight.observe(sum(
                    1 for name in incoming
                    if group.wave(name).at(capture_time) == 1))

        return self.registry.snapshot(prefix="handshake")


def probe_handshakes(result, rounds: int = 8,
                     registry: MetricsRegistry | None = None
                     ) -> dict[str, dict]:
    """Simulate ``result``'s fabric with the probe attached.

    ``result`` is a :class:`~repro.desync.flow.DesyncResult`; its fabric
    runs without stimulus until every master latch has ``rounds``
    captures (:func:`repro.equiv.flow_equivalence.free_run`) with only
    the probe nets recorded, and the collected metrics snapshot is
    returned (also left in ``registry``, the global one by default).
    """
    from repro.equiv.flow_equivalence import free_run

    probe = HandshakeProbe(result.clustering, result.desync_netlist,
                           registry=registry)
    sim = free_run(result, rounds, record=probe.record_nets)
    return probe.collect(sim.history, until=sim.now)
