"""Handshake fault injection against the de-synchronized fabric.

The flow-equivalence checker is not just a verifier — it is the
campaign's *detector*: an injected controller fault must surface as a
stream divergence (localized to register and cycle by the same
machinery the mutation tests use), a fabric stall, or an X escalation.
A fault that the checker passes silently is a finding: either the fault
is logically masked or the observability of the check has a hole.

Fault sites are the controller-protocol nets — local latch clocks
(``lt:``), requests (``req:``), acknowledges (``ack:``).  Stuck-at
faults attack all three.  Transient glitches attack the
pulse-generating nets (``lt:``, ``req:``) only: the acknowledge loops
are hold-dominant C-elements, so in the statically race-free serial
discipline a single ``ack`` transient is *absorbed by construction* —
a premature acknowledge only shifts timing of data that serial mode has
already committed, a suppressed one is re-asserted by the closed
handshake loop, and an X pulse is swallowed by the hold state.  That
absorption is a robustness property worth its own regression test
(``tests/test_faults.py``), not a detection target.

Transients are genuinely hard to observe on a delay-insensitive fabric
— a pulse that merely shifts a handshake edge is *supposed* to be
absorbed — so :func:`run_detection` first profiles the target net in a
clean run, then schedules adversarial trials against the observed
waveform: X pulses straddling real transitions (the conservative model
of a near-threshold transient), pulse swallows (a short-to-ground
across an entire high phase, which loses the handshake token), and
premature pulses ahead of natural rises (racing data still in flight).
One clean run per fabric records every handshake net, so all glitch
sites of a config are planned from the same profile.

Every simulation here runs on the compiled engine
(:class:`~repro.sim.compiled.CompiledSimulator`), which carries the
interpreter's fault hooks event for event.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.equiv.flow_equivalence import check_flow_equivalence
from repro.sim.backends import DEFAULT_BACKEND, make_simulator
from repro.sim.simulator import INVERT
from repro.utils.errors import (
    FaultCampaignError,
    FlowEquivalenceError,
    SimulationError,
)

#: Supported fault kinds for controller nets.
FAULT_KINDS = ("stuck0", "stuck1", "glitch")

#: Net-name prefixes of the handshake protocol wires.  Note that
#: ``ltn:`` (inverted local clocks) deliberately does **not** match
#: ``lt:`` — prefix matching is exact on the colon.
CONTROL_PREFIXES = ("lt:", "req:", "ack:")

#: Transient-glitch targets: the pulse-generating wires.  ``ack:`` is
#: excluded — see the module docstring.
GLITCH_PREFIXES = ("lt:", "req:")

#: The environment source domain's own local clock (``lt:<env>``) is
#: the input pacer of the test harness, not a fabric node — transients
#: there shift when vectors are fed, which flow equivalence is
#: insensitive to by design.  Its interface wires (``req:<env>>...``,
#: ``ack:<env>>...``) *are* fabric sites and stay targetable.
_ENV_CLOCK_PREFIX = "lt:<env>"

#: Ceiling on adversarial transient trials per glitch site (each trial
#: is one full equivalence check).
MAX_GLITCH_TRIALS = 12


@dataclass(frozen=True)
class FaultSite:
    """One injectable fault: a controller net and a fault kind."""

    net: str
    kind: str

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise FaultCampaignError(
                f"unknown fault kind {self.kind!r} "
                f"(have: {', '.join(FAULT_KINDS)})")

    @property
    def label(self) -> str:
        return f"{self.kind}@{self.net}"


def control_nets(netlist, prefixes: tuple[str, ...] = CONTROL_PREFIXES,
                 ) -> list[str]:
    """Handshake-protocol nets of a de-synchronized netlist, sorted.

    Only the protocol wires proper: helper nets named into a
    controller's namespace (``ack:a>b/set`` — the ACKC's internal
    re-arm pulse, redundant by construction on env edges where the
    latch's R pin is tied high) are latch plumbing, not handshake
    interface, and are excluded from the fault model.
    """
    return sorted(name for name in netlist.nets
                  if _is_protocol_wire(name, prefixes))


def _is_protocol_wire(name: str,
                      prefixes: tuple[str, ...] = CONTROL_PREFIXES) -> bool:
    return name.startswith(prefixes) and "/" not in name


def sample_control_nets(netlist, max_sites: int, seed: int = 0,
                        prefixes: tuple[str, ...] = CONTROL_PREFIXES,
                        ) -> list[str]:
    """A deterministic, seeded sample of ``max_sites`` controller nets.

    Sorted after sampling so the site list — and therefore every
    campaign cell key — is stable across runs and processes.
    """
    nets = control_nets(netlist, prefixes)
    if prefixes == GLITCH_PREFIXES:
        nets = [net for net in nets
                if not net.startswith(_ENV_CLOCK_PREFIX)]
    if not nets:
        raise FaultCampaignError(
            f"{netlist.name}: no controller nets to fault "
            f"(prefixes {', '.join(prefixes)})")
    if max_sites and len(nets) > max_sites:
        nets = sorted(random.Random(seed).sample(nets, max_sites))
    return nets


def _gate_delay(netlist) -> float:
    return max(cell.delay for cell in netlist.library.cells.values())


def _clean_run(result, nets: list[str], cycles: int,
               ) -> tuple[dict[str, list[tuple[float, float | None]]],
                          float]:
    """Histories of ``nets`` in one unperturbed run, and the deadline."""
    period = result.desync_cycle_time().cycle_time
    sim = make_simulator(result.desync_netlist, DEFAULT_BACKEND, record=nets)
    sim.run(cycles * period + period)
    complete = [bank[cycles - 1].time for bank in sim.captures.values()
                if len(bank) >= cycles]
    deadline = min(complete) if complete else cycles * period
    return sim.history, deadline


def profile_net(result, net: str, cycles: int,
                ) -> tuple[list[tuple[float, float | None]], float]:
    """Clean-run waveform of ``net`` and the detection deadline.

    Runs the unperturbed fabric long enough for every capture bank to
    record ``cycles`` values and returns ``(transitions, deadline)``:
    the net's ``(time, value)`` history and the earliest time the
    compared capture streams are complete — an injection after the
    deadline cannot influence the checked prefix.

    The clean run does not depend on the net, so one run per fabric and
    ``cycles`` records every handshake net (:func:`control_nets`) and is
    memoized on the de-synchronized netlist; recording is passive, so
    each history equals that of a run recording the net alone.  Any
    other net gets a run of its own.
    """
    netlist = result.desync_netlist
    if _is_protocol_wire(net):
        histories, deadline = netlist.memo(
            ("fault-profile", cycles),
            lambda: _clean_run(result, control_nets(netlist), cycles))
    else:
        histories, deadline = _clean_run(result, [net], cycles)
    return list(histories.get(net, ())), deadline


def glitch_trials(history, deadline: float, gate: float,
                  ) -> list[tuple[float, float, object]]:
    """Adversarial transient plans ``(at, width, value)`` for a net.

    Ordered by observed potency: X pulses straddling real transitions,
    whole-pulse swallows, then premature pulses ahead of natural rises.
    Injections before the fabric settles (the first transition) or past
    ``deadline`` are pointless and skipped.
    """
    settle = history[0][0] + gate if history else 0.0
    edges = [(t, v) for t, v in history if settle < t < deadline]
    pulses = [(t0, t1) for (t0, v0), (t1, _) in zip(edges, edges[1:])
              if v0 == 1]
    trials: list[tuple[float, float, object]] = []
    for t, _ in edges[:4]:
        trials.append((t - gate, 2.0 * gate, None))          # X straddle
    for t0, t1 in pulses[:3]:
        trials.append((t0 - gate / 2, (t1 - t0) + gate, 0))  # swallow
    for t, v in edges:
        if v != 1:
            continue
        for k in (4, 8):
            at = t - k * gate
            if at > settle:
                trials.append((at, 2.0 * gate, INVERT))      # premature
        if len(trials) >= MAX_GLITCH_TRIALS + 4:
            break
    return [(at, width, value) for at, width, value in trials
            if at > 0][:MAX_GLITCH_TRIALS]


def arm_stuck(site: FaultSite):
    """An ``arm(sim)`` hook pinning ``site.net`` from t = 0 on."""
    value = 0 if site.kind == "stuck0" else 1

    def arm(sim) -> None:
        sim.force_net(site.net, value, time=0.0)
    return arm


def arm_glitch(net: str, at: float, width: float, value=INVERT):
    """An ``arm(sim)`` hook injecting one transient pulse."""
    def arm(sim) -> None:
        sim.inject_glitch(net, at, width, value=value)
    return arm


def _classify(result, cycles, stimulus, arm, delay_model=None) -> str | None:
    """One armed equivalence check: how the fault surfaced, or None."""
    try:
        report = check_flow_equivalence(result, cycles=cycles,
                                        inputs_per_cycle=stimulus,
                                        delay_model=delay_model, arm=arm)
    except FlowEquivalenceError as exc:
        return f"stall: {exc}"[:160]
    except SimulationError as exc:
        return f"sim-error: {exc}"[:160]
    if not report.equivalent:
        first = report.divergences[0]
        return f"divergence: {first.register}@cycle{first.cycle}"
    return None


#: Consumer-controller slowdown used to expose latent guard faults.
GUARD_STRESS_FACTOR = 3.0


def guard_stress(net: str):
    """The stress model that makes a disabled ``ack`` guard bind.

    The serial discipline is statically race-free: at nominal delays an
    acknowledge's producer never actually waits on it, so a stuck-at
    that *disables* the guard is logically masked — until the guarded
    race is provoked.  Slowing the edge's consumer controller
    (``ctl:<succ>``) by :data:`GUARD_STRESS_FACTOR` does exactly that;
    a delay-insensitive fabric must absorb the slowdown on its own, so
    any divergence under stress-plus-fault is the fault's.

    Returns ``(delay_model, label)`` for ``ack:<pred>><succ>`` wires,
    ``None`` for nets that are not edge acknowledges.
    """
    from repro.timing.delays import DelayModel
    if not net.startswith("ack:") or ">" not in net:
        return None
    succ = net.split(">", 1)[1]
    model = DelayModel(prefix_scales=((f"ctl:{succ}", GUARD_STRESS_FACTOR),))
    return model, f"ctl:{succ} {GUARD_STRESS_FACTOR:g}x"


def run_detection(result, site: FaultSite, cycles: int = 8,
                  seed: int = 0) -> tuple[bool | None, str]:
    """Inject ``site`` and ask the equivalence checker to find it.

    Returns ``(detected, how)``: ``how`` localizes the detection —
    ``"divergence: <register>@cycle<k>"`` (the mutation-localization
    output), ``"stall: ..."`` for a wedged handshake, ``"sim-error:
    ..."`` for an X escalation, ``"latent-guard (...)"`` for an
    acknowledge fault only observable once the guarded race is
    provoked (:func:`guard_stress`) — or explains the miss:
    ``"absorbed"`` when every adversarial transient trial was masked
    by the fabric (``"silent-pass"`` for an unobserved stuck-at, which
    *is* a bug).  ``detected`` is ``None`` when nothing was injected: no
    transient trial fits the glitch site's clean-run waveform.
    """
    from repro.testing.stimulus import random_stimulus
    stimulus = random_stimulus(result.sync_netlist, cycles, seed)
    if site.kind in ("stuck0", "stuck1"):
        how = _classify(result, cycles, stimulus, arm_stuck(site))
        if how:
            return True, how
        # Silent at nominal delays: if the site is an edge acknowledge,
        # the fault may have disabled a guard that never binds in the
        # statically race-free schedule.  Provoke the guarded race —
        # but only count a detection when the stress model alone is
        # clean, so the divergence is attributable to the fault.
        stress = guard_stress(site.net)
        if stress is not None:
            model, label = stress
            if _classify(result, cycles, stimulus, None,
                         delay_model=model) is None:
                how = _classify(result, cycles, stimulus, arm_stuck(site),
                                delay_model=model)
                if how:
                    return True, f"latent-guard ({label}): {how}"[:160]
        return False, "silent-pass"
    history, deadline = profile_net(result, site.net, cycles)
    gate = _gate_delay(result.desync_netlist)
    trials = glitch_trials(history, deadline, gate)
    if not trials:
        return None, f"no transient trial fits on {site.net}"
    for at, width, value in trials:
        how = _classify(result, cycles, stimulus,
                        arm_glitch(site.net, at, width, value))
        if how:
            kind = ("X" if value is None else
                    "swallow" if value == 0 else "premature")
            return True, f"{kind}@{at:.0f}ps: {how}"[:160]
    return False, f"absorbed: {len(trials)} transient trials masked"
