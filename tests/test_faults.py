"""Delay models, handshake fault injection, and the campaign driver.

Three layers:

* :class:`repro.timing.DelayModel` is a pure, picklable description —
  its factors are deterministic, clamped, first-match on prefixes, and
  identical across the interpreter and compiled engines;
* the injection layer (:mod:`repro.faults.inject`) makes the
  flow-equivalence checker act as a fault *detector*: stuck-at and
  transient faults on controller nets must surface as divergences,
  stalls or X escalations — and the serial fabric's absorption of
  interior acknowledge transients is pinned as a robustness property;
* :func:`repro.faults.run_campaign` drives the cells through the grid
  runner; a rerun on the same job dir resumes cell-exactly.
"""

from __future__ import annotations

import math
import pickle

import pytest

from repro.corpus import generate
from repro.desync import DesyncOptions, desynchronize
from repro.equiv import check_flow_equivalence, desync_streams
from repro.faults import (
    CAMPAIGN_COLUMNS,
    CampaignSpec,
    campaign_cells,
    run_campaign,
)
from repro.faults.inject import (
    GLITCH_PREFIXES,
    MAX_GLITCH_TRIALS,
    FaultSite,
    control_nets,
    glitch_trials,
    profile_net,
    run_detection,
    sample_control_nets,
)
from repro.netlist import Netlist
from repro.sim.backends import EVENT_BACKENDS
from repro.sim.compiled import CompiledSimulator
from repro.sim.simulator import INVERT, EventSimulator
from repro.testing import random_stimulus
from repro.timing import DelayModel, matched_delay_target, plan_delay_line
from repro.utils.errors import (
    FaultCampaignError,
    FlowEquivalenceError,
    OptionsError,
    SimulationError,
    TimingError,
)

CYCLES = 8


@pytest.fixture(scope="module")
def pipe4x1():
    return desynchronize(generate("pipe4x1"), DesyncOptions(mode="serial"))


@pytest.fixture(scope="module")
def counter6():
    return desynchronize(generate("counter6"), DesyncOptions(mode="serial"))


def equivalent_under(result, model, cycles: int = CYCLES, seed: int = 0):
    """True / False / "raised" — how the fabric fares under ``model``."""
    stimulus = random_stimulus(result.sync_netlist, cycles, seed)
    try:
        report = check_flow_equivalence(result, cycles=cycles,
                                        inputs_per_cycle=stimulus,
                                        delay_model=model)
    except (FlowEquivalenceError, SimulationError):
        return "raised"
    return report.equivalent


class TestDelayModel:
    def test_identity(self):
        model = DelayModel()
        assert model.is_identity
        assert model.factor("anything") == 1.0
        assert model.max_factor() == model.min_factor() == 1.0

    def test_scaled(self):
        model = DelayModel.scaled(3.0)
        assert not model.is_identity
        assert model.factor("dl:a>b/d0") == model.factor("u42") == 3.0

    def test_jitter_deterministic_and_clamped(self):
        model = DelayModel.jittered(0.05, seed=3)
        again = DelayModel.jittered(0.05, seed=3)
        names = [f"u{i}" for i in range(50)]
        factors = [model.factor(name) for name in names]
        assert factors == [again.factor(name) for name in names]
        assert all(0.85 <= f <= 1.15 for f in factors)  # +-3 sigma clamp
        assert len(set(factors)) > 1  # per-instance, not global
        other = DelayModel.jittered(0.05, seed=4)
        assert factors != [other.factor(name) for name in names]

    def test_prefix_first_match_wins(self):
        model = DelayModel(prefix_scales=(("dl:", 0.5), ("", 2.0)))
        assert model.factor("dl:a>b/d0") == 0.5
        assert model.factor("ctl:a") == 2.0  # catch-all

    def test_adversarial_shape(self):
        eps = 0.25
        model = DelayModel.adversarial(eps)
        assert model.factor("dl:a>b/d0") == pytest.approx(1.0 / (1.0 + eps))
        assert model.factor("ctl:a/g1") == 1.0  # controllers nominal
        assert model.factor("u7") == pytest.approx(1.0 + eps)  # data slow
        assert model.max_factor() == pytest.approx(1.0 + eps)
        assert model.min_factor() == pytest.approx(1.0 / (1.0 + eps))

    def test_eroded_targets_one_line(self):
        model = DelayModel.eroded("a", "b", 0.5)
        assert model.factor("dl:a>b/d0") == 0.5
        assert model.factor("dl:a>c/d0") == 1.0
        assert model.factor("u1") == 1.0

    def test_validation(self):
        with pytest.raises(TimingError, match="scale"):
            DelayModel(scale=-1.0)
        with pytest.raises(TimingError, match="sigma"):
            DelayModel(jitter_sigma=float("nan"))
        with pytest.raises(TimingError, match="prefix rule"):
            DelayModel(prefix_scales=(("dl:", float("inf")),))
        with pytest.raises(TimingError, match="epsilon"):
            DelayModel.adversarial(-0.1)

    def test_pickle_roundtrip(self):
        model = DelayModel.jittered(0.03, seed=9)
        clone = pickle.loads(pickle.dumps(model))
        assert clone == model
        assert clone.factor("dl:a>b/d7") == model.factor("dl:a>b/d7")


class TestDelayModelThreading:
    def test_event_compiled_parity_under_jitter(self, pipe4x1):
        model = DelayModel.jittered(0.04, seed=2)
        stimulus = random_stimulus(pipe4x1.sync_netlist, 6, 0)
        event = desync_streams(pipe4x1, 6, inputs_per_cycle=stimulus,
                               backend="event", delay_model=model)
        compiled = desync_streams(pipe4x1, 6, inputs_per_cycle=stimulus,
                                  backend="compiled", delay_model=model)
        assert event == compiled

    @pytest.mark.parametrize("factor", [1.0 / 3.0, 3.0])
    def test_uniform_scaling_survives(self, counter6, factor):
        assert equivalent_under(counter6, DelayModel.scaled(factor)) is True

    def test_adversarial_within_margin_survives(self, counter6):
        assert equivalent_under(counter6,
                                DelayModel.adversarial(0.02)) is True

    def test_adversarial_overwhelms_eventually(self, counter6):
        assert equivalent_under(counter6,
                                DelayModel.adversarial(2.0)) is not True

    def test_erosion_cliff_on_feedback_stage(self, counter6):
        # counter6's self-loop matched line has a measured cliff around
        # 0.23x (see BENCH_faults): nominal survives, a tenth does not.
        assert equivalent_under(counter6,
                                DelayModel.eroded("cnt", "cnt", 1.0)) is True
        assert equivalent_under(
            counter6, DelayModel.eroded("cnt", "cnt", 0.1)) is not True


class TestSimulatorFaultApi:
    def build(self):
        netlist = Netlist("t")
        a = netlist.add_input("a")
        x = netlist.add_gate("INV", [a], name="g0")
        netlist.add_gate("INV", [x], name="g1")
        netlist.add_output("g1")
        sim = EventSimulator(netlist, record=["g0", "g1"])
        sim.set_input("a", 0, 0.0)
        return sim

    def test_force_overrides_driver_until_release(self):
        sim = self.build()
        sim.force_net("g0", 0, time=200.0)
        sim.release_net("g0", time=600.0)
        sim.run(1000.0)
        history = [(t, v) for t, v in sim.history["g0"]]
        assert (200.0, 0) in history  # forced low despite driver high
        assert sim.value("g0") == 1  # release restored the computed value
        assert sim.value("g1") == 0

    def test_inject_glitch_default_inverts(self):
        sim = self.build()
        sim.inject_glitch("g0", at=300.0, duration=50.0)
        sim.run(1000.0)
        assert (300.0, 0) in sim.history["g0"]  # inverse of settled 1
        assert sim.value("g0") == 1

    def test_inject_glitch_explicit_none_drives_x(self):
        sim = self.build()
        sim.inject_glitch("g0", at=300.0, duration=50.0, value=None)
        sim.run(1000.0)
        assert (300.0, None) in sim.history["g0"]
        assert sim.value("g0") == 1

    def test_invert_sentinel_is_not_x(self):
        assert INVERT is not None


class TestInjection:
    def test_control_nets_exclude_inverted_clocks(self):
        # Only overlap mode has ltn: (inverted local clock) nets; the
        # lt: prefix must not swallow them.
        netlist = desynchronize(generate("pipe4x1")).desync_netlist
        assert any(name.startswith("ltn:") for name in netlist.nets)
        nets = control_nets(netlist)
        assert nets and not [n for n in nets if n.startswith("ltn:")]

    def test_glitch_sample_excludes_acks_and_env_clock(self, pipe4x1):
        nets = sample_control_nets(pipe4x1.desync_netlist, 0,
                                   prefixes=GLITCH_PREFIXES)
        assert nets == sample_control_nets(pipe4x1.desync_netlist, 0,
                                           prefixes=GLITCH_PREFIXES)
        assert not [n for n in nets if n.startswith("ack:")]
        assert not [n for n in nets if n.startswith("lt:<env>")]
        assert any(n.startswith("lt:") for n in nets)

    def test_site_validation(self):
        with pytest.raises(FaultCampaignError, match="fault kind"):
            FaultSite("lt:st0", "bogus")

    @pytest.mark.parametrize("net", ["lt:st3", "req:st1>st2", "ack:st1>st2"])
    def test_stuck_at_detected_on_every_prefix(self, pipe4x1, net):
        for kind in ("stuck0", "stuck1"):
            detected, how = run_detection(pipe4x1, FaultSite(net, kind),
                                          cycles=6)
            assert detected, (net, kind, how)
            assert how.startswith(("stall:", "sim-error:", "divergence:"))

    def test_glitch_detected_on_pulse_nets(self, pipe4x1):
        detected, how = run_detection(pipe4x1, FaultSite("lt:st0", "glitch"),
                                      cycles=6)
        assert detected, how

    @pytest.mark.parametrize("net", ["ack:st1>st2", "ack:st2>st3"])
    def test_interior_ack_transients_absorbed(self, pipe4x1, net):
        """The robustness property the glitch fault model is built on:
        in the statically race-free serial discipline, every adversarial
        transient on an *interior* acknowledge loop is absorbed by the
        hold-dominant C-elements.  (The environment-boundary ack can
        still race data in flight from the input pacer — that is why
        stuck-at keeps targeting ``ack:`` while glitches do not.)"""
        detected, how = run_detection(pipe4x1, FaultSite(net, "glitch"),
                                      cycles=6)
        assert not detected, (net, how)
        assert how.startswith("absorbed:")

    def test_latch_plumbing_excluded_from_sites(self, pipe4x1):
        netlist = pipe4x1.desync_netlist
        # The ACKC re-arm pulses live in the ack: namespace but are
        # internal plumbing (redundant by construction on env edges).
        assert any("/" in name for name in netlist.nets
                   if name.startswith("ack:"))
        assert not [n for n in control_nets(netlist) if "/" in n]

    def test_latent_guard_stuck_at_exposed_under_stress(self):
        # In the statically race-free serial schedule the rb->prod
        # acknowledge never binds at nominal delays, so stuck1 disables
        # a guard invisibly; slowing the consumer controller provokes
        # the guarded race and the checker must attribute the
        # divergence to the fault.
        result = desynchronize(generate("mult2"),
                               DesyncOptions(mode="serial"))
        detected, how = run_detection(result,
                                      FaultSite("ack:rb>prod", "stuck1"))
        assert detected, how
        assert how.startswith("latent-guard (ctl:prod 3x)"), how

    def test_profile_and_trials_bounded(self, pipe4x1):
        history, deadline = profile_net(pipe4x1, "lt:st0", 6)
        assert history and deadline > 0
        trials = glitch_trials(history, deadline, gate=20.0)
        assert 0 < len(trials) <= MAX_GLITCH_TRIALS
        assert all(at > 0 and width > 0 for at, width, _ in trials)


def full_horizon_run(result, nets, cycles, cls=EventSimulator):
    """The clean run without the stop at the deadline: ``cls`` recording
    ``nets`` to the paced run's stall horizon, ``(cycles + 8) * 2``
    periods.  Returns the engine and the deadline, the earliest
    ``cycles``-th capture of any bank."""
    period = result.desync_cycle_time().cycle_time
    sim = cls(result.desync_netlist, record=nets)
    sim.run((cycles + 8) * 2 * period)
    return sim, min(bank[cycles - 1].time for bank in sim.captures.values()
                    if len(bank) >= cycles)


def dedicated_profile(result, net, cycles):
    """The clean profile of ``net`` from a full-horizon interpreter run
    recording that net alone, cut to the edges before the deadline —
    what :func:`profile_net` must reproduce."""
    sim, deadline = full_horizon_run(result, [net], cycles)
    return [edge for edge in sim.history[net] if edge[0] < deadline], \
        deadline


@pytest.fixture
def clean_engines():
    """The engines ``count_runs`` saw built, in order."""
    return []


@pytest.fixture
def count_runs(monkeypatch, clean_engines):
    """Record the ``record=`` list of every simulator profile_net builds."""
    import repro.faults.inject as inject
    built = []
    real = inject.make_simulator

    def counting(netlist, backend, **kwargs):
        built.append((backend, list(kwargs.get("record") or ())))
        clean_engines.append(real(netlist, backend, **kwargs))
        return clean_engines[-1]
    monkeypatch.setattr(inject, "make_simulator", counting)
    return built


#: The configs of the benchmark's fault campaign.
BENCHMARK_CAMPAIGN = (
    "counter6", "crc5", "crc8", "diamond2x4", "fir5", "fir8", "lfsr16",
    "lfsr8", "mult2", "mult4", "pipe4x1", "pipe4x4", "pipe8x2",
    "pipe12x2",
)


class TestSharedProfile:
    def test_every_control_net_matches_a_dedicated_run(self):
        result = desynchronize(generate("pipe4x1"),
                               DesyncOptions(mode="serial"))
        nets = control_nets(result.desync_netlist)
        assert nets
        for net in nets:
            assert profile_net(result, net, CYCLES) == \
                dedicated_profile(result, net, CYCLES), net

    def test_one_clean_run_per_config(self, count_runs):
        result = desynchronize(generate("counter6"),
                               DesyncOptions(mode="serial"))
        first = profile_net(result, "lt:cnt", CYCLES)
        second = profile_net(result, "req:cnt>cnt", CYCLES)
        assert first[0] and second[0]
        assert first[1] == second[1]
        assert count_runs == [
            ("compiled", control_nets(result.desync_netlist))]
        # A caller may edit what it gets back; the memo stays intact.
        first[0].clear()
        assert profile_net(result, "lt:cnt", CYCLES) == \
            dedicated_profile(result, "lt:cnt", CYCLES)
        assert len(count_runs) == 1

    def test_other_nets_get_their_own_run(self, count_runs):
        result = desynchronize(generate("pipe4x1"),
                               DesyncOptions(mode="serial"))
        net = "din"
        assert net not in control_nets(result.desync_netlist)
        assert profile_net(result, net, CYCLES) == \
            dedicated_profile(result, net, CYCLES)
        assert count_runs == [("compiled", [net])]

    @pytest.mark.parametrize("config", BENCHMARK_CAMPAIGN)
    def test_trials_match_the_full_horizon_run(self, config):
        # Stopping at the deadline drops only edges no trial reads.
        result = desynchronize(generate(config),
                               DesyncOptions(mode="serial"))
        netlist = result.desync_netlist
        nets = control_nets(netlist)
        gate = max(cell.delay for cell in netlist.library.cells.values())
        for cycles in (6, 8):
            full, deadline = full_horizon_run(result, nets, cycles,
                                              cls=CompiledSimulator)
            for net in nets:
                history, cut_at = profile_net(result, net, cycles)
                assert cut_at == deadline, (net, cycles)
                assert glitch_trials(history, deadline, gate) == \
                    glitch_trials(full.history.get(net, []), deadline,
                                  gate), (net, cycles)

    @pytest.mark.parametrize("config", ["crc5", "crc8"])
    def test_deadline_is_the_first_complete_bank(self, config):
        # No bank of these fabrics completes within cycles + 1 model
        # periods (7,680 and 8,200 ps): the deadline must wait for one.
        result = desynchronize(generate(config),
                               DesyncOptions(mode="serial"))
        net = control_nets(result.desync_netlist)[0]
        assert profile_net(result, net, CYCLES)[1] == 9450.0

    def test_stalled_clean_run_raises(self):
        # Tie the st1 -> st2 acknowledge's producer pin high: st1 never
        # relaunches, so no bank ever completes CYCLES captures.
        result = desynchronize(generate("pipe4x1"),
                               DesyncOptions(mode="serial"))
        fabric = result.desync_netlist
        ack = fabric.instances["ack:st1>st2/c"]
        ack.pins["P"].sinks.remove((ack, "P"))
        ack.pins["P"] = fabric.nets["ctl:one"]
        fabric.nets["ctl:one"].sinks.append((ack, "P"))
        fabric.invalidate_query_caches()  # direct structural edit
        with pytest.raises(FlowEquivalenceError, match="stalled"):
            profile_net(result, "din", CYCLES)

    def test_clean_run_stops_at_the_deadline(self, count_runs,
                                              clean_engines):
        result = desynchronize(generate("pipe12x2"),
                               DesyncOptions(mode="serial"))
        nets = control_nets(result.desync_netlist)
        _, deadline = profile_net(result, nets[0], CYCLES)
        full, full_deadline = full_horizon_run(result, nets, CYCLES,
                                               cls=CompiledSimulator)
        (clean,) = clean_engines
        assert deadline == full_deadline
        assert clean.now < 2 * deadline < full.now
        assert 10 * clean.n_events <= full.n_events


def small_spec(**overrides) -> CampaignSpec:
    base = dict(configs=("pipe4x1",), seeds=(0,), cycles=6,
                scales=(3.0,), jitter_sigmas=(), adversarial_eps=(),
                fault_kinds=("stuck1",), max_fault_sites=2,
                margin_configs=())
    base.update(overrides)
    return CampaignSpec(**base)


def without_wall(rows: list[list[object]]) -> list[list[object]]:
    wall = CAMPAIGN_COLUMNS.index("wall_ms")
    return [row[:wall] + row[wall + 1:] for row in rows]


class TestCampaign:
    def test_cells_deterministic_and_complete(self):
        spec = CampaignSpec(configs=("pipe4x1", "counter6"))
        cells = campaign_cells(spec)
        assert cells == campaign_cells(spec)
        keys = [key for key, _ in cells]
        assert len(set(keys)) == len(keys)
        per_config = (len(spec.scales) + len(spec.jitter_sigmas)
                      + len(spec.adversarial_eps)) * len(spec.seeds) \
            + spec.max_fault_sites * len(spec.fault_kinds)
        assert len(cells) == 2 * per_config + 1  # margin defaults to [:1]

    def test_spec_validation(self):
        with pytest.raises(FaultCampaignError, match="config"):
            CampaignSpec(configs=())
        with pytest.raises(FaultCampaignError, match="fault kind"):
            CampaignSpec(configs=("pipe4x1",), fault_kinds=("bogus",))
        with pytest.raises(FaultCampaignError, match="margin_steps"):
            CampaignSpec(configs=("pipe4x1",), margin_steps=0)

    def test_small_campaign_end_to_end(self):
        spec = small_spec()
        report = run_campaign(spec, jobs=1)
        assert report.columns == CAMPAIGN_COLUMNS
        keys = [key for key, _ in campaign_cells(spec)]
        assert [row[0] for row in report.rows] == keys
        assert report.summary["survival_rate"] == 1.0
        assert report.summary["detection_rate"] == 1.0
        assert not report.quarantined
        assert report.summary["margins"] == {}
        assert report.summary["executor"]["completed"] == len(keys)

    def test_rerun_on_job_dir_resumes_without_rerunning(self, tmp_path):
        spec = small_spec()
        job_dir = str(tmp_path / "jobs")
        first = run_campaign(spec, jobs=1, job_dir=job_dir)
        assert first.summary["executor"]["completed"] == len(first.rows)
        resumed = run_campaign(spec, jobs=1, job_dir=job_dir)
        assert resumed.summary["executor"]["completed"] == 0
        assert resumed.rows == first.rows

    def test_changed_cycles_on_one_job_dir_recompute(self, tmp_path):
        # Cells are filed by content: a rerun with other cycles on the
        # same job dir must not be served the first run's rows.
        job_dir = str(tmp_path / "jobs")
        run_campaign(small_spec(cycles=8), jobs=1, job_dir=job_dir)
        reused = run_campaign(small_spec(cycles=4), jobs=1, job_dir=job_dir)
        fresh = run_campaign(small_spec(cycles=4), jobs=1)
        assert reused.summary["executor"]["completed"] == len(fresh.rows)
        assert without_wall(reused.rows) == without_wall(fresh.rows)

    def test_overlapping_campaign_runs_only_the_new_cells(self, tmp_path):
        job_dir = str(tmp_path / "jobs")
        first = run_campaign(small_spec(), jobs=1, job_dir=job_dir)
        both = small_spec(configs=("pipe4x1", "counter6"))
        union = run_campaign(both, jobs=1, job_dir=job_dir)
        fresh = run_campaign(both, jobs=1)
        new_cells = len(fresh.rows) - len(first.rows)
        assert new_cells > 0
        assert union.summary["executor"]["completed"] == new_cells
        assert union.summary["jobs"]["cache_hits"] == len(first.rows)
        assert without_wall(union.rows) == without_wall(fresh.rows)

    def test_pooled_campaign_folds_worker_telemetry(self):
        # Pool workers hand back the counters and spans of each cell
        # beside its row, so this process's metrics and trace show the
        # checks they ran.
        from repro.obs import METRICS, TRACER

        def traced(jobs):
            METRICS.reset()
            TRACER.start()
            try:
                run_campaign(small_spec(), jobs=jobs)
                events = TRACER.events()
            finally:
                TRACER.stop()
            work = {name: entry["value"]
                    for name, entry in METRICS.snapshot().items()
                    if entry["type"] == "counter" and entry["value"]
                    and name.startswith(("equiv.", "sim."))}
            checks = [event["pid"] for event in events
                      if event["name"] == "equiv:check"]
            return work, checks

        solo_work, solo_checks = traced(1)
        pool_work, pool_checks = traced(2)
        assert pool_work == solo_work != {}
        assert len(pool_checks) == len(solo_checks) > 0
        assert set(solo_checks) == {1} and 1 not in pool_checks

    def test_compiled_campaign_matches_the_interpreter(self, monkeypatch):
        # The campaign runs on the compiled engine; with the interpreter
        # substituted under the same name, every row but the wall time
        # must come out the same.
        spec = CampaignSpec(configs=("counter6", "pipe4x1"), cycles=6,
                            scales=(3.0,), jitter_sigmas=(0.01,),
                            adversarial_eps=(0.02,), max_fault_sites=2,
                            margin_configs=("counter6",), margin_steps=3)
        wall = CAMPAIGN_COLUMNS.index("wall_ms")

        def rows():
            report = run_campaign(spec, jobs=1)
            return [row[:wall] + row[wall + 1:] for row in report.rows]
        compiled = rows()
        monkeypatch.setitem(EVENT_BACKENDS, "compiled", EventSimulator)

        def not_the_interpreter(self, until):
            raise AssertionError("a compiled engine ran after the swap")
        monkeypatch.setattr(CompiledSimulator, "run", not_the_interpreter)
        assert rows() == compiled
        kinds = {row[CAMPAIGN_COLUMNS.index("kind")] for row in compiled}
        assert kinds == {"delay", "fault", "margin"}

    def test_glitch_cell_without_trials_is_skipped(self, monkeypatch):
        # Nothing injected is not a detection miss: the cell is skipped
        # and left out of the detection rate.
        monkeypatch.setattr("repro.faults.inject.glitch_trials",
                            lambda *args, **kwargs: [])
        report = run_campaign(small_spec(fault_kinds=("glitch",)), jobs=1)
        at = {column: i for i, column in enumerate(CAMPAIGN_COLUMNS)}
        faults = [row for row in report.rows if row[at["kind"]] == "fault"]
        assert faults and all(row[at["status"]] == "skipped"
                              for row in faults)
        assert all("no transient trial fits on " in row[at["detail"]]
                   for row in faults)
        assert report.summary["detection_rate"] is None


class TestOptionsAndPlanningErrors:
    @pytest.mark.parametrize("field,value", [
        ("margin", -0.1), ("margin", float("nan"))])
    def test_options_reject_bad_margins(self, field, value):
        with pytest.raises(OptionsError, match=field):
            DesyncOptions(**{field: value})

    def test_plan_delay_line_error_names_the_stage(self):
        library = generate("counter6").library
        with pytest.raises(TimingError, match="stage cnt->cnt"):
            plan_delay_line(float("nan"), library,
                            context="stage cnt->cnt")
        with pytest.raises(TimingError, match="bank b0"):
            plan_delay_line(-5.0, library, context="bank b0")

    def test_matched_delay_target_rejects_negative_margin(self):
        with pytest.raises(TimingError, match="margin"):
            matched_delay_target(100.0, 20.0, margin=-0.5)

    def test_targets_are_finite(self):
        assert math.isfinite(matched_delay_target(100.0, 20.0))
