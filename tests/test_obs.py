"""Tests for the observability layer: tracing, metrics, VCD export."""

import gc
import json
import os
import subprocess
import sys

import pytest

from repro.corpus import generate
from repro.desync import DesyncOptions, HandshakeMode, desynchronize
from repro.desync.pipeline import run_pipeline
from repro.equiv import check_flow_equivalence
from repro.obs import (
    METRICS,
    NULL_SPAN,
    TRACER,
    MetricsRegistry,
    Tracer,
    parse_vcd,
    write_vcd,
)
from repro.obs.probe import HandshakeProbe, probe_handshakes
from repro.petri import simulate
from repro.sim.waves import WaveGroup, Waveform
from repro.stg import linear_pipeline
from repro.utils.errors import ReproError


@pytest.fixture
def quiet_gc():
    """Pause automatic collections, so an armed tracer records only the
    events a test makes (an armed tracer also records ``gc`` slices)."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


@pytest.fixture
def tracer(quiet_gc):
    """A private, armed tracer (never the process-global one)."""
    tracer = Tracer()
    tracer.start()
    yield tracer
    tracer.stop()


@pytest.fixture
def global_trace():
    """Arm the process-global tracer; always disarm afterwards."""
    TRACER.start()
    try:
        yield TRACER
    finally:
        TRACER.stop()


class TestDisabledTracer:
    def test_disabled_by_default_without_env(self):
        # The suite must run with tracing off unless REPRO_TRACE is set;
        # the zero-overhead claim rests on this default.
        if not os.environ.get("REPRO_TRACE"):
            assert not TRACER.enabled

    def test_span_is_the_shared_null_span(self):
        tracer = Tracer()
        assert tracer.span("anything", key=1) is NULL_SPAN
        assert tracer.span("other") is NULL_SPAN

    def test_null_span_is_inert(self):
        with NULL_SPAN as span:
            assert span is NULL_SPAN
            assert span.set(a=1) is NULL_SPAN
            assert span.count("n", 5) is NULL_SPAN

    def test_null_span_does_not_swallow_exceptions(self):
        with pytest.raises(ValueError):
            with NULL_SPAN:
                raise ValueError("must propagate")

    def test_count_and_instant_record_nothing(self):
        tracer = Tracer()
        tracer.count("sim.events_popped", 100)
        tracer.instant("replay:proof", replayable=True)
        assert tracer.events() == []

    def test_instrumented_run_emits_nothing_while_disabled(self):
        events_before = len(TRACER.events())
        if TRACER.enabled:
            pytest.skip("REPRO_TRACE armed the global tracer")
        run_pipeline(generate("pipe4x1"))
        assert len(TRACER.events()) == events_before


class TestTracer:
    def test_span_records_complete_event(self, tracer):
        with tracer.span("work", kind="test") as span:
            span.set(extra=3)
            span.count("items", 2)
            span.count("items", 1)
        (event,) = tracer.events()
        assert event["name"] == "work"
        assert event["ph"] == "X"
        assert event["dur"] >= 0
        assert event["args"] == {"kind": "test", "extra": 3, "items": 3}

    def test_nested_count_lands_on_innermost_span(self, tracer):
        with tracer.span("outer"):
            with tracer.span("inner"):
                tracer.count("n", 7)
        inner, outer = tracer.events()
        assert inner["name"] == "inner" and inner["args"]["n"] == 7
        assert "n" not in outer["args"]

    def test_count_outside_spans_is_a_counter_track(self, tracer):
        tracer.count("free", 2)
        tracer.count("free", 3)
        first, second = tracer.events()
        assert first["ph"] == "C" and first["args"] == {"value": 2}
        assert second["args"] == {"value": 5}  # cumulative

    def test_exception_recorded_as_error_attr(self, tracer):
        with pytest.raises(RuntimeError):
            with tracer.span("fails"):
                raise RuntimeError("boom")
        (event,) = tracer.events()
        assert event["args"]["error"] == "RuntimeError"

    def test_instant_event(self, tracer):
        tracer.instant("replay:proof", replayable=False, reason="x")
        (event,) = tracer.events()
        assert event["ph"] == "i" and event["s"] == "t"
        assert event["args"]["reason"] == "x"

    def test_export_envelope_and_write(self, tracer, tmp_path):
        with tracer.span("s"):
            pass
        exported = tracer.export()
        assert set(exported) == {"traceEvents", "displayTimeUnit"}
        path = str(tmp_path / "trace.json")
        tracer.write(path)
        with open(path) as handle:
            assert json.load(handle) == json.loads(json.dumps(exported))

    def test_stop_writes_to_armed_path(self, tmp_path, quiet_gc):
        tracer = Tracer()
        path = str(tmp_path / "armed.json")
        tracer.start(path)
        with tracer.span("s"):
            pass
        tracer.stop()
        with open(path) as handle:
            payload = json.load(handle)
        assert payload["traceEvents"][0]["name"] == "s"

    def test_start_clears_previous_recording(self, tracer):
        with tracer.span("old"):
            pass
        tracer.start()
        assert tracer.events() == []


class TestGcSlices:
    """Collections show in the trace as ``gc`` complete events."""

    @staticmethod
    def gc_events(tracer):
        return [event for event in tracer.events() if event["name"] == "gc"]

    def test_forced_collection_is_one_gc_event_while_armed(self, quiet_gc):
        tracer = Tracer()
        tracer.start()
        try:
            collected = gc.collect()
            (event,) = self.gc_events(tracer)
        finally:
            tracer.stop()
        assert event["ph"] == "X" and event["dur"] >= 0
        assert {"ts", "pid", "tid"} <= set(event)
        assert event["args"] == {"generation": 2, "collected": collected}

    def test_nothing_recorded_or_hooked_while_disarmed(self, quiet_gc):
        tracer = Tracer()
        hooks = len(gc.callbacks)
        gc.collect()
        assert tracer.events() == []
        tracer.start()
        assert len(gc.callbacks) == hooks + 1
        tracer.stop()
        assert len(gc.callbacks) == hooks
        gc.collect()
        assert self.gc_events(tracer) == []
        tracer.start()
        tracer.disarm()
        assert len(gc.callbacks) == hooks
        gc.collect()
        assert tracer.events() == []

    def test_repeated_start_never_stacks_callbacks(self, quiet_gc):
        tracer = Tracer()
        hooks = len(gc.callbacks)
        try:
            for _ in range(3):
                tracer.start()
            assert len(gc.callbacks) == hooks + 1
            gc.collect()
            assert len(self.gc_events(tracer)) == 1
        finally:
            tracer.stop()
        assert len(gc.callbacks) == hooks


class TestInstrumentation:
    def test_run_pipeline_trace_schema(self, global_trace):
        run_pipeline(generate("pipe4x1"))
        events = global_trace.events()
        names = [event["name"] for event in events]
        assert "pipeline:desync" in names
        passes = [event for event in events
                  if str(event["name"]).startswith("pass:")]
        assert len(passes) >= 4
        # Every complete event is a well-formed Chrome trace event.
        for event in events:
            if event["ph"] == "X":
                assert {"name", "ph", "ts", "dur", "pid",
                        "tid", "args"} <= set(event)
        # The pipeline span opened before its passes (ts ordering).
        pipeline = next(event for event in events
                        if event["name"] == "pipeline:desync")
        assert all(pipeline["ts"] <= p["ts"] for p in passes)

    def test_model_analysis_spans(self, global_trace):
        ctx = run_pipeline(generate("pipe4x1"))
        ctx.desync_cycle_time()
        events = global_trace.events()
        network = next(event for event in events
                       if event["name"] == "pass:controller-network")
        check = next(event for event in events
                     if event["name"] == "model:check")
        # The model check is its own span, nested in the pass it runs in.
        assert network["ts"] <= check["ts"]
        assert check["ts"] + check["dur"] <= network["ts"] + network["dur"]
        cycle = next(event for event in events
                     if event["name"] == "model:cycle_time")
        assert cycle["args"]["cycle_time"] == \
            ctx.desync_cycle_time().cycle_time

    def test_equivalence_check_spans(self, global_trace):
        result = desynchronize(generate("pipe4x1"),
                               DesyncOptions(mode=HandshakeMode.SERIAL))
        report = check_flow_equivalence(result, cycles=6)
        assert report.equivalent
        names = {event["name"] for event in global_trace.events()}
        assert "equiv:check" in names
        assert "sim:paced-run" in names
        check = next(event for event in global_trace.events()
                     if event["name"] == "equiv:check")
        assert check["args"]["equivalent"] is True

    def test_env_var_activation_in_subprocess(self, tmp_path):
        path = str(tmp_path / "env_trace.json")
        env = dict(os.environ, REPRO_TRACE=path,
                   PYTHONPATH=os.path.join(os.path.dirname(__file__),
                                           os.pardir, "src"))
        code = ("from repro.corpus import generate\n"
                "from repro.desync.pipeline import run_pipeline\n"
                "run_pipeline(generate('pipe4x1'))\n")
        subprocess.run([sys.executable, "-c", code], env=env, check=True,
                       timeout=120)
        with open(path) as handle:
            payload = json.load(handle)
        names = [event["name"] for event in payload["traceEvents"]]
        assert any(name.startswith("pass:") for name in names)


class TestMetricsRegistry:
    def test_counter_gauge_histogram(self):
        registry = MetricsRegistry()
        registry.counter("c").inc()
        registry.counter("c").inc(4)
        registry.gauge("g").set(2.5)
        for value in [5.0, 1.0, 2.0, 3.0, 4.0]:
            registry.histogram("h").observe(value)
        snapshot = registry.snapshot()
        assert snapshot["c"] == {"type": "counter", "value": 5}
        assert snapshot["g"] == {"type": "gauge", "value": 2.5}
        assert snapshot["h"]["count"] == 5
        assert snapshot["h"]["min"] == 1.0 and snapshot["h"]["max"] == 5.0
        assert snapshot["h"]["mean"] == 3.0
        assert snapshot["h"]["p50"] == 3.0
        assert snapshot["h"]["p95"] == 5.0

    def test_counter_rejects_decrease(self):
        with pytest.raises(ValueError, match="cannot decrease"):
            MetricsRegistry().counter("c").inc(-1)

    def test_kind_conflict_rejected(self):
        registry = MetricsRegistry()
        registry.counter("name")
        with pytest.raises(ValueError, match="already registered"):
            registry.gauge("name")

    def test_empty_histogram_summary(self):
        summary = MetricsRegistry().histogram("h").summary()
        assert summary["count"] == 0 and summary["p95"] is None

    def test_snapshot_prefix_and_reset(self):
        registry = MetricsRegistry()
        registry.counter("a.one").inc()
        registry.counter("b.two").inc()
        assert list(registry.snapshot(prefix="a.")) == ["a.one"]
        registry.reset()
        assert len(registry) == 0

    def test_global_registry_exists(self):
        assert isinstance(METRICS, MetricsRegistry)


class TestWaveformAt:
    def test_empty_wave_is_none(self):
        assert Waveform("w").at(5.0) is None

    def test_before_first_change_is_none(self):
        wave = Waveform("w")
        wave.add(10.0, 1)
        assert wave.at(9.999) is None

    def test_exact_time_sees_that_change(self):
        wave = Waveform("w")
        wave.add(10.0, 1)
        wave.add(20.0, 0)
        assert wave.at(10.0) == 1
        assert wave.at(20.0) == 0

    def test_between_and_after_hold_last_value(self):
        wave = Waveform("w")
        wave.add(10.0, 1)
        wave.add(20.0, 0)
        assert wave.at(15.0) == 1
        assert wave.at(1e9) == 0

    def test_tie_resolves_to_last_change_at_that_time(self):
        wave = Waveform("w")
        wave.add(10.0, 1)
        wave.add(10.0, 0)  # same-time glitch: last write wins
        assert wave.at(10.0) == 0

    def test_matches_linear_scan_on_dense_wave(self):
        wave = Waveform("w")
        for k in range(50):
            wave.add(float(k), k % 2)
        for probe in [0.0, 0.5, 7.0, 48.9, 49.0, 60.0]:
            expected = None
            for time, value in wave.changes:
                if time <= probe:
                    expected = value
            assert wave.at(probe) == expected


class TestVcd:
    def _figure3_group(self) -> tuple[WaveGroup, float]:
        model = linear_pipeline(["A", "B", "C", "D"], stage_delay=800.0,
                                controller_delay=60.0)
        trace = simulate(model, rounds=8)
        group = WaveGroup.from_transitions(
            [(event.time, event.transition) for event in trace.events],
            initial={"A": 1, "B": 0, "C": 1, "D": 0})
        return group, trace.horizon

    def test_round_trip_figure3_pipeline(self, tmp_path):
        group, _horizon = self._figure3_group()
        path = str(tmp_path / "fig3.vcd")
        assert write_vcd(path, group, module="fig3") == path
        with open(path) as handle:
            parsed = parse_vcd(handle.read())
        assert parsed.module == "fig3"
        assert parsed.timescale == "1ps"
        assert set(parsed.group.waves) == set(group.waves)
        for name, wave in group.waves.items():
            assert parsed.group.wave(name).changes == [
                (float(round(time)), value)
                for time, value in wave.changes], name

    def test_header_and_dumpvars_shape(self, tmp_path):
        group = WaveGroup()
        group.wave("a").add(0.0, 1)
        group.wave("a").add(5.0, 0)
        group.wave("b").add(3.0, 1)
        path = str(tmp_path / "x.vcd")
        write_vcd(path, group, comment="unit test")
        with open(path) as handle:
            text = handle.read()
        assert "$comment unit test $end" in text
        assert "$timescale 1ps $end" in text
        assert "$scope module top $end" in text
        assert text.count("$var wire 1") == 2
        # t=0 values live in $dumpvars ('x' for the not-yet-driven b)...
        dump = text.split("$dumpvars")[1].split("$end")[0].split()
        assert sorted(dump) == ["1!", 'x"']
        # ...and no redundant "#0" block is emitted.
        assert "#0" not in text
        assert "#3" in text and "#5" in text

    def test_history_dict_source(self, tmp_path):
        history = {"n1": [(0.0, 1), (100.0, 0)], "n2": [(50.0, 1)]}
        path = str(tmp_path / "h.vcd")
        write_vcd(path, history)
        with open(path) as handle:
            parsed = parse_vcd(handle.read())
        assert parsed.group.wave("n2").changes == [(50.0, 1)]

    def test_unsupported_timescale_rejected(self, tmp_path):
        with pytest.raises(ReproError, match="timescale"):
            write_vcd(str(tmp_path / "x.vcd"), WaveGroup(), timescale="2ps")

    def test_unknown_order_name_rejected(self, tmp_path):
        with pytest.raises(ReproError, match="unknown signal"):
            write_vcd(str(tmp_path / "x.vcd"), WaveGroup(), order=["ghost"])

    def test_whitespace_name_rejected(self, tmp_path):
        group = WaveGroup()
        group.wave("bad name").add(0.0, 1)
        with pytest.raises(ReproError, match="whitespace"):
            write_vcd(str(tmp_path / "x.vcd"), group)

    def test_timescale_scaling(self, tmp_path):
        group = WaveGroup()
        group.wave("a").add(3000.0, 1)  # 3000 ps = 3 units at 1ns
        path = str(tmp_path / "ns.vcd")
        write_vcd(path, group, timescale="1ns")
        with open(path) as handle:
            text = handle.read()
        assert "#3" in text
        parsed = parse_vcd(text)
        assert parsed.group.wave("a").changes == [(3000.0, 1)]

    def test_dump_vcd_on_desync_result(self, tmp_path):
        result = desynchronize(generate("pipe4x1"))
        path = str(tmp_path / "fabric.vcd")
        assert result.dump_vcd(path, rounds=4) == path
        with open(path) as handle:
            parsed = parse_vcd(handle.read())
        # The fabric's local latch clocks are in the dump and they tick.
        clocks = [name for name in parsed.group.waves
                  if name.startswith("lt:")]
        assert clocks
        assert any(parsed.group.wave(name).changes for name in clocks)


class TestHandshakeProbe:
    def test_probe_collects_fabric_metrics(self):
        result = desynchronize(generate("pipe4x1"))
        registry = MetricsRegistry()
        snapshot = probe_handshakes(result, rounds=6, registry=registry)
        assert snapshot["handshake.requests"]["value"] > 0
        assert snapshot["handshake.captures"]["value"] > 0
        assert snapshot["handshake.latency_ps"]["count"] > 0
        assert snapshot["handshake.latency_ps"]["min"] >= 0
        in_flight = [name for name in snapshot
                     if name.startswith("handshake.tokens_in_flight.")]
        assert in_flight
        # The probe writes into the passed registry, not the global one.
        assert "handshake.requests" in registry

    def test_record_nets_exist_in_fabric(self):
        result = desynchronize(generate("pipe4x1"))
        probe = HandshakeProbe(result.clustering, result.desync_netlist)
        assert probe.record_nets
        assert all(name in result.desync_netlist.nets
                   for name in probe.record_nets)


class TestDifferentialDumps:
    def test_mismatch_dumps_vcd_and_report_lists_it(self, tmp_path):
        from tests.differential import run_differential

        netlist = generate("pipe4x1")

        def broken(net, stimulus):
            from tests.differential import RUNNERS
            run = RUNNERS["event"](net, stimulus)
            for stream in run.captures.values():
                if stream:
                    stream[-1] = 0 if stream[-1] else 1
                    break
            return run

        report = run_differential(netlist, cycles=4,
                                  backends=("event", "broken"),
                                  runners={"broken": broken},
                                  minimize=False,
                                  dump_dir=str(tmp_path))
        assert not report.ok
        assert report.dumps
        for path in report.dumps:
            assert os.path.exists(path)
        vcds = [path for path in report.dumps if path.endswith(".vcd")]
        assert vcds
        with open(vcds[0]) as handle:
            parsed = parse_vcd(handle.read())
        assert parsed.group.waves
        assert any(f"dumped: {path}" in report.describe()
                   for path in report.dumps)

    def test_clean_run_dumps_nothing(self, tmp_path):
        from tests.differential import run_differential

        report = run_differential(generate("pipe4x1"), cycles=4,
                                  dump_dir=str(tmp_path))
        assert report.ok and not report.dumps
        assert not os.listdir(str(tmp_path))


class TestWorkerTraceHandoff:
    """The disarm/ingest pair that carries spans across sweep shards."""

    def test_disarm_forgets_everything(self, tmp_path):
        tracer = Tracer()
        tracer.start(str(tmp_path / "parent.json"))
        with tracer.span("inherited"):
            pass
        tracer.disarm()
        assert not tracer.enabled
        assert tracer.path is None
        assert tracer.events() == []
        # Nothing was written: the worker must not clobber the parent's
        # armed output file.
        assert not (tmp_path / "parent.json").exists()

    def test_ingest_relabels_pid_per_shard(self):
        parent, worker = Tracer(), Tracer()
        parent.start()
        worker.start()
        with worker.span("cell", config="fir8"):
            pass
        shipped = worker.events()
        assert parent.ingest(shipped, pid=7) == len(shipped)
        merged = [e for e in parent.events() if e["name"] == "cell"]
        assert merged and all(e["pid"] == 7 for e in merged)
        # The worker's own record is untouched (pid stays local).
        assert all(e["pid"] == 1 for e in worker.events())

    def test_ingest_is_inert_while_disabled(self):
        parent = Tracer()
        assert parent.ingest([{"name": "x", "ph": "i"}], pid=2) == 0
        assert parent.events() == []


class TestNetlistFingerprint:
    """The structural fingerprint behind result-cache keys; the netlist
    memo is keyed by object, not by it."""

    def test_fingerprint_identifies_structure_not_name(self):
        from repro.corpus import fir_filter
        first = fir_filter(taps=5, name="one")
        second = fir_filter(taps=5, name="two")
        assert first.fingerprint() == second.fingerprint()
        assert first.fingerprint() != fir_filter(taps=6).fingerprint()

    def test_fingerprint_tracks_mutation(self):
        from repro.corpus import fir_filter
        netlist = fir_filter(taps=5)
        before = netlist.fingerprint()
        netlist.add_gate("INV", [netlist.net("din")], name="extra")
        assert netlist.fingerprint() != before

    def test_memo_stays_per_netlist(self):
        # Structurally identical netlists do not share memoized values.
        from repro.corpus import fir_filter
        one = fir_filter(taps=5).memo("artifact", lambda: "a")
        two = fir_filter(taps=5).memo("artifact", lambda: "b")
        assert (one, two) == ("a", "b")
