"""Differential-harness tests: three execution models, one behaviour.

The corpus-wide sweep here is the randomized cross-backend verification
the CI ``differential`` job runs; the fault-injection tests exercise
the harness's own failure path (mismatch extraction and stimulus-prefix
minimization) by plugging a deliberately corrupted runner in as an
extra backend.
"""

import pytest

from repro.corpus import generate, names
from repro.testing import DEFAULT_SEED, data_inputs, random_stimulus
from repro.utils.errors import DifferentialError

from tests.circuits import lfsr3, mixed_feedback
from tests.differential import (
    RUNNERS,
    differential_corpus,
    minimize_prefix,
    run_differential,
)


class TestStimulus:
    def test_deterministic(self):
        netlist = generate("pipe8x2")
        assert random_stimulus(netlist, 10, seed=3) == \
            random_stimulus(netlist, 10, seed=3)
        assert random_stimulus(netlist, 10, seed=3) != \
            random_stimulus(netlist, 10, seed=4)

    def test_covers_every_data_input_every_cycle(self):
        netlist = generate("mult4")
        ports = set(data_inputs(netlist))
        assert ports and netlist.clock not in ports
        for vector in random_stimulus(netlist, 6):
            assert set(vector) == ports
            assert all(value in (0, 1) for value in vector.values())

    def test_registers_only_circuit(self):
        assert random_stimulus(generate("lfsr8"), 4) == [{}] * 4


class TestCorpusAgreement:
    @pytest.mark.parametrize("config", names())
    def test_backends_agree(self, config):
        report = run_differential(generate(config), cycles=16,
                                  seed=DEFAULT_SEED)
        assert report.ok, report.describe()
        report.assert_ok()

    def test_sweep_helper(self):
        reports = differential_corpus(configs=["lfsr8", "mult2"], cycles=8)
        assert set(reports) == {"lfsr8", "mult2"}
        assert all(report.ok for report in reports.values())

    def test_hand_coded_feedback_circuit(self):
        report = run_differential(mixed_feedback(), cycles=20)
        assert report.ok, report.describe()


def _corrupting(base, register_index=0, cycle=5):
    """A runner wrapping ``base`` that flips one captured bit."""
    def run(netlist, stimulus):
        result = RUNNERS[base](netlist, stimulus)
        register = sorted(result.captures)[register_index]
        stream = result.captures[register]
        if len(stream) > cycle:
            stream[cycle] ^= 1
        return result
    return run


class TestFaultInjection:
    def test_mismatch_located(self):
        report = run_differential(
            generate("crc5"), cycles=12,
            backends=("event", "bad"),
            runners={"bad": _corrupting("cycle", cycle=4)})
        assert not report.ok
        first = report.mismatches[0]
        assert first.kind == "captures"
        assert first.register == sorted(
            inst.name for inst in generate("crc5").dff_instances())[0]
        assert first.cycle == 4
        assert (first.reference, first.backend) == ("event", "bad")
        with pytest.raises(DifferentialError, match="disagreement"):
            report.assert_ok()

    def test_minimized_to_first_divergent_prefix(self):
        # The corruption lands in capture 5, so 6 cycles is the
        # shortest stimulus that still exposes it.
        report = run_differential(
            lfsr3(), cycles=16,
            backends=("compiled", "bad"),
            runners={"bad": _corrupting("cycle", cycle=5)})
        assert not report.ok
        assert report.minimized_cycles == 6
        assert "minimal failing stimulus prefix: 6" in report.describe()

    def test_event_level_observables_compared(self):
        # Corrupting an event-engine run trips the exact event-level
        # comparison (net values/toggles/event count), not just the
        # register-level one.
        def noisy(netlist, stimulus):
            result = RUNNERS["compiled"](netlist, stimulus)
            result.n_events += 1
            return result
        report = run_differential(generate("lfsr8"), cycles=8,
                                  backends=("event", "noisy"),
                                  runners={"noisy": noisy},
                                  minimize=False)
        assert any(m.kind == "events" for m in report.mismatches)


class TestHarnessErrors:
    def test_unknown_backend(self):
        with pytest.raises(DifferentialError, match="unknown backend"):
            run_differential(lfsr3(), backends=("event", "verilator"))

    def test_needs_two_backends(self):
        with pytest.raises(DifferentialError, match=">= 2 backends"):
            run_differential(lfsr3(), backends=("event",))


class TestMinimizePrefix:
    def test_monotone_predicate(self):
        assert minimize_prefix(lambda n: n >= 7, 16) == 7
        assert minimize_prefix(lambda n: n >= 1, 16) == 1
        assert minimize_prefix(lambda n: n >= 16, 16) == 16

    def test_no_divergence(self):
        assert minimize_prefix(lambda n: False, 16) is None
        assert minimize_prefix(lambda n: True, 0) is None
