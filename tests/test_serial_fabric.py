"""Serial-fabric regression tests: wide-join token retirement and the
environment source domain.

The serial acknowledge discipline went through two broken designs before
the current fired-latch one (see ``repro.desync.network``'s module
docstring); both failed on *wide joins* — one consumer fed by many
producers — by re-arming a producer twice off a single consumer capture.
These tests pin the correct retirement ordering directly on the built
fabric, and a mutation test reintroduces the old (level-raced) arming to
prove ``check_flow_equivalence`` localizes the resulting torn capture to
the join consumer.

The environment source domain is the serial fabric's answer to
input-fed designs whose domains share no fabric edge: without it they
drift apart and no single input wire can serve both (first seen on the
random-netlist corpus).
"""

import pytest

from repro.corpus import generate
from repro.desync import DesyncOptions, HandshakeMode, desynchronize
from repro.desync.network import ENV_BANK
from repro.equiv import check_flow_equivalence, check_flow_equivalence_batch
from repro.sim.simulator import EventSimulator

WIDE_JOIN = "fir10"  # 10 producers -> one join consumer ("acc"),
#                      unbalanced 10-leaf C-tree: tap9's token rides up
#                      to the root, the shape that broke both old designs


def _join_fabric(mode):
    result = desynchronize(generate(WIDE_JOIN), DesyncOptions(mode=mode))
    netlist = result.desync_netlist
    tokens = sorted(name for name in netlist.nets
                    if name.startswith("tok:tap") and name.endswith(">acc"))
    assert len(tokens) == 10
    return result, netlist, tokens


class TestWideJoinRetirement:
    @pytest.mark.parametrize("mode", [HandshakeMode.SERIAL,
                                      HandshakeMode.OVERLAP])
    def test_tokens_retire_once_per_consumer_capture(self, mode):
        result, netlist, tokens = _join_fabric(mode)
        sim = EventSimulator(netlist, initial_inputs={"din": 1},
                             record=tokens + ["lt:acc"])
        sim.run(40_000)
        consumer_pulses = sum(1 for _, value in sim.history["lt:acc"]
                              if value == 1)
        assert consumer_pulses >= 4  # the fabric is alive
        for token in tokens:
            retirements = sum(1 for _, value in sim.history[token]
                              if value == 0)
            # Every producer's token is consumed exactly once per join
            # capture (the overlap protocol's pacing slack allows one
            # in-flight round).  The broken serial designs double-fired
            # the leftover leaf, putting it 2+ rounds ahead.
            assert abs(retirements - consumer_pulses) <= 1, (
                token, retirements, consumer_pulses)

    def test_serial_producers_launch_in_lockstep_with_join(self):
        result, netlist, _ = _join_fabric(HandshakeMode.SERIAL)
        clocks = [f"lt:tap{i}" for i in range(10)] + ["lt:acc"]
        sim = EventSimulator(netlist, initial_inputs={"din": 1},
                             record=clocks)
        sim.run(40_000)
        pulses = {clock: sum(1 for _, value in sim.history[clock]
                             if value == 1) for clock in clocks}
        # Strict serial alternation: every producer fires exactly as
        # often as the join consumer (within the final in-flight round).
        join = pulses["lt:acc"]
        assert join >= 4
        for clock, count in pulses.items():
            assert abs(count - join) <= 1, (clock, count, join)

    def test_old_retirement_order_diverges_at_the_join(self):
        """Reintroduce the pre-fix arming (S = tok OR NOT lt:consumer)
        on the leftover-leaf edge; the flow-equivalence checker must
        localize the torn capture to the join register."""
        result, netlist, _ = _join_fabric(HandshakeMode.SERIAL)
        set_gate = netlist.instances["ack:tap9>acc/set"]
        fired = set_gate.pins["B"]
        assert fired.name == "fired:tap9>acc"
        fired.sinks.remove((set_gate, "B"))
        inverted = netlist.add_gate("INV", [netlist.net("lt:acc")],
                                    name="mut:acc/ltinv")
        set_gate.pins["B"] = inverted
        inverted.sinks.append((set_gate, "B"))
        netlist.invalidate_query_caches()  # direct structural edit

        stimulus = [{"din": cycle % 2} for cycle in range(14)]
        report = check_flow_equivalence(result, cycles=14,
                                        inputs_per_cycle=stimulus)
        assert not report.equivalent
        first = report.divergences[0]
        assert first.register == "acc/b"
        assert first.cycle == 10


class TestEnvironmentDomain:
    def test_serial_input_fed_banks_get_env_edges(self):
        result = desynchronize(generate("rnd8s3"),
                               DesyncOptions(mode=HandshakeMode.SERIAL))
        network = result.network
        env_edges = [edge for edge in network.delay_plans
                     if edge[0] == ENV_BANK]
        assert env_edges, "input-fed design must grow environment edges"
        assert ENV_BANK in network.controllers
        netlist = result.desync_netlist
        for _, bank in env_edges:
            assert f"tok:{ENV_BANK}>{bank}/r" in netlist.instances
            assert f"ack:{ENV_BANK}>{bank}/fired" in netlist.instances

    def test_env_controller_is_self_timed_not_a_ring(self):
        # A free-running ring races the ack tree's all-low wave once the
        # tree is deeper than the ring (double launch); the environment
        # controller must instead request off its own acknowledge root.
        result = desynchronize(generate("rnd8s3"),
                               DesyncOptions(mode=HandshakeMode.SERIAL))
        netlist = result.desync_netlist
        assert f"ctl:{ENV_BANK}/selfbuf0" not in netlist.instances
        root = netlist.instances[f"ctl:{ENV_BANK}/root"]
        assert root.pins["R"] is root.pins["A"]

    def test_overlap_mode_builds_no_env_domain(self):
        result = desynchronize(generate("rnd8s3"),
                               DesyncOptions(mode=HandshakeMode.OVERLAP))
        assert ENV_BANK not in result.network.controllers
        assert not any(edge[0] == ENV_BANK
                       for edge in result.network.delay_plans)

    @pytest.mark.parametrize("config", ["rnd8s3", "rnd16s1", "rnd32s10"])
    def test_multi_domain_input_fed_designs_flow_equivalent(self, config):
        # The configs that diverged before the environment domain: their
        # inputs fan out to several controller domains that share no
        # fabric edge, so only environment tokens keep them in step.
        result = desynchronize(generate(config),
                               DesyncOptions(mode=HandshakeMode.SERIAL))
        reports = check_flow_equivalence_batch(result, seeds=(0, 1, 2),
                                               cycles=10)
        for seed, report in reports.items():
            assert report.equivalent, (seed, report.divergences[:3])

    def test_registers_only_design_has_no_env_domain(self):
        # No data inputs -> no environment to synchronize with.
        result = desynchronize(generate("counter6"),
                               DesyncOptions(mode=HandshakeMode.SERIAL))
        assert ENV_BANK not in result.network.controllers
