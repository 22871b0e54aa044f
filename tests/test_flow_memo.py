"""The netlist analyses that every flow run on one netlist shares.

Latch conversion, static timing, the register graph and structural
validation depend only on the synchronous netlist, so they are memoized
on it (:meth:`repro.netlist.core.Netlist.memo`): the eight variants the
sweep builds per config compute each once, a mutation of the netlist
drops them, and no run may alter what the others read.
"""

from collections import Counter
from dataclasses import replace

import pytest

from repro.corpus import generate
from repro.desync import clustering, flow, pipeline
from repro.desync.clustering import cluster_registers, register_level_edges
from repro.desync.latchify import latchify
from repro.desync.pipeline import (
    AUTO_SYNC_BANKS,
    auto_sync_banks,
    default_variants,
    run_pipeline,
)
from repro.netlist import Netlist, iter_register_banks
from repro.timing import sta
from repro.utils.errors import NetlistError

CONFIG = "pipe4x4"


def _build_variants(netlist: Netlist) -> list:
    """Every stock variant's pipeline on ``netlist``, as the sweep
    builds them (the sync island chosen per config)."""
    contexts = []
    for variant in default_variants():
        options = replace(variant.options)
        if variant.sync_banks == AUTO_SYNC_BANKS:
            options.sync_banks = auto_sync_banks(netlist)
        contexts.append(run_pipeline(netlist, options,
                                     pipeline=variant.pipeline))
    return contexts


@pytest.fixture
def calls(monkeypatch):
    """Count the computations behind each memoized analysis."""
    counts: Counter = Counter()

    def counting(module, name, key):
        original = getattr(module, name)

        def wrapper(netlist, *args, **kwargs):
            counts[key(netlist, *args, **kwargs)] += 1
            return original(netlist, *args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    counting(pipeline, "latchify", lambda netlist: "latchify")
    counting(sta, "_analyze",
             lambda netlist, banks, setup, skew: ("sta", netlist.name,
                                                  setup, skew))
    counting(clustering, "_register_level_edges",
             lambda netlist: "register_edges")
    counting(Netlist, "_check_structure",
             lambda netlist: ("validate", netlist.name))
    return counts


def test_variants_share_each_analysis(calls):
    netlist = generate(CONFIG)
    contexts = _build_variants(netlist)
    assert len(contexts) == 8
    assert calls["latchify"] == 1
    assert calls["register_edges"] == 1
    sta_runs = {key: n for key, n in calls.items() if key[0] == "sta"}
    # One analysis of the sync netlist (matched delays) and one of the
    # latch netlist (the baselines' per-latch models), each run once.
    assert sorted(key[1] for key in sta_runs) == sorted(
        [netlist.name, contexts[0].latched.name])
    assert set(sta_runs.values()) == {1}
    assert calls[("validate", netlist.name)] == 1
    assert len({id(ctx.latched) for ctx in contexts}) == 1
    assert len({id(ctx.timing) for ctx in contexts}) == 1


def test_shared_artifacts_are_not_mutated():
    netlist = generate(CONFIG)
    contexts = _build_variants(netlist)
    latched = contexts[0].latched
    fresh_latched = latchify(generate(CONFIG))
    for ctx in contexts:
        assert ctx.latched is latched
    # Drop every cached query first so a direct (uninvalidated) edit
    # would show in the recomputed fingerprint.
    latched.invalidate_query_caches()
    assert latched.fingerprint() == fresh_latched.fingerprint()
    for subject in (netlist, latched):
        fresh = sta._analyze(subject, dict(iter_register_banks(subject)),
                             sta.DEFAULT_SETUP, sta.DEFAULT_SKEW)
        shared = sta.analyze(subject)
        assert shared.max_delay == fresh.max_delay
        assert shared.min_delay == fresh.min_delay
        assert shared.clk_to_q == fresh.clk_to_q
    banks, edges = register_level_edges(netlist)
    fresh_banks, fresh_edges = clustering._register_level_edges(
        generate(CONFIG))
    assert edges == fresh_edges
    assert {name: [inst.name for inst in insts]
            for name, insts in banks.items()} == \
        {name: [inst.name for inst in insts]
         for name, insts in fresh_banks.items()}


def test_mutation_recomputes(calls):
    netlist = generate(CONFIG)
    first = run_pipeline(netlist)
    data_input = next(port for port in netlist.inputs
                      if port != netlist.clock)
    netlist.add_gate("INV", [data_input], name="extra_inv")
    second = run_pipeline(netlist)
    assert calls["latchify"] == 2
    assert calls["register_edges"] == 2
    assert calls[("sta", netlist.name, sta.DEFAULT_SETUP,
                  sta.DEFAULT_SKEW)] == 2
    assert calls[("validate", netlist.name)] == 2
    assert second.latched is not first.latched
    assert "extra_inv" in second.latched.instances
    assert "extra_inv" not in first.latched.instances


def test_port_declaration_drops_the_timing_memo():
    netlist = generate(CONFIG)
    before = sta.analyze(netlist)
    internal = next(net for net in netlist.nets.values()
                    if net.driver is not None and not net.is_output_port
                    and net.driver[0].is_combinational)
    netlist.add_output(internal.name)
    after = sta.analyze(netlist)
    assert after is not before
    assert after.max_delay != before.max_delay


def test_register_edges_are_immutable():
    netlist = generate(CONFIG)
    _, edges = register_level_edges(netlist)
    with pytest.raises(AttributeError):
        edges.add(("a", "b"))
    result = cluster_registers(netlist)
    assert result is cluster_registers(netlist)
    with pytest.raises(AttributeError):
        result.register_edges.add(("a", "b"))
    with pytest.raises(AttributeError):
        result.edges.add(("a", "b"))


def test_latch_analysis_is_shared_by_the_baselines():
    netlist = generate(CONFIG)
    latched = run_pipeline(netlist).latched
    first = flow.latch_analysis(latched)
    second = flow.latch_analysis(latched)
    assert all(a is b for a, b in zip(first, second))
    with pytest.raises(AttributeError):
        first[1].add(("a", "b"))


class TestMemo:
    def test_none_value_is_computed_once(self):
        netlist = Netlist("memo")
        computed = []
        for _ in range(3):
            assert netlist.memo(
                "nothing", lambda: computed.append(1)) is None
        assert computed == [1]

    def test_failed_validation_is_not_cached(self):
        netlist = Netlist("broken")
        netlist.add_input("a")
        netlist.add("INV", name="inv", A="a")  # Y left unconnected
        for _ in range(2):
            with pytest.raises(NetlistError, match="unconnected"):
                netlist.validate()

    def test_direct_edit_needs_invalidation(self):
        netlist = generate(CONFIG)
        netlist.validate()
        net = next(net for net in netlist.nets.values()
                   if net.driver is not None and net.sinks)
        net.driver = None
        netlist.invalidate_query_caches()
        with pytest.raises(NetlistError, match="no driver"):
            netlist.validate()
