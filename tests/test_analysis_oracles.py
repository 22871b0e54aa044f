"""The linear-time flow analyses against their whole-netlist oracles.

Cone-restricted STA, the one-pass register-fanin map and everything
built on it (register dataflow edges, latch-bank adjacency and its
self-feed error) must equal the reference walks in ``tests/oracles.py``
exactly: the same delays, in the same dict order.
"""

from __future__ import annotations

import functools

import pytest
from hypothesis import given, settings, strategies as st

import tests.test_property as property_tests
from repro.corpus import generate, names
from repro.desync import desynchronize
from repro.desync.clustering import register_level_edges
from repro.desync.latchify import latchify
from repro.netlist import Netlist
from repro.netlist.core import register_fanin
from repro.stg.desync_model import extract_banks, latch_adjacency
from repro.timing import sta
from repro.utils.errors import DesyncError, NetlistError
from tests import oracles

#: Every core config, plus the multi-bank scale configs where the fanout
#: cones are a small share of the netlist.
CONFIGS = names("core") + ["dlx", "pipe20x4"]


@functools.lru_cache(maxsize=None)
def _netlists(config: str) -> tuple[Netlist, Netlist]:
    sync = generate(config)
    return sync, latchify(sync)


def assert_same_timing(netlist: Netlist) -> None:
    setup, skew = 120.0, 80.0
    fast = sta.analyze(netlist, setup=setup, skew=skew)
    slow = oracles.analyze(netlist, setup, skew)
    assert list(fast.max_delay.items()) == list(slow.max_delay.items())
    assert list(fast.min_delay.items()) == list(slow.min_delay.items())
    assert (fast.clk_to_q, fast.setup, fast.skew) == \
        (slow.clk_to_q, slow.setup, slow.skew)


def adjacency_or_error(netlist: Netlist, adjacency) -> object:
    banks = extract_banks(netlist)
    try:
        return adjacency(banks)
    except DesyncError as exc:
        return ("error", str(exc))


def assert_same_structure(sync: Netlist, latched: Netlist) -> None:
    for netlist in (sync, latched):
        assert register_level_edges(netlist)[1] == \
            oracles.register_level_edges(netlist)
    assert adjacency_or_error(
        latched, functools.partial(latch_adjacency, latched)) == \
        adjacency_or_error(latched, oracles.latch_adjacency)


@pytest.mark.parametrize("config", CONFIGS)
@pytest.mark.parametrize("stage", ["sync", "latched"])
def test_sta_matches_the_full_scan(config, stage):
    sync, latched = _netlists(config)
    assert_same_timing(sync if stage == "sync" else latched)


@pytest.mark.parametrize("config", CONFIGS)
def test_register_structure_matches_the_dfs(config):
    assert_same_structure(*_netlists(config))


@given(property_tests.random_sync_circuits())
@settings(max_examples=25, deadline=None)
def test_random_circuits_match_the_oracles(netlist):
    latched = latchify(netlist)
    for subject in (netlist, latched):
        assert_same_timing(subject)
    assert_same_structure(netlist, latched)


@st.composite
def random_latch_netlists(draw):
    """Latches of random parity in random banks over random 2-input
    logic; about half the draws let a bank feed itself."""
    n_latches = draw(st.integers(2, 6))
    banks = [draw(st.integers(0, 2)) for _ in range(n_latches)]
    self_feed = draw(st.booleans())
    netlist = Netlist("latches")
    enable = netlist.add_input("clk", clock=True)
    data_in = netlist.add_input("din")
    outputs = [netlist.net(f"q{i}") for i in range(n_latches)]
    parity = {}
    for i, bank in enumerate(banks):
        cell = parity.setdefault(bank, draw(st.sampled_from(
            ["LATCH_H", "LATCH_L"])))
        signals = [data_in] + [net for net, other in zip(outputs, banks)
                               if self_feed or other != bank]
        a = draw(st.sampled_from(signals))
        b = draw(st.sampled_from(signals))
        if a is b:
            data = netlist.add_gate("INV", [a], name=f"g{i}")
        else:
            data = netlist.add_gate(draw(st.sampled_from(
                ["AND2", "XOR2", "NOR2"])), [a, b], name=f"g{i}")
        netlist.add(cell, name=f"b{bank}/l{i}", D=data, EN=enable,
                    Q=outputs[i])
    netlist.add_output(outputs[-1].name)
    netlist.validate()
    return netlist


@given(random_latch_netlists())
@settings(max_examples=40, deadline=None)
def test_latch_adjacency_and_self_feed_error_match(netlist):
    assert adjacency_or_error(
        netlist, functools.partial(latch_adjacency, netlist)) == \
        adjacency_or_error(netlist, oracles.latch_adjacency)
    assert_same_timing(netlist)


def test_self_feeding_bank_raises_the_oracle_error():
    netlist = Netlist("selffeed")
    enable = netlist.add_input("clk", clock=True)
    netlist.add_gate("INV", ["q"], output="d", name="g")
    netlist.add("LATCH_H", name="loop/l0", D="d", EN=enable, Q="q")
    netlist.add_output("q")
    netlist.validate()
    expected = adjacency_or_error(netlist, oracles.latch_adjacency)
    assert expected[0] == "error"
    assert "latch bank loop feeds itself" in expected[1]
    assert adjacency_or_error(
        netlist, functools.partial(latch_adjacency, netlist)) == expected


def test_register_fanin_rejects_handshake_cells():
    result = desynchronize(generate("pipe4x1"))
    with pytest.raises(NetlistError, match="handshake cell"):
        register_fanin(result.desync_netlist)


def test_register_fanin_raises_the_topological_cycle_error():
    netlist = Netlist("loop")
    clk = netlist.add_input("clk", clock=True)
    netlist.add_gate("INV", ["b"], output="a", name="g0")
    netlist.add_gate("INV", ["a"], output="b", name="g1")
    netlist.add("DFF", name="r/b", D="a", CK=clk, Q="q")
    with pytest.raises(NetlistError) as topo:
        netlist.topo_order_comb_only()
    with pytest.raises(NetlistError) as fanin:
        register_fanin(netlist)
    assert str(fanin.value) == str(topo.value)


def test_register_fanin_is_memoized_until_a_mutation():
    sync = generate("pipe4x1")
    first = register_fanin(sync)
    assert register_fanin(sync) is first
    data_input = next(port for port in sync.inputs if port != sync.clock)
    sync.add_gate("INV", [data_input], name="extra_inv")
    assert register_fanin(sync) is not first
