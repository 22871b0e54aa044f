"""The linear-time flow analyses against their reference oracles.

Cone-restricted STA, the one-pass register-fanin map and everything
built on it (register dataflow edges, latch-bank adjacency and its
self-feed error) must equal the reference walks in ``tests/oracles.py``
exactly: the same delays, in the same dict order.  The clustering
graph passes (SCC, the acyclicity check and its error text, greedy-cap
merging, the partial pass's convex closure) must equal the networkx
versions they replaced, on the whole registry and on random digraphs.
"""

from __future__ import annotations

import functools
import random

import pytest
from hypothesis import given, settings, strategies as st

import tests.test_property as property_tests
from repro.corpus import generate, names
from repro.desync import desynchronize
from repro.desync.clustering import (
    cluster_registers,
    clustering_from_partition,
    convex_closure,
    find_cycle,
    greedy_cap_partition,
    register_level_edges,
    strongly_connected_components,
)
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


def condensed_edges(partition: list[list[str]],
                    edges) -> frozenset[tuple[str, str]]:
    owner = {node: members[0] for members in partition for node in members}
    return frozenset((owner[p], owner[s]) for p, s in edges
                     if owner[p] != owner[s])


def partition_of(clustering) -> list[list[str]]:
    return [cluster.registers for cluster in clustering.clusters.values()]


def cyclic_error(nodes, edges) -> str | None:
    try:
        clustering_from_partition({node: [] for node in nodes}, edges,
                                  [[node] for node in nodes])
    except DesyncError as exc:
        return str(exc)
    return None


def assert_graph_passes_match(nodes, edges, islands) -> None:
    scc = strongly_connected_components(nodes, edges)
    assert scc == sorted(
        oracles.strongly_connected_components(nodes, edges))
    for cap in (1, 2, 3, 4):
        assert greedy_cap_partition(nodes, edges, cap) == \
            oracles.greedy_cap_partition(nodes, edges, cap)
    inter = {(p, s) for p, s in edges if p != s}
    assert find_cycle(edges) == oracles.find_cycle(edges)
    assert cyclic_error(nodes, edges) == \
        oracles.cyclic_clustering_error(inter)
    dag = condensed_edges(scc, edges)
    for island in islands:
        assert convex_closure(dag, island) == \
            oracles.convex_closure(nodes, dag, island)
        assert convex_closure(edges, island) == \
            oracles.convex_closure(nodes, edges, island)


@functools.lru_cache(maxsize=None)
def _register_graph(config: str):
    banks, edges = register_level_edges(generate(config))
    return sorted(banks), edges


@pytest.mark.parametrize("config", names("all"))
def test_registry_clusterings_match_networkx(config):
    netlist = generate(config)
    nodes, edges = _register_graph(config)
    scc = sorted(oracles.strongly_connected_components(nodes, edges))
    expected = {("scc", None): scc, ("single", None): [nodes]}
    for cap in (2, 4):
        expected["greedy-cap", cap] = \
            oracles.greedy_cap_partition(nodes, edges, cap)
    for (strategy, cap), partition in expected.items():
        clustering = cluster_registers(netlist, strategy=strategy, cap=cap)
        assert partition_of(clustering) == partition, (strategy, cap)
        assert clustering.edges == condensed_edges(partition, edges)
    error = oracles.cyclic_clustering_error(
        condensed_edges([[node] for node in nodes], edges))
    try:
        clustering = cluster_registers(netlist, strategy="per-register")
    except DesyncError as exc:
        assert str(exc) == error
    else:
        assert error is None
        assert clustering.edges == {(p, s) for p, s in edges if p != s}
    rng = random.Random(config)
    domains = [members[0] for members in scc]
    islands = [set(rng.sample(domains, min(len(domains), size)))
               for size in (1, 2, 3)]
    assert_graph_passes_match(nodes, edges, islands)


@st.composite
def digraphs(draw):
    """Random digraphs: random edges (self-loops allowed, so some nodes
    stay isolated) plus up to three planted cycles that may overlap."""
    size = draw(st.integers(1, 9))
    nodes = [f"n{i}" for i in range(size)]
    node = st.sampled_from(nodes)
    edges = set(draw(st.lists(st.tuples(node, node), max_size=2 * size)))
    for cycle in draw(st.lists(st.lists(node, min_size=1, unique=True),
                               max_size=3)):
        edges.update(zip(cycle, cycle[1:] + cycle[:1]))
    islands = draw(st.lists(st.sets(node, min_size=1), min_size=1,
                            max_size=3))
    return nodes, frozenset(edges), islands


@given(digraphs())
@settings(max_examples=300, deadline=None)
def test_graph_passes_match_networkx_on_random_digraphs(graph):
    assert_graph_passes_match(*graph)
