"""The path search and probe colouring of ``src/`` pick networkx's answer.

A path becomes rules, so it enters every outcome digest: on every tie the
port must choose what ``nx.shortest_path`` and ``nx.shortest_simple_paths``
chose, and the colouring must hand out the colours the networkx-graph
Welsh–Powell did.  Hypothesis draws topologies with string labels, parallel
links, isolated parts, avoided nodes and cut links; every registered
generator is then checked for every host pair.
"""

from itertools import islice

import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st

from nx_graphs import topology_graph, welsh_powell_coloring as nx_welsh_powell_coloring
from repro.controller.routing import NoPathError, shortest_path, shortest_simple_paths
from repro.net.topology import Topology
from repro.probing.coloring import welsh_powell_coloring
from repro.scenarios.generators import TOPOLOGY_FAMILIES, build_topology

#: How many of Yen's paths are compared per pair.
PATHS_COMPARED = 20

labels = st.text(alphabet="abcSH0129-", min_size=1, max_size=4)


@st.composite
def topologies(draw):
    """A topology of 1-12 nodes (some hosts), links drawn with repeats in
    either orientation, and a query: endpoints, avoided nodes, cut links."""
    names = draw(st.lists(labels, min_size=1, max_size=12, unique=True))
    topology = Topology("drawn")
    for name in names:
        if draw(st.booleans()) and len(topology.switches) > 0:
            topology.add_host(name, ip="10.0.0.1", mac="00:00:00:00:00:01")
        else:
            topology.add_switch(name)
    pairs = st.tuples(st.sampled_from(names), st.sampled_from(names)).filter(
        lambda pair: pair[0] != pair[1])
    links = draw(st.lists(pairs, max_size=24)) if len(names) > 1 else []
    for node_a, node_b in links:
        topology.add_link(node_a, node_b)
    source, target = draw(st.sampled_from(names)), draw(st.sampled_from(names))
    avoid = draw(st.lists(st.sampled_from(names), max_size=3))
    cut = draw(st.lists(st.sampled_from(links), max_size=3)) if links else []
    return topology, source, target, avoid, cut


def _nx_shortest_path(graph, source, target, avoid=(), cut=()):
    """What ``routing.shortest_path`` and ``shortest_path_avoiding_edge``
    did: prune a copy, then ``nx.shortest_path``; ``None`` for no path."""
    pruned = graph.copy()
    pruned.remove_nodes_from([node for node in avoid if node in pruned])
    pruned.remove_edges_from([edge for edge in cut if pruned.has_edge(*edge)])
    try:
        return nx.shortest_path(pruned, source, target)
    except (nx.NetworkXNoPath, nx.NodeNotFound):
        return None


def _our_shortest_path(adjacency, source, target, avoid=(), cut=()):
    try:
        return shortest_path(adjacency, source, target, avoid, cut)
    except NoPathError:
        return None


def _first_paths(search, graph, source, target):
    try:
        return list(islice(search(graph, source, target), PATHS_COMPARED))
    except (NoPathError, nx.NetworkXNoPath):
        return None


def _assert_same_paths(topology, graph, source, target):
    adjacency = topology.full_graph()
    assert (_our_shortest_path(adjacency, source, target)
            == _nx_shortest_path(graph, source, target))
    assert (_first_paths(shortest_simple_paths, adjacency, source, target)
            == _first_paths(nx.shortest_simple_paths, graph, source, target))


@given(topologies())
@settings(max_examples=300, deadline=None)
def test_paths_and_colouring_match_networkx(drawn):
    topology, source, target, avoid, cut = drawn
    graph = topology_graph(topology)
    _assert_same_paths(topology, graph, source, target)
    assert (_our_shortest_path(topology.full_graph(), source, target, avoid, cut)
            == _nx_shortest_path(graph, source, target, avoid, cut))
    assert (list(welsh_powell_coloring(topology.switch_graph()).items())
            == list(nx_welsh_powell_coloring(topology_graph(topology, switches_only=True)).items()))


@pytest.mark.parametrize("family", sorted(TOPOLOGY_FAMILIES))
def test_every_generator_routes_every_host_pair_as_networkx_did(family):
    topology = build_topology(family)
    graph = topology_graph(topology)
    for source in topology.hosts:
        for target in topology.hosts:
            _assert_same_paths(topology, graph, source, target)
    assert (list(welsh_powell_coloring(topology.switch_graph()).items())
            == list(nx_welsh_powell_coloring(topology_graph(topology, switches_only=True)).items()))
