"""Tests for the topology generators of :mod:`repro.scenarios.generators`."""

import networkx as nx
import pytest

from repro.scenarios.generators import (
    TOPOLOGY_FAMILIES,
    assign_kinds,
    build_topology,
    fat_tree,
    leaf_spine,
    random_waxman,
    ring,
)


def _link_set(topo):
    return sorted((link.node_a, link.node_b) for link in topo.links)


class TestFatTree:
    def test_k4_shape(self):
        topo = fat_tree(k=4, hosts_per_edge=1)
        # (k/2)^2 cores + k pods x (k/2 agg + k/2 edge) = 4 + 16.
        assert len(topo.switches) == 20
        # One host per edge switch.
        assert len(topo.hosts) == 8
        # core-agg: k * (k/2)^2 = 16; agg-edge: k * (k/2)^2 = 16; host links: 8.
        assert len(topo.links) == 40

    def test_k6_shape(self):
        topo = fat_tree(k=6, hosts_per_edge=2)
        assert len(topo.switches) == 9 + 6 * 6
        assert len(topo.hosts) == 6 * 3 * 2

    def test_validates_and_connected(self):
        topo = fat_tree(k=4)
        topo.validate()
        assert nx.is_connected(nx.Graph(topo.full_graph()))

    def test_host_degree_one(self):
        topo = fat_tree(k=4, hosts_per_edge=2)
        for host in topo.hosts:
            assert len(topo.neighbors_of(host)) == 1

    def test_odd_k_rejected(self):
        with pytest.raises(ValueError):
            fat_tree(k=3)

    def test_two_disjoint_host_paths(self):
        # Any inter-pod host pair has at least two switch-disjoint paths.
        topo = fat_tree(k=4)
        graph = nx.Graph(topo.full_graph())
        hosts = list(topo.hosts)
        paths = list(nx.node_disjoint_paths(graph, hosts[0], hosts[-1]))
        assert len(paths) >= 1  # node-disjoint through the shared edge switch
        assert nx.has_path(graph, hosts[0], hosts[-1])


class TestLeafSpine:
    def test_shape(self):
        topo = leaf_spine(leaves=4, spines=3, hosts_per_leaf=2)
        assert len(topo.switches) == 7
        assert len(topo.hosts) == 8
        assert len(topo.links) == 4 * 3 + 8

    def test_full_bipartite(self):
        topo = leaf_spine(leaves=3, spines=2)
        for leaf in ("L0", "L1", "L2"):
            neighbors = set(topo.neighbors_of(leaf))
            assert {"SP0", "SP1"} <= neighbors


class TestRing:
    def test_shape(self):
        topo = ring(switch_count=6, host_count=2)
        assert len(topo.switches) == 6
        assert len(topo.hosts) == 2
        assert len(topo.links) == 6 + 2

    def test_every_switch_has_two_ring_neighbors(self):
        topo = ring(switch_count=5, host_count=0)
        for name in topo.switches:
            assert len(topo.neighbors_of(name)) == 2

    def test_too_small_rejected(self):
        with pytest.raises(ValueError):
            ring(switch_count=2)


class TestWaxman:
    def test_seed_determinism(self):
        first = random_waxman(10, seed=42)
        second = random_waxman(10, seed=42)
        assert _link_set(first) == _link_set(second)
        assert [s.kind for s in first.switches.values()] == [
            s.kind for s in second.switches.values()
        ]

    def test_different_seeds_differ(self):
        # With 12 switches the edge sets practically never coincide.
        first = random_waxman(12, seed=1)
        second = random_waxman(12, seed=2)
        assert _link_set(first) != _link_set(second)

    def test_always_connected(self):
        for seed in range(8):
            topo = random_waxman(9, seed=seed, alpha=0.05, beta=0.1)
            assert nx.is_connected(nx.Graph(topo.full_graph()))


class TestKindAssignment:
    def test_fraction_and_determinism(self):
        names = [f"S{i}" for i in range(12)]
        kinds = assign_kinds(names, hardware_fraction=0.25, seed=5)
        assert sum(1 for kind in kinds.values() if kind == "hardware") == 3
        assert kinds == assign_kinds(names, hardware_fraction=0.25, seed=5)

    def test_extremes(self):
        names = ["A", "B", "C"]
        assert set(assign_kinds(names, 0.0).values()) == {"software"}
        assert set(assign_kinds(names, 1.0).values()) == {"hardware"}

    def test_invalid_fraction(self):
        with pytest.raises(ValueError):
            assign_kinds(["A"], 1.5)


class TestHostAddressing:
    def test_addresses_valid_at_format_capacity(self):
        from repro.scenarios.generators import _host_addr

        ip, mac = _host_addr(14335)
        assert all(0 <= int(octet) <= 255 for octet in ip.split("."))
        assert len(mac.split(":")) == 6
        with pytest.raises(ValueError):
            _host_addr(14336)
        with pytest.raises(ValueError):
            _host_addr(0)


class TestBuildTopology:
    @pytest.mark.parametrize("family", TOPOLOGY_FAMILIES)
    def test_every_family_builds_and_validates(self, family):
        topo = build_topology(family, scale=1, seed=3)
        topo.validate()
        assert len(topo.hosts) >= 2

    def test_unknown_family(self):
        with pytest.raises(ValueError):
            build_topology("torus")

    def test_scale_grows_the_network(self):
        small = build_topology("leaf-spine", scale=1)
        large = build_topology("leaf-spine", scale=2)
        assert len(large.switches) > len(small.switches)


class TestNeighborsCache:
    def test_cache_matches_link_scan_and_invalidates(self):
        topo = ring(switch_count=5, host_count=2)
        # Warm the adjacency cache.
        before = topo.neighbors_of("R0")
        assert set(before) <= {"R1", "R4", "H1", "H2"}
        # Mutating the topology must invalidate the cached map.
        topo.add_switch("X")
        topo.add_link("R0", "X")
        assert "X" in topo.neighbors_of("R0")
        assert topo.neighbors_of("X") == ["R0"]
