"""Datacenter and WAN topology generators.

Every generator returns a validated :class:`~repro.net.topology.Topology`
whose switches carry a configurable mix of behaviour kinds — by default a
fraction of the switches are the paper's buggy ``hardware`` model
(HP 5406zl acknowledgment semantics) and the rest are well-behaved
``software`` switches, so that generated fabrics exhibit the same
untruthful-acknowledgment hazards as the paper's hand-built triangle.

Generators:

* :func:`fat_tree` — the classic k-ary fat-tree (k pods, (k/2)^2 cores).
* :func:`leaf_spine` — a two-tier leaf/spine fabric.
* :func:`ring` — a WAN-style ring, host pairs at opposite sides.
* :func:`random_waxman` — a seeded Waxman random graph, made connected.

:func:`build_topology` adapts a ``(name, scale)`` pair to concrete generator
arguments; it is what the scenario registry and campaign grids use, so that
"scale" is a single integer knob across all topology families.
"""

from __future__ import annotations

import math
import random
from functools import lru_cache
from typing import Dict, List, Sequence, Tuple

from repro.net.topology import (
    SWITCH_KINDS,
    Topology,
    connected_components,
    linear_topology,
    triangle_topology,
)

#: Default fraction of switches instantiated with the buggy hardware profile.
DEFAULT_HARDWARE_FRACTION = 1.0 / 3.0


def assign_kinds(
    switch_names: Sequence[str],
    hardware_fraction: float = DEFAULT_HARDWARE_FRACTION,
    seed: int = 0,
    hardware_kind: str = "hardware",
    default_kind: str = "software",
) -> Dict[str, str]:
    """Deterministically assign a kind to each switch.

    ``ceil(hardware_fraction * len(switch_names))`` switches get
    ``hardware_kind``; which ones is a seeded choice so the same
    ``(names, fraction, seed)`` always yields the same mix.
    """
    if not 0.0 <= hardware_fraction <= 1.0:
        raise ValueError("hardware_fraction must be within [0, 1]")
    for kind in (hardware_kind, default_kind):
        if kind not in SWITCH_KINDS:
            raise ValueError(f"unknown switch kind {kind!r}")
    names = list(switch_names)
    hardware_count = math.ceil(hardware_fraction * len(names)) if names else 0
    rng = random.Random(seed)
    hardware_names = set(rng.sample(names, hardware_count))
    return {
        name: hardware_kind if name in hardware_names else default_kind
        for name in names
    }


def _host_addr(index: int) -> Tuple[str, str]:
    """IP and MAC for the ``index``-th generated host (1-based).

    The second IP octet is ``200 + index // 256``, so the format tops out at
    index 14335 (octet 255); the bound keeps every emitted address valid.
    """
    if not 1 <= index <= 14335:
        raise ValueError("host index out of range")
    ip = f"10.{200 + index // 256}.{index % 256}.1"
    mac = f"02:00:00:00:{index // 256:02x}:{index % 256:02x}"
    return ip, mac


def _add_hosts(topo: Topology, attach_switches: Sequence[str],
               link_latency: float) -> None:
    """Attach one host per listed switch (switches may repeat)."""
    for index, switch in enumerate(attach_switches, start=1):
        ip, mac = _host_addr(index)
        name = f"H{index}"
        topo.add_host(name, ip=ip, mac=mac)
        topo.add_link(name, switch, latency=link_latency)


def fat_tree(
    k: int = 4,
    hosts_per_edge: int = 1,
    hardware_fraction: float = DEFAULT_HARDWARE_FRACTION,
    seed: int = 0,
    link_latency: float = 0.0001,
) -> Topology:
    """A k-ary fat-tree: (k/2)^2 cores, k pods of k/2 aggregation + k/2 edge.

    Core switch ``C{g}-{i}`` belongs to core group *g* and connects to the
    *g*-th aggregation switch of every pod; inside pod *p* every aggregation
    switch ``A{p}-{g}`` connects to every edge switch ``E{p}-{e}``.
    ``hosts_per_edge`` hosts hang off each edge switch.
    """
    if k < 2 or k % 2 != 0:
        raise ValueError("fat-tree k must be an even integer >= 2")
    if hosts_per_edge < 0:
        raise ValueError("hosts_per_edge must be >= 0")
    half = k // 2
    topo = Topology(f"fat-tree-{k}")

    core = [[f"C{group}-{index}" for index in range(half)] for group in range(half)]
    for group in core:
        for name in group:
            topo.add_switch(name)
    aggregation: List[List[str]] = []
    edge: List[List[str]] = []
    for pod in range(k):
        aggregation.append([f"A{pod}-{group}" for group in range(half)])
        edge.append([f"E{pod}-{index}" for index in range(half)])
        for name in aggregation[pod] + edge[pod]:
            topo.add_switch(name)

    for pod in range(k):
        for group in range(half):
            for core_name in core[group]:
                topo.add_link(core_name, aggregation[pod][group],
                              latency=link_latency)
        for agg_name in aggregation[pod]:
            for edge_name in edge[pod]:
                topo.add_link(agg_name, edge_name, latency=link_latency)

    attach = [name for pod in edge for name in pod for _ in range(hosts_per_edge)]
    _add_hosts(topo, attach, link_latency)
    _apply_kinds(topo, hardware_fraction, seed)
    topo.validate()
    return topo


def leaf_spine(
    leaves: int = 4,
    spines: int = 2,
    hosts_per_leaf: int = 1,
    hardware_fraction: float = DEFAULT_HARDWARE_FRACTION,
    seed: int = 0,
    link_latency: float = 0.0001,
) -> Topology:
    """A two-tier fabric: every leaf connects to every spine."""
    if leaves < 1 or spines < 1:
        raise ValueError("need at least one leaf and one spine")
    if hosts_per_leaf < 0:
        raise ValueError("hosts_per_leaf must be >= 0")
    topo = Topology(f"leaf-spine-{leaves}x{spines}")
    spine_names = [f"SP{index}" for index in range(spines)]
    leaf_names = [f"L{index}" for index in range(leaves)]
    for name in spine_names + leaf_names:
        topo.add_switch(name)
    for leaf in leaf_names:
        for spine in spine_names:
            topo.add_link(leaf, spine, latency=link_latency)
    attach = [leaf for leaf in leaf_names for _ in range(hosts_per_leaf)]
    _add_hosts(topo, attach, link_latency)
    _apply_kinds(topo, hardware_fraction, seed)
    topo.validate()
    return topo


def ring(
    switch_count: int = 6,
    host_count: int = 2,
    hardware_fraction: float = DEFAULT_HARDWARE_FRACTION,
    seed: int = 0,
    link_latency: float = 0.0001,
) -> Topology:
    """A WAN-style ring of switches with hosts spread evenly around it.

    A ring gives every host pair exactly two switch-disjoint routes, which is
    the minimal setting for both the migration and the link-failure
    scenarios.
    """
    if switch_count < 3:
        raise ValueError("a ring needs at least three switches")
    if not 0 <= host_count <= switch_count:
        raise ValueError("host_count must be within [0, switch_count]")
    topo = Topology(f"ring-{switch_count}")
    names = [f"R{index}" for index in range(switch_count)]
    for name in names:
        topo.add_switch(name)
    for index in range(switch_count):
        topo.add_link(names[index], names[(index + 1) % switch_count],
                      latency=link_latency)
    attach = [names[(index * switch_count) // host_count]
              for index in range(host_count)]
    _add_hosts(topo, attach, link_latency)
    _apply_kinds(topo, hardware_fraction, seed)
    topo.validate()
    return topo


def random_waxman(
    switch_count: int = 8,
    host_count: int = 2,
    alpha: float = 0.6,
    beta: float = 0.4,
    hardware_fraction: float = DEFAULT_HARDWARE_FRACTION,
    seed: int = 0,
    link_latency: float = 0.0001,
) -> Topology:
    """A seeded Waxman random graph, patched to be connected.

    Switches are placed uniformly in the unit square; a link between two
    switches exists with probability ``alpha * exp(-d / (beta * sqrt(2)))``
    where ``d`` is their Euclidean distance.  Any disconnected components are
    then joined through their closest node pairs, so :meth:`Topology.validate`
    always passes.  The same ``seed`` reproduces the same topology exactly.
    """
    if switch_count < 2:
        raise ValueError("need at least two switches")
    if not 0 <= host_count <= switch_count:
        raise ValueError("host_count must be within [0, switch_count]")
    rng = random.Random(seed)
    topo = Topology(f"waxman-{switch_count}-s{seed}")
    names = [f"W{index}" for index in range(switch_count)]
    positions = {}
    for name in names:
        topo.add_switch(name)
        positions[name] = (rng.random(), rng.random())

    max_distance = math.sqrt(2.0)
    edges = set()
    for i, name_a in enumerate(names):
        for name_b in names[i + 1:]:
            ax, ay = positions[name_a]
            bx, by = positions[name_b]
            distance = math.hypot(ax - bx, ay - by)
            if rng.random() < alpha * math.exp(-distance / (beta * max_distance)):
                edges.add((name_a, name_b))

    # Join components through their geometrically closest switch pairs.
    components = connected_components(names, edges)
    while len(components) > 1:
        best = None
        for name_a in components[0]:
            for name_b in components[1]:
                ax, ay = positions[name_a]
                bx, by = positions[name_b]
                distance = math.hypot(ax - bx, ay - by)
                if best is None or distance < best[0]:
                    best = (distance, name_a, name_b)
        edges.add((best[1], best[2]))
        components = connected_components(names, edges)

    for name_a, name_b in sorted(edges):
        topo.add_link(name_a, name_b, latency=link_latency)
    attach = rng.sample(names, host_count)
    _add_hosts(topo, attach, link_latency)
    _apply_kinds(topo, hardware_fraction, seed)
    topo.validate()
    return topo


def _apply_kinds(topo: Topology, hardware_fraction: float, seed: int) -> None:
    """Overwrite the kind of every switch with a seeded hardware/software mix."""
    kinds = assign_kinds(list(topo.switches), hardware_fraction, seed=seed)
    for name, kind in kinds.items():
        topo.switches[name].kind = kind


# ---------------------------------------------------------------------------
# Scale adapter used by scenarios and campaign grids
# ---------------------------------------------------------------------------

def build_topology(
    name: str,
    scale: int = 1,
    seed: int = 0,
    hardware_fraction: float = DEFAULT_HARDWARE_FRACTION,
) -> Topology:
    """Build a named topology family at an integer scale.

    ========== =================================================
    name       shape at scale *s*
    ========== =================================================
    triangle   the paper's Figure 1a triangle (scale ignored)
    linear     a chain of ``2 + s`` switches
    fat-tree   k-ary fat-tree with ``k = 2 * (s + 1)``
    leaf-spine ``2 + 2s`` leaves over ``1 + s`` spines
    ring       ``2 + 2s`` switches around the ring
    waxman     ``4 * (s + 1)`` switches, seeded random graph
    ========== =================================================
    """
    if scale < 1:
        raise ValueError("scale must be >= 1")
    if name in ("auto", "triangle"):
        return triangle_topology()
    if name == "linear":
        count = 2 + scale
        kinds = assign_kinds([f"S{i + 1}" for i in range(count)],
                             hardware_fraction, seed=seed)
        return linear_topology(count, kinds=[kinds[f"S{i + 1}"] for i in range(count)])
    if name == "fat-tree":
        return fat_tree(k=2 * (scale + 1), hardware_fraction=hardware_fraction,
                        seed=seed)
    if name == "leaf-spine":
        return leaf_spine(leaves=2 + 2 * scale, spines=1 + scale,
                          hosts_per_leaf=1, hardware_fraction=hardware_fraction,
                          seed=seed)
    if name == "ring":
        return ring(switch_count=2 + 2 * scale, host_count=2,
                    hardware_fraction=hardware_fraction, seed=seed)
    if name == "waxman":
        return random_waxman(switch_count=4 * (scale + 1), host_count=2,
                             hardware_fraction=hardware_fraction, seed=seed)
    raise ValueError(
        f"unknown topology family {name!r}; expected one of {sorted(TOPOLOGY_FAMILIES)}"
    )


#: Topology family names accepted by :func:`build_topology`.
TOPOLOGY_FAMILIES = ("triangle", "linear", "fat-tree", "leaf-spine", "ring", "waxman")


@lru_cache(maxsize=128)
def build_topology_cached(
    name: str,
    scale: int = 1,
    seed: int = 0,
    hardware_fraction: float = DEFAULT_HARDWARE_FRACTION,
) -> Topology:
    """Memoized :func:`build_topology` (per-process, keyed by all params).

    Campaign workers run many grid cells that differ only in technique or
    traffic seed while sharing topology parameters; generation — especially
    fat-trees and Waxman graphs — is pure and seeded, so each worker process
    builds every distinct topology once.  The returned object is shared:
    callers must treat it as read-only (the :class:`~repro.net.network.Network`
    construction path does).
    """
    return build_topology(name, scale=scale, seed=seed,
                          hardware_fraction=hardware_fraction)
