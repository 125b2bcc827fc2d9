"""Declarative topology descriptions.

A :class:`Topology` lists switches (each with a behaviour kind or an explicit
profile), hosts, and links.  :class:`~repro.net.network.Network` turns a
topology into a running simulation.  The module also provides the two
topologies used by the paper's evaluation and by the examples:

* :func:`triangle_topology` — S1 (software), S2 (hardware), S3 (software) in
  a triangle, host H1 on S1 and host H2 on S3.  The old per-flow paths go
  H1-S1-S3-H2, the post-update paths go H1-S1-S2-S3-H2 (Figure 1a).
* :func:`linear_topology` — a configurable chain, useful for probing tests
  and for the firewall scenario of Figure 2.

Graph questions — routing, path search, probe colouring — read one cached
adjacency map ``{node: {neighbour: None}}`` built in link order, which
collapses parallel links into one neighbour.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.switches.profiles import (
    SwitchProfile,
    correct_hardware_profile,
    hp5406zl_profile,
    reordering_switch_profile,
    software_switch_profile,
)

#: Known switch kinds and their profile factories.
SWITCH_KINDS = {
    "software": software_switch_profile,
    "hardware": hp5406zl_profile,
    "reordering": reordering_switch_profile,
    "correct-hardware": correct_hardware_profile,
}


@dataclass
class SwitchSpec:
    """A switch to be instantiated."""

    name: str
    kind: str = "software"
    profile: Optional[SwitchProfile] = None

    def resolve_profile(self) -> SwitchProfile:
        """The profile to instantiate the switch with."""
        if self.profile is not None:
            return self.profile
        if self.kind not in SWITCH_KINDS:
            raise ValueError(
                f"unknown switch kind {self.kind!r}; expected one of {sorted(SWITCH_KINDS)}"
            )
        return SWITCH_KINDS[self.kind]()


@dataclass
class HostSpec:
    """A host to be instantiated."""

    name: str
    ip: str
    mac: str


@dataclass
class LinkSpec:
    """A link between two named nodes (switches or hosts)."""

    node_a: str
    node_b: str
    latency: float = 0.0001
    bandwidth_bps: Optional[float] = 1e9


class Topology:
    """A named collection of switch, host and link specifications."""

    def __init__(self, name: str = "topology") -> None:
        self.name = name
        self.switches: Dict[str, SwitchSpec] = {}
        self.hosts: Dict[str, HostSpec] = {}
        self.links: List[LinkSpec] = []
        #: Lazily-built ``{node: {neighbour: None}}``; invalidated on mutation.
        self._adjacency: Optional[Dict[str, Dict[str, None]]] = None

    # -- construction ----------------------------------------------------------
    def add_switch(self, name: str, kind: str = "software",
                   profile: Optional[SwitchProfile] = None) -> "Topology":
        """Add a switch (chainable)."""
        if name in self.switches or name in self.hosts:
            raise ValueError(f"duplicate node name {name!r}")
        self.switches[name] = SwitchSpec(name, kind=kind, profile=profile)
        self._adjacency = None
        return self

    def add_host(self, name: str, ip: str, mac: str) -> "Topology":
        """Add a host (chainable)."""
        if name in self.switches or name in self.hosts:
            raise ValueError(f"duplicate node name {name!r}")
        self.hosts[name] = HostSpec(name, ip=ip, mac=mac)
        self._adjacency = None
        return self

    def add_link(self, node_a: str, node_b: str, latency: float = 0.0001,
                 bandwidth_bps: Optional[float] = 1e9) -> "Topology":
        """Add a link between two previously-added nodes (chainable)."""
        for node in (node_a, node_b):
            if node not in self.switches and node not in self.hosts:
                raise ValueError(f"link endpoint {node!r} is not a known node")
        if node_a == node_b:
            raise ValueError("self-links are not supported")
        self.links.append(LinkSpec(node_a, node_b, latency=latency,
                                   bandwidth_bps=bandwidth_bps))
        self._adjacency = None
        return self

    # -- queries --------------------------------------------------------------------
    def node_names(self) -> List[str]:
        """All node names (switches then hosts)."""
        return list(self.switches) + list(self.hosts)

    def full_graph(self) -> Dict[str, Dict[str, None]]:
        """``{node: {neighbour: None}}``, switches then hosts, neighbours in
        link order.  Built once per mutation and shared: read it only."""
        if self._adjacency is None:
            adjacency: Dict[str, Dict[str, None]] = {node: {} for node in self.node_names()}
            for link in self.links:
                adjacency[link.node_a][link.node_b] = None
                adjacency[link.node_b][link.node_a] = None
            self._adjacency = adjacency
        return self._adjacency

    def switch_graph(self) -> Dict[str, Dict[str, None]]:
        """:meth:`full_graph` without the hosts.

        The vertex-colouring optimisation of the general probing technique
        only needs adjacent *switches* to differ in their probe-catch value.
        """
        full = self.full_graph()
        return {switch: {neighbor: None for neighbor in full[switch] if neighbor in self.switches}
                for switch in self.switches}

    def neighbors_of(self, name: str) -> List[str]:
        """Names of the nodes directly linked to ``name`` (link order)."""
        return list(self.full_graph().get(name, ()))

    def validate(self) -> None:
        """Check the topology is connected and every host has exactly one link."""
        if not self.switches:
            raise ValueError("topology has no switches")
        links = [(link.node_a, link.node_b) for link in self.links]
        if links and len(connected_components(self.node_names(), links)) > 1:
            raise ValueError("topology is not connected")
        for host in self.hosts:
            degree = sum(host in (link.node_a, link.node_b) for link in self.links)
            if degree != 1:
                raise ValueError(f"host {host!r} must have exactly one link, has {degree}")


def connected_components(names: Sequence[str],
                         links: Iterable[Tuple[str, str]]) -> List[List[str]]:
    """Connected components (union-find over the links), each in ``names``
    order, ordered by their first member."""
    parent = {name: name for name in names}

    def find(name: str) -> str:
        while parent[name] != name:
            parent[name] = parent[parent[name]]
            name = parent[name]
        return name

    for name_a, name_b in links:
        parent[find(name_a)] = find(name_b)
    groups: Dict[str, List[str]] = {}
    for name in names:
        groups.setdefault(find(name), []).append(name)
    return list(groups.values())


def triangle_topology(
    hardware_profile: Optional[SwitchProfile] = None,
    software_profile: Optional[SwitchProfile] = None,
    link_latency: float = 0.0001,
) -> Topology:
    """The paper's Figure 1a topology.

    S1 and S3 are software switches, S2 is the (buggy) hardware switch; H1
    hangs off S1 and H2 off S3.
    """
    topo = Topology("triangle")
    topo.add_switch("S1", kind="software", profile=software_profile)
    topo.add_switch("S2", kind="hardware", profile=hardware_profile)
    topo.add_switch("S3", kind="software", profile=software_profile)
    topo.add_host("H1", ip="10.0.0.1", mac="00:00:00:00:00:01")
    topo.add_host("H2", ip="10.0.0.2", mac="00:00:00:00:00:02")
    topo.add_link("H1", "S1", latency=link_latency)
    topo.add_link("S1", "S2", latency=link_latency)
    topo.add_link("S2", "S3", latency=link_latency)
    topo.add_link("S1", "S3", latency=link_latency)
    topo.add_link("S3", "H2", latency=link_latency)
    topo.validate()
    return topo


def linear_topology(
    switch_count: int = 3,
    kinds: Optional[List[str]] = None,
    link_latency: float = 0.0001,
) -> Topology:
    """A chain H1 - S1 - S2 - ... - Sn - H2.

    ``kinds`` optionally gives the switch kind of each position; the default
    is all software switches.
    """
    if switch_count < 1:
        raise ValueError("need at least one switch")
    kinds = kinds or ["software"] * switch_count
    if len(kinds) != switch_count:
        raise ValueError("kinds must have one entry per switch")
    topo = Topology(f"linear-{switch_count}")
    for index in range(switch_count):
        topo.add_switch(f"S{index + 1}", kind=kinds[index])
    topo.add_host("H1", ip="10.0.0.1", mac="00:00:00:00:00:01")
    topo.add_host("H2", ip="10.0.0.2", mac="00:00:00:00:00:02")
    topo.add_link("H1", "S1", latency=link_latency)
    for index in range(switch_count - 1):
        topo.add_link(f"S{index + 1}", f"S{index + 2}", latency=link_latency)
    topo.add_link(f"S{switch_count}", "H2", latency=link_latency)
    topo.validate()
    return topo
