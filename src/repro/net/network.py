"""Instantiate a :class:`~repro.net.topology.Topology` into a running simulation.

The :class:`Network` owns the switches, hosts and links, assigns port
numbers, and creates one OpenFlow control connection per switch.  By default
the controller side of each connection is left unbound so that either a
controller (:mod:`repro.controller`) or the RUM proxy (:mod:`repro.core`) can
attach to it — mirroring the paper's deployment where RUM interposes between
the switches and an unmodified controller.
"""

from __future__ import annotations

from functools import partial
from typing import Dict, List, Optional, Tuple

from repro.net.host import Host
from repro.net.link import Link
from repro.net.monitor import DeliveryMonitor
from repro.net.topology import Topology
from repro.openflow.connection import Connection, ConnectionEndpoint
from repro.sim.kernel import Simulator
from repro.sim.rng import SeededRandom
from repro.switches.base import Switch


class Network:
    """A built network: switches, hosts, links, and per-switch control channels."""

    def __init__(
        self,
        sim: Simulator,
        topology: Topology,
        monitor: Optional[DeliveryMonitor] = None,
        control_latency: float = 0.001,
        seed: int = 1,
    ) -> None:
        topology.validate()
        self.sim = sim
        self.topology = topology
        self.monitor = monitor if monitor is not None else DeliveryMonitor()
        self.control_latency = control_latency
        self.rng = SeededRandom(seed)

        self.switches: Dict[str, Switch] = {}
        self.hosts: Dict[str, Host] = {}
        self.links: List[Link] = []
        #: ``(node_a, node_b) -> port number on node_a facing node_b``.
        self._ports: Dict[Tuple[str, str], int] = {}
        self._next_port: Dict[str, int] = {}
        #: Control connections, keyed by switch name.  ``side_a`` is bound to
        #: the switch; ``side_b`` is free for a controller or proxy to claim.
        self.control_connections: Dict[str, Connection] = {}

        self._build()

    # -- construction ------------------------------------------------------------
    def _build(self) -> None:
        for name, spec in self.topology.switches.items():
            switch = Switch(
                self.sim,
                name,
                spec.resolve_profile(),
                datapath_id=len(self.switches) + 1,
                rng=self.rng.fork(f"switch-{name}"),
            )
            self.switches[name] = switch
            connection = Connection(
                self.sim,
                name=f"ctl-{name}",
                latency=self.control_latency,
                name_a=f"{name}-agent",
                name_b=f"{name}-controller-side",
            )
            switch.connect_controller(connection.side_a)
            self.control_connections[name] = connection

        for name, spec in self.topology.hosts.items():
            self.hosts[name] = Host(
                self.sim, name, ip=spec.ip, mac=spec.mac, monitor=self.monitor
            )

        for link_spec in self.topology.links:
            self._build_link(link_spec)

    def _allocate_port(self, node_name: str) -> int:
        port = self._next_port.get(node_name, 1)
        self._next_port[node_name] = port + 1
        return port

    def _build_link(self, link_spec) -> None:
        node_a = self._node(link_spec.node_a)
        node_b = self._node(link_spec.node_b)
        port_a = self._allocate_port(link_spec.node_a)
        port_b = self._allocate_port(link_spec.node_b)
        link = Link(
            self.sim,
            node_a,
            port_a,
            node_b,
            port_b,
            latency=link_spec.latency,
            bandwidth_bps=link_spec.bandwidth_bps,
        )
        self.links.append(link)
        self._ports[(link_spec.node_a, link_spec.node_b)] = port_a
        self._ports[(link_spec.node_b, link_spec.node_a)] = port_b
        if isinstance(node_a, Switch):
            node_a.attach_port(port_a, partial(link.transmit_from, node_a))
        else:
            node_a.attach_link(link)
        if isinstance(node_b, Switch):
            node_b.attach_port(port_b, partial(link.transmit_from, node_b))
        else:
            node_b.attach_link(link)

    def _node(self, name: str):
        if name in self.switches:
            return self.switches[name]
        if name in self.hosts:
            return self.hosts[name]
        raise KeyError(f"unknown node {name!r}")

    # -- lifecycle --------------------------------------------------------------------
    def start(self) -> None:
        """Start all switch control planes."""
        for switch in self.switches.values():
            switch.start()

    def close(self) -> None:
        """Unplug what :meth:`_build` plugged together.

        Control channels are closed and every node forgets its links (a
        switch also its lifecycle listeners and its agent's callbacks into
        it), which are the back-references that made a built network one
        reference cycle.  The network can still be inspected afterwards, not
        run.
        """
        for connection in self.control_connections.values():
            connection.close()
        for switch in self.switches.values():
            switch.close()
        for host in self.hosts.values():
            host._link = None

    # -- lookups ----------------------------------------------------------------------
    def port_between(self, from_node: str, to_node: str) -> int:
        """Port number on ``from_node`` that faces ``to_node``."""
        key = (from_node, to_node)
        if key not in self._ports:
            raise KeyError(f"no link between {from_node!r} and {to_node!r}")
        return self._ports[key]

    def node_for_port(self, node_name: str, port: int) -> Optional[str]:
        """Name of the node reached through ``port`` of ``node_name`` (or ``None``)."""
        for (from_node, to_node), port_no in self._ports.items():
            if from_node == node_name and port_no == port:
                return to_node
        return None

    def controller_endpoint(self, switch_name: str) -> ConnectionEndpoint:
        """The controller-facing endpoint of a switch's control connection."""
        return self.control_connections[switch_name].side_b

    def switch(self, name: str) -> Switch:
        """Switch by name."""
        return self.switches[name]

    def host(self, name: str) -> Host:
        """Host by name."""
        return self.hosts[name]

    def switch_names(self) -> List[str]:
        """All switch names in topology insertion order."""
        return list(self.switches)

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (
            f"<Network {self.topology.name}: {len(self.switches)} switches, "
            f"{len(self.hosts)} hosts, {len(self.links)} links>"
        )
