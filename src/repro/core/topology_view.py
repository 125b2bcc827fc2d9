"""RUM's view of the network topology.

The probing techniques need to know which switches neighbour which, which
port leads where, and which node an output port points at.  In a real
deployment RUM would learn this from the controller's topology discovery (or
be configured with it); here the view is derived from the simulated
:class:`~repro.net.network.Network`, but only through a narrow, read-only
interface so the RUM code never reaches into simulation internals.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.net.network import Network


class TopologyView:
    """Read-only topology information handed to the acknowledgment techniques."""

    def __init__(self, network: Network) -> None:
        self._network = network

    def switch_names(self) -> List[str]:
        """All switch names."""
        return self._network.switch_names()

    def is_switch(self, name: str) -> bool:
        """Whether ``name`` is a switch (as opposed to a host)."""
        return name in self._network.switches

    def switch_neighbors(self, name: str) -> List[str]:
        """Switches directly linked to ``name`` (hosts are excluded)."""
        return [neighbor for neighbor in self._network.topology.neighbors_of(name)
                if neighbor in self._network.switches]

    def port_between(self, from_node: str, to_node: str) -> int:
        """Port on ``from_node`` facing ``to_node``."""
        return self._network.port_between(from_node, to_node)

    def node_for_port(self, node: str, port: int) -> Optional[str]:
        """Node reached through ``port`` of ``node`` (``None`` if unknown)."""
        return self._network.node_for_port(node, port)

    def switch_graph(self) -> Dict[str, Dict[str, None]]:
        """Switch-to-switch adjacency map (used for probe-value colouring)."""
        return self._network.topology.switch_graph()
