"""The transparent proxy framework.

The RUM prototype is a TCP proxy between the switches and the controller
(Section 4): switches connect to it as if it were the controller, and it
connects onward to the real controller impersonating each switch.  Because
every functional piece (the acknowledgment layer, the reliable barrier layer)
is "just another proxy", they can be chained freely.

:class:`ProxyLayer` implements that plumbing on top of the simulated
connections: it claims the controller-side endpoint of each switch's control
channel (its *downstream*), creates a fresh upstream connection per switch,
and by default forwards every message unchanged in both directions.
Subclasses override :meth:`ProxyLayer.handle_from_controller` and
:meth:`ProxyLayer.handle_from_switch` to intercept, buffer, rewrite, drop or
inject messages.
"""

from __future__ import annotations

from typing import Dict, List

from repro.openflow.connection import Connection, ConnectionEndpoint
from repro.openflow.messages import OFMessage
from repro.sim.kernel import Simulator


class ProxyLayer:
    """A per-switch, bidirectional message interception layer."""

    def __init__(self, sim: Simulator, name: str = "proxy", latency: float = 0.0002) -> None:
        self.sim = sim
        self.name = name
        self.latency = latency
        #: Endpoint towards the switch (or the next proxy below), per switch.
        self._downstream: Dict[str, ConnectionEndpoint] = {}
        #: Connection towards the controller (or the next proxy above).
        self._upstream: Dict[str, Connection] = {}

    # -- wiring ----------------------------------------------------------------
    def attach_switch(self, switch_name: str, downstream: ConnectionEndpoint) -> None:
        """Interpose on the control channel of ``switch_name``.

        ``downstream`` is the controller-side endpoint of the channel that
        terminates at the switch (or at the proxy below us in a chain).
        """
        if switch_name in self._downstream:
            raise ValueError(f"switch {switch_name!r} already attached to {self.name}")
        self._downstream[switch_name] = downstream
        upstream = Connection(
            self.sim,
            name=f"{self.name}-{switch_name}",
            latency=self.latency,
            name_a=f"{self.name}-{switch_name}-down",
            name_b=f"{self.name}-{switch_name}-up",
        )
        self._upstream[switch_name] = upstream
        # Looked up per message, not pre-bound: a subclass override, or a
        # wrapper patched onto the class, sees every message.
        downstream.on_message(
            lambda message, name=switch_name: self.handle_from_switch(name, message)
        )
        upstream.side_a.on_message(
            lambda message, name=switch_name: self.handle_from_controller(name, message)
        )

    def attach_network(self, network) -> None:
        """Interpose on every switch of a :class:`~repro.net.network.Network`."""
        for switch_name in network.switch_names():
            self.attach_switch(switch_name, network.controller_endpoint(switch_name))

    def controller_endpoint(self, switch_name: str) -> ConnectionEndpoint:
        """The endpoint the controller (or the proxy above) should connect to."""
        return self._upstream[switch_name].side_b

    def switch_names(self) -> List[str]:
        """Names of the switches this proxy interposes on."""
        return list(self._downstream)

    # -- default forwarding -----------------------------------------------------------
    def handle_from_controller(self, switch_name: str, message: OFMessage) -> None:
        """Controller → switch direction.  Default: forward unchanged."""
        self.forward_to_switch(switch_name, message)

    def handle_from_switch(self, switch_name: str, message: OFMessage) -> None:
        """Switch → controller direction.  Default: forward unchanged."""
        self.forward_to_controller(switch_name, message)

    # -- primitives -----------------------------------------------------------------------
    def forward_to_switch(self, switch_name: str, message: OFMessage) -> None:
        """Send a message towards the switch."""
        self._downstream[switch_name].send(message)

    def forward_to_controller(self, switch_name: str, message: OFMessage) -> None:
        """Send a message towards the controller."""
        self._upstream[switch_name].side_a.send(message)

    def start(self) -> None:
        """Start any background work the layer needs (default: none)."""

    def close(self) -> None:
        """Close the upstream connections this layer created and forget the
        downstream endpoints it was handed (their owner closes those)."""
        for upstream in self._upstream.values():
            upstream.close()
        self._downstream.clear()

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"<{type(self).__name__} {self.name} switches={self.switch_names()}>"


def chain_proxies(network, layers: List[ProxyLayer]) -> Dict[str, ConnectionEndpoint]:
    """Chain proxies bottom-up between a network and a controller.

    ``layers[0]`` sits closest to the switches; the returned mapping gives,
    per switch, the endpoint the controller should finally connect to (the
    top of the chain).  With an empty list the network's own endpoints are
    returned (no proxying).
    """
    if not layers:
        return {name: network.controller_endpoint(name) for name in network.switch_names()}
    layers[0].attach_network(network)
    for below, above in zip(layers, layers[1:]):
        for switch_name in below.switch_names():
            above.attach_switch(switch_name, below.controller_endpoint(switch_name))
    top = layers[-1]
    return {name: top.controller_endpoint(name) for name in top.switch_names()}
