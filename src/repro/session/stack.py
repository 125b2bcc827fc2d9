"""Control-stack wiring shared by every session.

The session engine is the one place that builds controller + proxy chains,
and the technique class — not a string comparison against ``"no-wait"`` —
decides whether a RUM proxy is interposed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional, Type, Union

from repro.controller.base import AckMode, Controller
from repro.core.barrier_layer import ReliableBarrierLayer
from repro.core.rum import RumLayer
from repro.core.techniques.base import AckTechnique
from repro.core.techniques.registry import resolve_technique
from repro.net.network import Network
from repro.core.proxy import chain_proxies
from repro.sim.kernel import Simulator


@dataclass
class ControlStack:
    """The RUM proxy chain and controller attached to a network's switches."""

    controller: Controller
    rum: Optional[RumLayer] = None
    barrier_layer: Optional[ReliableBarrierLayer] = None

    def prepare(self) -> None:
        """Pre-start setup (probe catch rules etc.); call before the network starts."""
        if self.rum is not None:
            self.rum.prepare()

    def start(self) -> None:
        """Start the proxy processes; call after the network has started."""
        if self.rum is not None:
            self.rum.start()

    def close(self) -> None:
        """Close the proxy chain's upstream connections (the network closes
        the switch-facing ones) and drop the controller's ack table, which a
        plan that timed out with acks pending would otherwise leave as a
        controller <-> executor cycle."""
        for layer in (self.rum, self.barrier_layer):
            if layer is not None:
                layer.close()
        self.controller.forget_acks()


def build_control_stack(
    sim: Simulator,
    network: Network,
    technique: Union[str, Type[AckTechnique]],
    *,
    rum_overrides: Optional[Mapping[str, object]] = None,
    with_barrier_layer: bool = False,
    buffer_after_barrier: bool = False,
) -> ControlStack:
    """Wire a controller — and, if the technique uses RUM, a proxy chain —
    onto every switch of ``network``.

    ``technique`` is a registry name or an :class:`AckTechnique` subclass,
    and ``rum_overrides`` set its declared parameters; null techniques
    (``no-wait``) declare none and get a direct controller-to-switch
    connection with :data:`AckMode.NONE`.  Returns the stack with the
    controller already connected to all switches; the caller is responsible
    for calling :meth:`ControlStack.prepare` before and
    :meth:`ControlStack.start` after ``network.start()``.
    """
    technique = resolve_technique(technique)
    rum: Optional[RumLayer] = None
    barrier_layer: Optional[ReliableBarrierLayer] = None
    if technique.uses_rum:
        rum = RumLayer(sim, technique, rum_overrides)
        layers = [rum]
        if with_barrier_layer:
            barrier_layer = ReliableBarrierLayer(
                sim, buffer_after_barrier=buffer_after_barrier
            )
            layers.append(barrier_layer)
        endpoints = chain_proxies(network, layers)
        ack_mode = AckMode.BARRIER if with_barrier_layer else AckMode.RUM_CONFIRMATION
    else:
        technique.checked_overrides(rum_overrides or {})
        endpoints = {name: network.controller_endpoint(name)
                     for name in network.switch_names()}
        ack_mode = AckMode.NONE
    controller = Controller(sim, ack_mode=ack_mode)
    for switch_name, endpoint in endpoints.items():
        controller.connect_switch(switch_name, endpoint)
    return ControlStack(controller=controller, rum=rum, barrier_layer=barrier_layer)
