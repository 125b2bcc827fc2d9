"""RUM — Rule Update Monitoring (the paper's primary contribution).

The package contains the transparent proxy framework, the acknowledgment
layer with its five techniques, and the reliable barrier layer:

* :class:`~repro.core.rum.RumLayer` — the acknowledgment layer; build it
  with a technique class (:func:`get_technique`) and the values of that
  technique's declared parameters (a technique owns its parameters; every
  other value it reads is a constant of its module), attach it to a
  :class:`~repro.net.network.Network`, connect the controller to
  :meth:`~repro.core.proxy.ProxyLayer.controller_endpoint`, then call
  :meth:`~repro.core.rum.RumLayer.prepare` and
  :meth:`~repro.core.rum.RumLayer.start`.
* :class:`~repro.core.barrier_layer.ReliableBarrierLayer` — stack it above
  the acknowledgment layer (``chain_proxies``) to give unmodified,
  barrier-based controllers trustworthy barrier replies.
"""

from repro.core.pending import PendingRule, PendingRuleTracker
from repro.core.proxy import ProxyLayer, chain_proxies
from repro.core.rum import RumLayer
from repro.core.barrier_layer import ReliableBarrierLayer
from repro.core.topology_view import TopologyView
from repro.core.versioning import VersionAllocator, VersionSpaceExhausted
from repro.core.techniques import (
    AckTechnique,
    AdaptiveTimeoutTechnique,
    BarrierBaselineTechnique,
    GeneralProbingTechnique,
    NoWaitTechnique,
    SequentialProbingTechnique,
    StaticTimeoutTechnique,
    TECHNIQUE_NO_WAIT,
    available_techniques,
    get_technique,
    resolve_technique,
)

__all__ = [
    "AckTechnique",
    "AdaptiveTimeoutTechnique",
    "BarrierBaselineTechnique",
    "GeneralProbingTechnique",
    "NoWaitTechnique",
    "PendingRule",
    "PendingRuleTracker",
    "ProxyLayer",
    "ReliableBarrierLayer",
    "RumLayer",
    "SequentialProbingTechnique",
    "StaticTimeoutTechnique",
    "TECHNIQUE_NO_WAIT",
    "TopologyView",
    "VersionAllocator",
    "VersionSpaceExhausted",
    "available_techniques",
    "chain_proxies",
    "get_technique",
    "resolve_technique",
]
