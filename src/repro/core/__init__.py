"""RUM — Rule Update Monitoring (the paper's primary contribution).

The package contains the transparent proxy framework, the acknowledgment
layer with its five techniques, and the reliable barrier layer:

* :class:`~repro.core.rum.RumLayer` — the acknowledgment layer; attach it to
  a :class:`~repro.net.network.Network`, pick a technique via
  :class:`~repro.core.config.RumConfig`, connect the controller to
  :meth:`~repro.core.proxy.ProxyLayer.controller_endpoint`, then call
  :meth:`~repro.core.rum.RumLayer.prepare` and
  :meth:`~repro.core.rum.RumLayer.start`.
* :class:`~repro.core.barrier_layer.ReliableBarrierLayer` — stack it above
  the acknowledgment layer (``chain_proxies``) to give unmodified,
  barrier-based controllers trustworthy barrier replies.
"""

from repro.core.config import (
    RumConfig,
    config_for_technique,
)
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
    create_technique,
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
    "RumConfig",
    "RumLayer",
    "SequentialProbingTechnique",
    "StaticTimeoutTechnique",
    "TECHNIQUE_NO_WAIT",
    "TopologyView",
    "VersionAllocator",
    "VersionSpaceExhausted",
    "available_techniques",
    "chain_proxies",
    "config_for_technique",
    "create_technique",
    "get_technique",
    "resolve_technique",
]
