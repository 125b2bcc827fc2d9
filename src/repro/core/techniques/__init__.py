"""RUM acknowledgment techniques (Section 3 of the paper).

Each technique implements the same small interface
(:class:`~repro.core.techniques.base.AckTechnique`): it is notified whenever
the RUM layer forwards a controller FlowMod, it may intercept messages coming
back from the switch, and it decides *when* each modification is confirmed
towards the controller.

======================  =============================================================
Technique               When a modification is confirmed
======================  =============================================================
``barrier``             when the switch's barrier reply arrives (baseline — unsafe on
                        buggy switches)
``timeout``             a fixed delay after the barrier reply
``adaptive``            at a time estimated from a switch performance model and the
                        command issue rate
``sequential``          when a versioned probe rule installed after the batch is seen
                        forwarding probe packets in the data plane
``general``             when a per-rule probe packet is seen taking the path the rule
                        prescribes
``no-wait``             immediately (null technique: no RUM proxy, no consistency —
                        the Figure 7 lower bound)
======================  =============================================================

A technique is its class (:mod:`repro.core.techniques.registry`): adding
one is defining an :class:`AckTechnique` subclass with a ``name`` in this
package, and the class owns its configuration defaults and wiring
behaviour.  Experiment sessions, scenarios, and campaigns all resolve
techniques by name through the registry.
"""

from repro.core.techniques.base import (
    AckTechnique,
    NoWaitTechnique,
    create_technique,
)
from repro.core.techniques.registry import (
    TECHNIQUE_NO_WAIT,
    TECHNIQUES,
    available_techniques,
    get_technique,
    resolve_technique,
    rum_technique_names,
)
from repro.core.techniques.barrier_baseline import BarrierBaselineTechnique
from repro.core.techniques.static_timeout import StaticTimeoutTechnique
from repro.core.techniques.adaptive import AdaptiveTimeoutTechnique
from repro.core.techniques.sequential import SequentialProbingTechnique
from repro.core.techniques.general import GeneralProbingTechnique

__all__ = [
    "AckTechnique",
    "AdaptiveTimeoutTechnique",
    "BarrierBaselineTechnique",
    "GeneralProbingTechnique",
    "NoWaitTechnique",
    "SequentialProbingTechnique",
    "StaticTimeoutTechnique",
    "TECHNIQUES",
    "TECHNIQUE_NO_WAIT",
    "available_techniques",
    "create_technique",
    "get_technique",
    "resolve_technique",
    "rum_technique_names",
]
