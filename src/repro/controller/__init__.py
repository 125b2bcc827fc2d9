"""SDN controller framework.

The controller side of the reproduction contains:

* :class:`~repro.controller.base.Controller` — connection handling, FlowMod /
  Barrier issuing, and acknowledgment tracking (switch barrier replies and
  RUM's fine-grained rule confirmations),
* :mod:`repro.controller.routing` — helpers that compute per-flow paths and
  the FlowMods that install them,
* :mod:`repro.controller.update_plan` — dependency-ordered update plans
  ("X after Y") and a windowed plan executor (at most K unconfirmed
  modifications in flight),
* :mod:`repro.controller.consistent` — the consistent path-migration update
  used in the end-to-end experiment,
* :mod:`repro.controller.firewall` — the Figure 2 firewall scenario in which
  a too-early acknowledgment opens a transient security hole.
"""

from repro.controller.base import AckMode, Controller, RuleAck
from repro.controller.routing import PathRules, install_path_rules, path_flowmods
from repro.controller.update_plan import (
    PlanExecutor,
    UpdateOperation,
    UpdatePlan,
)
from repro.controller.consistent import ConsistentPathMigration
from repro.controller.firewall import FirewallScenario

__all__ = [
    "AckMode",
    "ConsistentPathMigration",
    "Controller",
    "FirewallScenario",
    "PathRules",
    "PlanExecutor",
    "RuleAck",
    "UpdateOperation",
    "UpdatePlan",
    "install_path_rules",
    "path_flowmods",
]
