"""Scenario subsystem: topology generators, a scenario registry, an engine.

Importing this package registers the built-in scenarios:

====================  =====================================================
``path-migration``    shortest → next-shortest path migration, any topology
``link-failure``      drain a link of the active path and reroute around it
``firewall-rollout``  roll an HTTP-drop policy hop by hop along a path
``ecmp-rebalance``    spread spine-pinned flows across all spines
``fault-sweep``       path migration under injected faults (``--faults``)
``rolling-upgrade``   staggered crash wave across a fat-tree pod (recovery)
``correlated-tor-outage``  ToR crash + uplink flap, one correlated group
====================  =====================================================

Typical use::

    from repro.scenarios import ScenarioParams, run_scenario

    result = run_scenario("path-migration", "general",
                          ScenarioParams(topology="fat-tree", scale=1))
    print(result.as_dict())
"""

from repro.scenarios.base import (
    SCENARIOS,
    Scenario,
    ScenarioParams,
    available_scenarios,
    get_scenario,
)
from repro.scenarios.engine import run_scenario, scenario_session
from repro.scenarios.generators import (
    TOPOLOGY_FAMILIES,
    build_topology,
    fat_tree,
    leaf_spine,
    random_waxman,
    ring,
)

# Importing the scenario modules populates the registry.
from repro.scenarios import failure as _failure  # noqa: F401
from repro.scenarios import fault_sweep as _fault_sweep  # noqa: F401
from repro.scenarios import firewall_rollout as _firewall_rollout  # noqa: F401
from repro.scenarios import migration as _migration  # noqa: F401
from repro.scenarios import rebalance as _rebalance  # noqa: F401
from repro.scenarios import rolling as _rolling  # noqa: F401

__all__ = [
    "SCENARIOS",
    "Scenario",
    "ScenarioParams",
    "TOPOLOGY_FAMILIES",
    "available_scenarios",
    "build_topology",
    "fat_tree",
    "get_scenario",
    "leaf_spine",
    "random_waxman",
    "ring",
    "run_scenario",
    "scenario_session",
]
