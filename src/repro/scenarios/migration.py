"""Consistent path migration: the paper's experiment on any topology.

The paper migrates flows from S1-S3 to S1-S2-S3 on a hand-built triangle
(Figures 1b, 6 and 7).  :class:`PathMigrationScenario` is that workload,
written once: every flow between two hosts runs on the old path, and the
update is the dependency-ordered consistent migration to the new path
(prepare downstream rules, then flip the shared ingress switch).  Where the
paths come from is the only thing that varies:

* given — a :class:`MigrationSpec` names the topology and both paths (the
  paper's triangle, :func:`repro.experiments.common.migration_session`);
* searched — on the scenario's generated topology the old path is the
  shortest one between the endpoint hosts and the new path the
  next-shortest loop-free path that visits at least one new switch
  (:func:`migration_paths`; subclasses such as ``link-failure`` search
  differently).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice
from typing import Dict, List, Optional, Tuple

from repro.controller.consistent import ConsistentPathMigration
from repro.controller.routing import (
    first_distinct_switch,
    install_path_rules,
    path_flowmods,
    shortest_simple_paths,
)
from repro.controller.update_plan import UpdatePlan
from repro.net.network import Network
from repro.net.topology import Topology, triangle_topology
from repro.net.traffic import FlowSpec, flows_between
from repro.scenarios.base import Scenario, ScenarioParams
from repro.switches.profiles import SwitchProfile, hp5406zl_profile

#: How many loop-free paths to inspect before giving up on a migration target.
_PATH_SEARCH_LIMIT = 64


@dataclass
class MigrationSpec:
    """What to migrate: a topology plus the old and new host-to-host paths."""

    topology: Topology
    old_path: List[str]
    new_path: List[str]
    source_host: str = "H1"
    dest_host: str = "H2"
    #: The switch whose traversal marks a delivery as "new path" (S2 in the
    #: triangle).  When ``None`` it is inferred as the first switch on the
    #: new path that the old path does not visit.
    new_path_switch: Optional[str] = None

    def resolved_new_path_switch(self) -> Optional[str]:
        """The switch distinguishing new-path deliveries from old-path ones
        (``None``: the new path visits no switch the old path avoids)."""
        if self.new_path_switch is not None:
            return self.new_path_switch
        return first_distinct_switch(self.old_path, self.new_path,
                                     self.topology.switches)

    @classmethod
    def triangle(cls, hardware_profile: Optional[SwitchProfile] = None) -> "MigrationSpec":
        """The paper's Figure 1a migration: S1-S3 → S1-S2-S3."""
        return cls(
            topology=triangle_topology(
                hardware_profile=hardware_profile or hp5406zl_profile()
            ),
            old_path=["H1", "S1", "S3", "H2"],
            new_path=["H1", "S1", "S2", "S3", "H2"],
            new_path_switch="S2",
        )


def endpoint_hosts(network: Network) -> Tuple[str, str]:
    """The scenario's source and destination hosts (first and last declared)."""
    hosts = list(network.topology.hosts)
    if len(hosts) < 2:
        raise ValueError(
            f"topology {network.topology.name!r} needs at least two hosts"
        )
    return hosts[0], hosts[-1]


def migration_paths(network: Network, source_host: str,
                    dest_host: str) -> Tuple[List[str], List[str]]:
    """``(old_path, new_path)`` for a consistent migration between two hosts.

    The old path is the shortest one; the new path is the next loop-free
    path that traverses at least one switch the old path avoids (so that the
    delivery monitor can tell the routes apart).  Both paths necessarily
    share their first switch because hosts have exactly one link, which is
    what :class:`ConsistentPathMigration` requires of its ingress.  Paths are
    drawn lazily: each one costs a search, and the first usable one ends it.
    """
    paths = islice(shortest_simple_paths(network.topology.full_graph(), source_host, dest_host),
                   _PATH_SEARCH_LIMIT)
    old_path = next(paths)
    for path in paths:
        if first_distinct_switch(old_path, path, network.switches) is not None:
            return old_path, path
    raise ValueError(
        f"topology {network.topology.name!r} offers no alternative path "
        f"between {source_host} and {dest_host}"
    )


class PathMigrationScenario(Scenario):
    """Migrate every flow between two hosts from an old path to a new one."""

    name = "path-migration"
    description = ("migrate all flows from the shortest path to the "
                   "next-shortest alternative (generalized Figure 1a)")
    default_topology = "leaf-spine"

    def __init__(self, params: Optional[ScenarioParams] = None,
                 migration: Optional[MigrationSpec] = None) -> None:
        super().__init__(params)
        if migration is not None and migration.resolved_new_path_switch() is None:
            raise ValueError(
                f"new path {migration.new_path!r} visits no switch the old "
                "path avoids; set new_path_switch explicitly"
            )
        #: The given paths; ``None``: :meth:`search_paths` finds them on the
        #: built network.
        self.given = migration
        self._searched: Optional[MigrationSpec] = None

    def search_paths(self, network: Network) -> MigrationSpec:
        """The migration between the endpoint hosts (see :func:`migration_paths`)."""
        source, dest = endpoint_hosts(network)
        old_path, new_path = migration_paths(network, source, dest)
        return MigrationSpec(network.topology, old_path, new_path, source, dest)

    def paths(self, network: Network) -> MigrationSpec:
        """The migration this run performs: given, or searched once."""
        if self.given is not None:
            return self.given
        if self._searched is None:
            self._searched = self.search_paths(network)
        return self._searched

    def build_topology(self) -> Topology:
        if self.given is not None:
            return self.given.topology
        return super().build_topology()

    def flows(self, network: Network) -> List[FlowSpec]:
        migration = self.paths(network)
        return flows_between(
            network.host(migration.source_host),
            network.host(migration.dest_host),
            self.params.flow_count,
            rate_pps=self.params.rate_pps,
        )

    def preinstall(self, network: Network, flows: List[FlowSpec]) -> None:
        old_path = self.paths(network).old_path
        for flow in flows:
            install_path_rules(network, path_flowmods(network, flow, old_path))

    def build_plan(self, network: Network, flows: List[FlowSpec]) -> UpdatePlan:
        migration = self.paths(network)
        return ConsistentPathMigration(network, flows, migration.old_path,
                                       migration.new_path).build_plan()

    def new_path_switches(self, network: Network,
                          flows: List[FlowSpec]) -> Dict[str, str]:
        # A searched reroute may reuse only old switches; the run is then
        # measured through metrics alone.
        marker = self.paths(network).resolved_new_path_switch()
        return {flow.flow_id: marker for flow in flows} if marker else {}

    def metrics(self, network: Network, plan: UpdatePlan,
                executor) -> Dict[str, object]:
        """The searched paths' lengths (given paths are the caller's own)."""
        if self.given is not None:
            return {}
        migration = self.paths(network)
        return {
            "old_path_hops": len(migration.old_path) - 2,
            "new_path_hops": len(migration.new_path) - 2,
            "path_stretch": len(migration.new_path) - len(migration.old_path),
        }
