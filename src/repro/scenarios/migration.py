"""Generalized multi-path migration: the paper's experiment on any topology.

The paper migrates flows from S1-S3 to S1-S2-S3 on a hand-built triangle.
This scenario does the same thing on an arbitrary generated topology: the
pre-update route is the shortest path between the endpoint hosts, the
post-update route is the next-shortest loop-free path that visits at least
one new switch, and the update is the same dependency-ordered consistent
migration (prepare downstream rules, then flip the shared ingress switch).
"""

from __future__ import annotations

from itertools import islice
from typing import Dict, List, Tuple

from repro.controller.consistent import ConsistentPathMigration
from repro.controller.routing import (
    first_distinct_switch,
    install_path_rules,
    path_flowmods,
    shortest_simple_paths,
)
from repro.controller.update_plan import UpdatePlan
from repro.net.network import Network
from repro.net.traffic import FlowSpec, flows_between
from repro.scenarios.base import Scenario

#: How many loop-free paths to inspect before giving up on a migration target.
_PATH_SEARCH_LIMIT = 64


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
    """Shortest-path to next-shortest-path migration on any topology."""

    name = "path-migration"
    description = ("migrate all flows from the shortest path to the "
                   "next-shortest alternative (generalized Figure 1a)")
    default_topology = "leaf-spine"

    def _paths(self, network: Network) -> Tuple[List[str], List[str]]:
        if not hasattr(self, "_cached_paths"):
            source, dest = endpoint_hosts(network)
            self._cached_paths = migration_paths(network, source, dest)
        return self._cached_paths

    def flows(self, network: Network) -> List[FlowSpec]:
        source, dest = endpoint_hosts(network)
        return flows_between(
            network.host(source),
            network.host(dest),
            self.params.flow_count,
            rate_pps=self.params.rate_pps,
        )

    def preinstall(self, network: Network, flows: List[FlowSpec]) -> None:
        old_path, _new_path = self._paths(network)
        for flow in flows:
            install_path_rules(network, path_flowmods(network, flow, old_path))

    def build_plan(self, network: Network, flows: List[FlowSpec]) -> UpdatePlan:
        old_path, new_path = self._paths(network)
        return ConsistentPathMigration(network, flows, old_path, new_path).build_plan()

    def new_path_switches(self, network: Network,
                          flows: List[FlowSpec]) -> Dict[str, str]:
        old_path, new_path = self._paths(network)
        # migration_paths guarantees the new path adds a switch.
        marker = first_distinct_switch(old_path, new_path, network.switches)
        return {flow.flow_id: marker for flow in flows}

    def metrics(self, network: Network, plan: UpdatePlan,
                executor) -> Dict[str, object]:
        old_path, new_path = self._paths(network)
        return {
            "old_path_hops": len(old_path) - 2,
            "new_path_hops": len(new_path) - 2,
            "path_stretch": len(new_path) - len(old_path),
        }
