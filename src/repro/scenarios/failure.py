"""Link-failure (drain) reroute scenario.

An operator drains a link on the active path — for maintenance, or in
response to a failure alarm — by consistently migrating every flow onto the
shortest path that avoids the link.  The scenario-specific metric counts
deliveries that still crossed the drained link *after* the controller
believed the reroute complete: with truthful data-plane acknowledgments that
number is zero, with control-plane acknowledgments traffic may keep crossing
the supposedly drained link (the maintenance hazard analogue of the paper's
firewall bypass).
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.controller.consistent import ConsistentPathMigration
from repro.controller.routing import (
    NoPathError,
    first_distinct_switch,
    install_path_rules,
    path_flowmods,
    shortest_path,
)
from repro.controller.update_plan import UpdatePlan
from repro.net.network import Network
from repro.net.traffic import FlowSpec, flows_between
from repro.scenarios.base import Scenario
from repro.scenarios.migration import endpoint_hosts


class LinkFailureRerouteScenario(Scenario):
    """Drain a link of the active path and reroute every flow around it."""

    name = "link-failure"
    description = ("drain one link of the active path and reroute; counts "
                   "packets still crossing the drained link afterwards")
    default_topology = "ring"

    def _setup(self, network: Network) -> Tuple[List[str], List[str], Tuple[str, str]]:
        """``(old_path, new_path, drained_edge)`` — computed once per run."""
        if hasattr(self, "_cached_setup"):
            return self._cached_setup
        source, dest = endpoint_hosts(network)
        graph = network.topology.full_graph()
        old_path = shortest_path(graph, source, dest)
        switch_edges = [
            (old_path[index], old_path[index + 1])
            for index in range(len(old_path) - 1)
            if old_path[index] in network.switches
            and old_path[index + 1] in network.switches
        ]
        if not switch_edges:
            raise ValueError(
                f"path {old_path!r} has no switch-to-switch link to drain"
            )
        for edge in switch_edges:
            try:
                new_path = shortest_path(graph, source, dest, cut=(edge,))
            except NoPathError:
                continue
            self._cached_setup = (old_path, new_path, edge)
            return self._cached_setup
        raise ValueError(
            f"every link of {old_path!r} is a bridge; nothing can be drained"
        )

    def flows(self, network: Network) -> List[FlowSpec]:
        source, dest = endpoint_hosts(network)
        return flows_between(
            network.host(source),
            network.host(dest),
            self.params.flow_count,
            rate_pps=self.params.rate_pps,
        )

    def preinstall(self, network: Network, flows: List[FlowSpec]) -> None:
        old_path, _new_path, _edge = self._setup(network)
        for flow in flows:
            install_path_rules(network, path_flowmods(network, flow, old_path))

    def build_plan(self, network: Network, flows: List[FlowSpec]) -> UpdatePlan:
        old_path, new_path, _edge = self._setup(network)
        return ConsistentPathMigration(network, flows, old_path, new_path).build_plan()

    def new_path_switches(self, network: Network,
                          flows: List[FlowSpec]) -> Dict[str, str]:
        old_path, new_path, _edge = self._setup(network)
        marker = first_distinct_switch(old_path, new_path, network.switches)
        if marker is None:
            # The reroute reuses only old switches (possible on dense
            # graphs); the scenario is then measured through metrics alone.
            return {}
        return {flow.flow_id: marker for flow in flows}

    def metrics(self, network: Network, plan: UpdatePlan,
                executor) -> Dict[str, object]:
        _old_path, _new_path, edge = self._setup(network)
        finished = executor.finished_at
        residual = 0
        if finished is not None:
            for flow_id in network.monitor.flows():
                for record in network.monitor.deliveries(flow_id):
                    if record.received_at <= finished:
                        continue
                    if _crosses(record.path, edge):
                        residual += 1
        return {
            "drained_link": list(edge),
            "residual_drained_deliveries": residual,
        }


def _crosses(path: Tuple[str, ...], edge: Tuple[str, str]) -> bool:
    """Whether a delivery path traversed ``edge`` in either direction."""
    pairs = set(zip(path, path[1:]))
    return edge in pairs or (edge[1], edge[0]) in pairs
