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

from typing import Dict, List, Sequence, Tuple

from repro.controller.routing import NoPathError, shortest_path
from repro.controller.update_plan import UpdatePlan
from repro.net.network import Network
from repro.scenarios.migration import MigrationSpec, PathMigrationScenario, endpoint_hosts


class LinkFailureRerouteScenario(PathMigrationScenario):
    """Drain a link of the active path and reroute every flow around it."""

    name = "link-failure"
    description = ("drain one link of the active path and reroute; counts "
                   "packets still crossing the drained link afterwards")
    default_topology = "ring"

    def search_paths(self, network: Network) -> MigrationSpec:
        """Shortest path → shortest path avoiding its first drainable link."""
        source, dest = endpoint_hosts(network)
        graph = network.topology.full_graph()
        old_path = shortest_path(graph, source, dest)
        switch_edges = _switch_links(network, old_path)
        if not switch_edges:
            raise ValueError(
                f"path {old_path!r} has no switch-to-switch link to drain"
            )
        for edge in switch_edges:
            try:
                new_path = shortest_path(graph, source, dest, cut=(edge,))
            except NoPathError:
                continue
            return MigrationSpec(network.topology, old_path, new_path, source, dest)
        raise ValueError(
            f"every link of {old_path!r} is a bridge; nothing can be drained"
        )

    def drained_edge(self, network: Network) -> Tuple[str, str]:
        """The link :meth:`search_paths` cut: the first of the old path's that
        the new path avoids (the bridges tried before it, it must cross)."""
        migration = self.paths(network)
        return next(edge for edge in _switch_links(network, migration.old_path)
                    if not _crosses(migration.new_path, edge))

    def metrics(self, network: Network, plan: UpdatePlan,
                executor) -> Dict[str, object]:
        edge = self.drained_edge(network)
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


def _switch_links(network: Network, path: List[str]) -> List[Tuple[str, str]]:
    """The switch-to-switch links of ``path``, in path order."""
    return [(here, there) for here, there in zip(path, path[1:])
            if here in network.switches and there in network.switches]


def _crosses(path: Sequence[str], edge: Tuple[str, str]) -> bool:
    """Whether a delivery path traversed ``edge`` in either direction."""
    pairs = set(zip(path, path[1:]))
    return edge in pairs or (edge[1], edge[0]) in pairs
