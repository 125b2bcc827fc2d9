"""Many-flows ECMP-style rebalance on a leaf-spine fabric.

All flows between two leaves initially hash onto a single spine (a
degenerate ECMP assignment after, say, a spine came back from maintenance).
The update spreads them round-robin across every spine, one consistent
per-flow migration each: install the new spine's rule, then flip the ingress
leaf.  Per-flow update times show how acknowledgment truthfulness scales
with many independent small migrations; the balance metric reports how
post-update traffic distributed over the spines.
"""

from __future__ import annotations

from typing import Dict, List

from repro.controller.routing import flow_match
from repro.controller.update_plan import UpdatePlan
from repro.net.network import Network
from repro.net.traffic import FlowSpec
from repro.openflow.actions import OutputAction
from repro.openflow.messages import FlowMod
from repro.scenarios.migration import MigrationSpec, PathMigrationScenario, endpoint_hosts


class EcmpRebalanceScenario(PathMigrationScenario):
    """Spread flows pinned to one spine across all spines, consistently."""

    name = "ecmp-rebalance"
    description = ("rebalance flows pinned to one spine across every spine "
                   "with per-flow consistent migrations")
    default_topology = "leaf-spine"

    def search_paths(self, network: Network) -> MigrationSpec:
        """Every flow starts over the first common spine; the new path is the
        first moved flow's, over the second."""
        source, dest = endpoint_hosts(network)
        ingress = network.topology.neighbors_of(source)[0]
        egress = network.topology.neighbors_of(dest)[0]
        if ingress == egress:
            raise ValueError("endpoint hosts must sit on different leaves")
        spines = _common_spines(network, ingress, egress)
        if len(spines) < 2:
            raise ValueError(
                f"topology {network.topology.name!r} offers {len(spines)} "
                "common spine(s); the rebalance needs at least two"
            )
        return MigrationSpec(network.topology,
                             [source, ingress, spines[0], egress, dest],
                             [source, ingress, spines[1], egress, dest],
                             source, dest)

    def spines(self, network: Network) -> List[str]:
        """The spines common to the old path's ingress and egress leaves."""
        old_path = self.paths(network).old_path
        return _common_spines(network, old_path[1], old_path[-2])

    def _spine_for(self, index: int, spines: List[str]) -> str:
        return spines[index % len(spines)]

    def build_plan(self, network: Network, flows: List[FlowSpec]) -> UpdatePlan:
        old_path = self.paths(network).old_path
        ingress, egress = old_path[1], old_path[-2]
        spines = self.spines(network)
        plan = UpdatePlan(name="ecmp-rebalance")
        for index, flow in enumerate(flows):
            target = self._spine_for(index, spines)
            if target == spines[0]:
                continue  # this flow keeps its current spine
            match = flow_match(flow)
            spine_rule = FlowMod(
                match,
                [OutputAction(network.port_between(target, egress))],
                priority=100,
            )
            prepare = plan.add(target, spine_rule, label=flow.flow_id,
                               role="new-path")
            flip = FlowMod(
                match,
                [OutputAction(network.port_between(ingress, target))],
                priority=100,
            )
            plan.add(ingress, flip, after=[prepare], label=flow.flow_id,
                     role="ingress-flip")
        return plan

    def new_path_switches(self, network: Network,
                          flows: List[FlowSpec]) -> Dict[str, str]:
        spines = self.spines(network)
        return {
            flow.flow_id: self._spine_for(index, spines)
            for index, flow in enumerate(flows)
            if self._spine_for(index, spines) != spines[0]
        }

    def metrics(self, network: Network, plan: UpdatePlan,
                executor) -> Dict[str, object]:
        spines = self.spines(network)
        finished = executor.finished_at
        share: Dict[str, int] = {spine: 0 for spine in spines}
        if finished is not None:
            for flow_id in network.monitor.flows():
                for record in network.monitor.deliveries(flow_id):
                    if record.received_at <= finished:
                        continue
                    for spine in spines:
                        if spine in record.path:
                            share[spine] += 1
                            break
        rebalanced = len({op.label for op in plan.by_role("ingress-flip")})
        return {
            "spines": len(spines),
            "rebalanced_flows": rebalanced,
            "post_update_spine_share": share,
        }


def _common_spines(network: Network, ingress: str, egress: str) -> List[str]:
    """Switches linked to both leaves, in the ingress leaf's neighbour order."""
    return [
        node for node in network.topology.neighbors_of(ingress)
        if node in network.switches
        and egress in network.topology.neighbors_of(node)
    ]
