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

from repro.controller.routing import flow_match, install_path_rules, path_flowmods
from repro.controller.update_plan import UpdatePlan
from repro.net.network import Network
from repro.net.traffic import FlowSpec, flows_between
from repro.openflow.actions import OutputAction
from repro.openflow.messages import FlowMod
from repro.scenarios.base import Scenario
from repro.scenarios.migration import endpoint_hosts


class EcmpRebalanceScenario(Scenario):
    """Spread flows pinned to one spine across all spines, consistently."""

    name = "ecmp-rebalance"
    description = ("rebalance flows pinned to one spine across every spine "
                   "with per-flow consistent migrations")
    default_topology = "leaf-spine"

    def _fabric(self, network: Network) -> Dict[str, object]:
        """Ingress/egress leaves and the spine list, derived from the graph."""
        if hasattr(self, "_cached_fabric"):
            return self._cached_fabric
        source, dest = endpoint_hosts(network)
        ingress = network.topology.neighbors_of(source)[0]
        egress = network.topology.neighbors_of(dest)[0]
        if ingress == egress:
            raise ValueError("endpoint hosts must sit on different leaves")
        spines = [
            node for node in network.topology.neighbors_of(ingress)
            if node in network.switches
            and egress in network.topology.neighbors_of(node)
        ]
        if len(spines) < 2:
            raise ValueError(
                f"topology {network.topology.name!r} offers {len(spines)} "
                "common spine(s); the rebalance needs at least two"
            )
        self._cached_fabric = {
            "source": source,
            "dest": dest,
            "ingress": ingress,
            "egress": egress,
            "spines": spines,
        }
        return self._cached_fabric

    def _spine_for(self, index: int, spines: List[str]) -> str:
        return spines[index % len(spines)]

    def flows(self, network: Network) -> List[FlowSpec]:
        fabric = self._fabric(network)
        return flows_between(
            network.host(fabric["source"]),
            network.host(fabric["dest"]),
            self.params.flow_count,
            rate_pps=self.params.rate_pps,
        )

    def preinstall(self, network: Network, flows: List[FlowSpec]) -> None:
        fabric = self._fabric(network)
        old_path = [fabric["source"], fabric["ingress"], fabric["spines"][0],
                    fabric["egress"], fabric["dest"]]
        for flow in flows:
            install_path_rules(network, path_flowmods(network, flow, old_path))

    def build_plan(self, network: Network, flows: List[FlowSpec]) -> UpdatePlan:
        fabric = self._fabric(network)
        spines: List[str] = fabric["spines"]
        ingress, egress = fabric["ingress"], fabric["egress"]
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
        fabric = self._fabric(network)
        spines: List[str] = fabric["spines"]
        return {
            flow.flow_id: self._spine_for(index, spines)
            for index, flow in enumerate(flows)
            if self._spine_for(index, spines) != spines[0]
        }

    def metrics(self, network: Network, plan: UpdatePlan,
                executor) -> Dict[str, object]:
        fabric = self._fabric(network)
        spines: List[str] = fabric["spines"]
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
