"""Firewall-rule rollout along an arbitrary path (generalized Figure 2).

The Figure 2 motivation (see :mod:`repro.controller.firewall`) opens a new
route only after the firewall rule on it is confirmed: rules Y and Z at
switch B, then rule X at switch A.  This scenario rolls the same pattern out
along the shortest path of any generated topology: every non-ingress switch
receives its forwarding rule, a designated *firewall switch* on the path
additionally receives a higher-priority HTTP-drop rule, and only once all of
those are acknowledged is the ingress forwarding rule installed, opening the
path.  The policy demands that no HTTP packet ever reaches the destination —
each one that does slipped through because the ingress opened while the
firewall rule was acknowledged but not yet active in the data plane.
"""

from __future__ import annotations

from typing import Dict, List

from repro.controller.routing import flow_match, path_flowmods, shortest_path
from repro.controller.update_plan import UpdatePlan
from repro.net.network import Network
from repro.net.traffic import FlowSpec
from repro.openflow.actions import DropAction
from repro.openflow.messages import FlowMod
from repro.packet.fields import IP_PROTO_TCP
from repro.scenarios.base import Scenario
from repro.scenarios.migration import endpoint_hosts

#: Priority of the path-opening forwarding rules.
_FORWARD_PRIORITY = 100
#: Priority of the HTTP-drop firewall rule (above the forwarding rules).
_POLICY_PRIORITY = 300


class FirewallRolloutScenario(Scenario):
    """Open a firewalled route; the firewall rule must beat the traffic."""

    name = "firewall-rollout"
    description = ("open a new route whose firewall rule must be in effect "
                   "first; counts HTTP packets that bypassed the firewall")
    default_topology = "linear"

    def _path(self, network: Network) -> List[str]:
        if not hasattr(self, "_cached_path"):
            source, dest = endpoint_hosts(network)
            self._cached_path = shortest_path(network.topology.full_graph(), source, dest)
        return self._cached_path

    def _path_switches(self, network: Network) -> List[str]:
        return [node for node in self._path(network) if node in network.switches]

    def firewall_switch(self, network: Network) -> str:
        """The path switch carrying the HTTP-drop rule.

        Prefers a buggy hardware switch among the non-ingress path switches —
        the paper's hazard lives in exactly that combination — and falls back
        to the last path switch on an all-software path.
        """
        switches = self._path_switches(network)
        candidates = switches[1:] or switches
        for name in candidates:
            if network.topology.switches[name].kind == "hardware":
                return name
        return candidates[-1]

    def flows(self, network: Network) -> List[FlowSpec]:
        source, dest = endpoint_hosts(network)
        src_host, dst_host = network.host(source), network.host(dest)
        common = dict(
            source=src_host,
            destination=dst_host,
            ip_src=src_host.ip,
            ip_dst=dst_host.ip,
            rate_pps=self.params.rate_pps,
            ip_proto=IP_PROTO_TCP,
        )
        return [
            FlowSpec(flow_id="http", tp_dst=80, **common),
            FlowSpec(flow_id="bulk", tp_dst=5001, **common),
        ]

    def preinstall(self, network: Network, flows: List[FlowSpec]) -> None:
        """Nothing: the route does not exist before the measured update.

        As in Figure 2, table misses drop every packet, so traffic only
        starts flowing once the update opens the path — correctly, behind
        the firewall rule.
        """

    def build_plan(self, network: Network, flows: List[FlowSpec]) -> UpdatePlan:
        http = flows[0]
        path = self._path(network)
        ingress = self._path_switches(network)[0]
        firewall = self.firewall_switch(network)
        plan = UpdatePlan(name="firewall-rollout")

        forwarding = path_flowmods(network, http, path,
                                   priority=_FORWARD_PRIORITY)
        prerequisites = []
        for node, flowmod in forwarding.flowmods.items():
            if node == ingress:
                continue
            prerequisites.append(
                plan.add(node, flowmod, label="rollout", role="new-path")
            )
        drop_http = FlowMod(
            flow_match(http).extended(ip_proto=IP_PROTO_TCP, tp_dst=80),
            [DropAction()],
            priority=_POLICY_PRIORITY,
        )
        prerequisites.append(
            plan.add(firewall, drop_http, label="rollout", role="policy")
        )
        plan.add(ingress, forwarding.flowmods[ingress], after=prerequisites,
                 label="rollout", role="ingress-flip")
        return plan

    def new_path_switches(self, network: Network,
                          flows: List[FlowSpec]) -> Dict[str, str]:
        # The bulk flow's first delivery through the egress switch measures
        # when the route actually opened; HTTP must never arrive at all.
        return {"bulk": self._path_switches(network)[-1]}

    def metrics(self, network: Network, plan: UpdatePlan,
                executor) -> Dict[str, object]:
        monitor = network.monitor
        bypassed = (monitor.received_count("http")
                    if "http" in monitor.flows() else 0)
        return {
            "http_bypassing_firewall": bypassed,
            "bulk_delivered": (monitor.received_count("bulk")
                               if "bulk" in monitor.flows() else 0),
            "firewall_switch": self.firewall_switch(network),
            "rollout_switches": len(self._path_switches(network)),
        }
