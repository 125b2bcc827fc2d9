"""Consistent network updates.

:class:`ConsistentPathMigration` is the per-flow dependency-ordered update
used in the paper's end-to-end experiment (Figure 1a): for every flow, first
install the rules on the switches that are new on the flow's path (switch S2
in the triangle), and only after those are acknowledged flip the ingress
switch (S1) to the new next hop.  A packet therefore always follows either the
complete old path or the complete new path — *provided the acknowledgments
are truthful*, which is exactly what the paper shows is not the case with
barrier-based acknowledgments on real hardware.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

from repro.controller.routing import flow_match
from repro.controller.update_plan import UpdateOperation, UpdatePlan
from repro.net.network import Network
from repro.net.traffic import FlowSpec
from repro.openflow.actions import OutputAction
from repro.openflow.constants import FlowModCommand
from repro.openflow.messages import FlowMod


def _switch_hops(path: Sequence[str], network: Network) -> List[str]:
    """The switches of a host-to-host node path, in order."""
    return [node for node in path if node in network.switches]


def _output_port(network: Network, path: Sequence[str], switch: str) -> int:
    """Port ``switch`` must use towards its successor on ``path``."""
    index = list(path).index(switch)
    return network.port_between(switch, path[index + 1])


@dataclass
class ConsistentPathMigration:
    """Builds the update plan migrating flows from ``old_path`` to ``new_path``."""

    network: Network
    flows: List[FlowSpec]
    old_path: List[str]
    new_path: List[str]
    priority: int = 100

    def ingress_switch(self) -> str:
        """The first switch common to both paths (whose rule gets flipped)."""
        old_switches = _switch_hops(self.old_path, self.network)
        new_switches = _switch_hops(self.new_path, self.network)
        if not old_switches or not new_switches or old_switches[0] != new_switches[0]:
            raise ValueError("old and new paths must share their ingress switch")
        return new_switches[0]

    def build_plan(self) -> UpdatePlan:
        """One pair of operations per flow: prepare downstream, then flip ingress."""
        plan = UpdatePlan(name="path-migration")
        ingress = self.ingress_switch()
        old_switches = _switch_hops(self.old_path, self.network)
        new_switches = _switch_hops(self.new_path, self.network)

        for flow in self.flows:
            match = flow_match(flow)
            prerequisites: List[UpdateOperation] = []
            for switch in new_switches:
                if switch == ingress:
                    continue
                new_port = _output_port(self.network, self.new_path, switch)
                needs_rule = switch not in old_switches
                if not needs_rule:
                    old_port = _output_port(self.network, self.old_path, switch)
                    needs_rule = old_port != new_port
                if not needs_rule:
                    continue
                flowmod = FlowMod(match, [OutputAction(new_port)],
                                  command=FlowModCommand.ADD, priority=self.priority)
                prerequisites.append(
                    plan.add(switch, flowmod, label=flow.flow_id, role="new-path")
                )
            ingress_port = _output_port(self.network, self.new_path, ingress)
            flip = FlowMod(match, [OutputAction(ingress_port)],
                           command=FlowModCommand.ADD, priority=self.priority)
            plan.add(ingress, flip, after=prerequisites,
                     label=flow.flow_id, role="ingress-flip")
        return plan
