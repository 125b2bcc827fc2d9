"""Consistent network updates.

Two update strategies are provided:

* :class:`ConsistentPathMigration` — the per-flow dependency-ordered update
  used in the paper's end-to-end experiment (Figure 1a): for every flow,
  first install the rules on the switches that are new on the flow's path
  (switch S2 in the triangle), and only after those are acknowledged flip the
  ingress switch (S1) to the new next hop.  A packet therefore always follows
  either the complete old path or the complete new path — *provided the
  acknowledgments are truthful*, which is exactly what the paper shows is not
  the case with barrier-based acknowledgments on real hardware.

* :class:`TwoPhaseVersionedUpdate` — a Reitblatt-style two-phase commit using
  a version tag carried in the VLAN id: internal rules for the new
  configuration are installed matching the new version, and ingress switches
  are flipped to stamp the new version only once every internal rule is
  acknowledged.  This is the general mechanism the papers cited in the
  introduction build on; it is included both as an extension and as a second
  consumer of the acknowledgment layer.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence

from repro.controller.routing import flow_match
from repro.controller.update_plan import UpdateOperation, UpdatePlan
from repro.net.network import Network
from repro.net.traffic import FlowSpec
from repro.openflow.actions import OutputAction, SetFieldAction
from repro.openflow.constants import FlowModCommand
from repro.openflow.messages import FlowMod
from repro.packet.fields import HeaderField


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
    #: Also delete the old-path rules on switches that are no longer used
    #: (not measured in the paper's experiment, hence off by default).
    cleanup: bool = False

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
            flip_op = plan.add(ingress, flip, after=prerequisites,
                               label=flow.flow_id, role="ingress-flip")
            if self.cleanup:
                for switch in old_switches:
                    if switch in new_switches:
                        continue
                    delete = FlowMod(match, [], command=FlowModCommand.DELETE,
                                     priority=self.priority)
                    plan.add(switch, delete, after=[flip_op],
                             label=flow.flow_id, role="cleanup")
        return plan


@dataclass
class TwoPhaseVersionedUpdate:
    """Reitblatt-style two-phase consistent update with VLAN version tags."""

    network: Network
    flows: List[FlowSpec]
    new_paths: Dict[str, List[str]]
    old_version: int = 1
    new_version: int = 2
    priority: int = 200
    #: Delete the old-version internal rules once the ingress flip is done.
    garbage_collect: bool = False

    def build_plan(self) -> UpdatePlan:
        """Phase 1 installs versioned internal rules, phase 2 flips ingress stamps."""
        if self.old_version == self.new_version:
            raise ValueError("old and new versions must differ")
        plan = UpdatePlan(name="two-phase-versioned")
        for flow in self.flows:
            path = self.new_paths[flow.flow_id]
            switches = _switch_hops(path, self.network)
            if not switches:
                raise ValueError(f"flow {flow.flow_id} has no switches on its path")
            ingress, internal = switches[0], switches[1:]
            base_match = flow_match(flow)
            phase_one: List[UpdateOperation] = []

            for position, switch in enumerate(internal):
                out_port = _output_port(self.network, path, switch)
                versioned = base_match.extended(vlan_id=self.new_version)
                actions = [OutputAction(out_port)]
                if position == len(internal) - 1:
                    # Last switch strips the version tag before the host.
                    actions = [SetFieldAction(HeaderField.VLAN_ID, 0), OutputAction(out_port)]
                flowmod = FlowMod(versioned, actions, command=FlowModCommand.ADD,
                                  priority=self.priority)
                phase_one.append(
                    plan.add(switch, flowmod, label=flow.flow_id, role="new-path")
                )

            ingress_port = _output_port(self.network, path, ingress)
            stamp = FlowMod(
                base_match,
                [SetFieldAction(HeaderField.VLAN_ID, self.new_version),
                 OutputAction(ingress_port)],
                command=FlowModCommand.ADD,
                priority=self.priority,
            )
            flip_op = plan.add(ingress, stamp, after=phase_one,
                               label=flow.flow_id, role="ingress-flip")

            if self.garbage_collect:
                for switch in internal:
                    old_match = base_match.extended(vlan_id=self.old_version)
                    delete = FlowMod(old_match, [], command=FlowModCommand.DELETE_STRICT,
                                     priority=self.priority)
                    plan.add(switch, delete, after=[flip_op],
                             label=flow.flow_id, role="cleanup")
        return plan
