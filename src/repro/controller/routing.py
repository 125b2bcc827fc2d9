"""Path computation and per-flow rule construction.

The end-to-end experiments preinstall one exact-match rule per flow per
switch along the flow's path.  These helpers build those FlowMods from a node
path (``["H1", "S1", "S3", "H2"]``) and a flow specification, and can install
them either through the control channel or directly into the switches (for
pre-experiment setup, where the installation process itself is not measured).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import networkx as nx

from repro.net.network import Network
from repro.net.traffic import FlowSpec
from repro.openflow.actions import OutputAction
from repro.openflow.constants import FlowModCommand
from repro.openflow.match import Match
from repro.openflow.messages import FlowMod


@dataclass
class PathRules:
    """The per-switch FlowMods implementing one flow's path."""

    flow_id: str
    path: List[str]
    flowmods: Dict[str, FlowMod] = field(default_factory=dict)

    def switches(self) -> List[str]:
        """Switches on the path, in path order."""
        return [node for node in self.path if node in self.flowmods]


def flow_match(flow: FlowSpec) -> Match:
    """The exact IP source/destination match used for one flow's rules.

    The prototype section of the paper assumes non-overlapping rules matching
    on source and destination address, which is what the experiments use.
    """
    return Match(ip_src=flow.ip_src, ip_dst=flow.ip_dst)


def path_flowmods(
    network: Network,
    flow: FlowSpec,
    path: Sequence[str],
    priority: int = 100,
    command: FlowModCommand = FlowModCommand.ADD,
) -> PathRules:
    """Build one FlowMod per switch along ``path`` for ``flow``.

    ``path`` must list node names from the source host to the destination
    host; every switch's rule outputs on the port facing the next node in the
    path.
    """
    path = list(path)
    if len(path) < 2:
        raise ValueError("a path needs at least a source and a destination")
    rules = PathRules(flow_id=flow.flow_id, path=path)
    for index, node in enumerate(path[:-1]):
        if node not in network.switches:
            continue
        out_port = network.port_between(node, path[index + 1])
        flowmod = FlowMod(
            flow_match(flow),
            [OutputAction(out_port)],
            command=command,
            priority=priority,
        )
        rules.flowmods[node] = flowmod
    return rules


def shortest_path(network: Network, source_host: str, destination_host: str,
                  avoid: Optional[Sequence[str]] = None) -> List[str]:
    """Shortest node path between two hosts, optionally avoiding some switches."""
    graph = network.topology.full_graph()  # a fresh graph: ours to prune
    for node in avoid or []:
        if node in graph:
            graph.remove_node(node)
    return nx.shortest_path(graph, source_host, destination_host)


def first_distinct_switch(old_path: Sequence[str], new_path: Sequence[str],
                          switches) -> Optional[str]:
    """The first switch of ``new_path`` that ``old_path`` does not visit.

    ``switches`` is the collection of switch names (anything supporting
    ``in``).  This is the switch whose traversal lets the delivery monitor
    tell the two routes apart; ``None`` when the new path adds no switch.
    """
    old_nodes = set(old_path)
    for node in new_path:
        if node in switches and node not in old_nodes:
            return node
    return None


def shortest_path_avoiding_edge(
    graph: nx.Graph,
    source: str,
    destination: str,
    edge: Tuple[str, str],
) -> Optional[List[str]]:
    """Shortest path that does not traverse ``edge``, or ``None`` if cut off.

    Used by the link-failure scenario: the drained/failed link is removed and
    traffic is rerouted over whatever connectivity remains.
    """
    pruned = graph.copy()
    if pruned.has_edge(*edge):
        pruned.remove_edge(*edge)
    try:
        return list(nx.shortest_path(pruned, source, destination))
    except nx.NetworkXNoPath:
        return None


def install_path_rules(
    network: Network,
    rules: PathRules,
    *,
    directly: bool = True,
    controller=None,
    priority: int = 100,
) -> List[FlowMod]:
    """Install a flow's path rules.

    With ``directly=True`` the rules are written straight into both switch
    planes (pre-experiment setup).  Otherwise ``controller`` must be given
    and the rules are sent through the control channel with
    :meth:`~repro.controller.base.Controller.send_flowmod`.
    """
    issued = []
    for switch_name, flowmod in rules.flowmods.items():
        if directly:
            network.switch(switch_name).install_rule_directly(flowmod)
        else:
            if controller is None:
                raise ValueError("controller required when directly=False")
            controller.send_flowmod(switch_name, flowmod)
        issued.append(flowmod)
    return issued


def install_drop_all(network: Network, switch_names: Optional[Sequence[str]] = None,
                     priority: int = 1) -> None:
    """Pre-install a low-priority drop-all rule on the given switches.

    The low-level benchmark setup in Section 5.2 starts from "a single, low
    priority drop-all-packets rule at the switch"; the end-to-end experiment
    behaves the same way implicitly because a table miss drops the packet.
    Installing the rule explicitly also exercises the probe generator's
    overlapping-rule logic (a drop-all is the canonical lower-priority
    overlap).
    """
    from repro.openflow.actions import DropAction

    for name in switch_names if switch_names is not None else network.switch_names():
        flowmod = FlowMod(Match(), [DropAction()], priority=priority)
        network.switch(name).install_rule_directly(flowmod)
