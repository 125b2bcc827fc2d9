"""Path computation and per-flow rule construction.

The end-to-end experiments preinstall one exact-match rule per flow per
switch along the flow's path.  These helpers build those FlowMods from a node
path (``["H1", "S1", "S3", "H2"]``) and a flow specification, and can install
them either through the control channel or directly into the switches (for
pre-experiment setup, where the installation process itself is not measured).

Paths are searched on a topology's adjacency map: a bidirectional BFS, and
Yen's loop-free paths by length on top of it.  A path becomes rules, and so
enters every outcome digest: ties go to link order, the smaller fringe
expands first, and equal-length Yen candidates leave in the order found.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from heapq import heappop, heappush
from itertools import count
from typing import Collection, Dict, Iterator, List, Mapping, Optional, Sequence, Tuple

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
    path.  The rules share one :class:`Match` (it is immutable).
    """
    path = list(path)
    if len(path) < 2:
        raise ValueError("a path needs at least a source and a destination")
    rules = PathRules(flow_id=flow.flow_id, path=path)
    match = flow_match(flow)
    for index, node in enumerate(path[:-1]):
        if node not in network.switches:
            continue
        out_port = network.port_between(node, path[index + 1])
        flowmod = FlowMod(
            match,
            [OutputAction(out_port)],
            command=command,
            priority=priority,
        )
        rules.flowmods[node] = flowmod
    return rules


class NoPathError(ValueError):
    """No path joins the two nodes (or one of them is not in the graph)."""


def shortest_path(graph: Mapping[str, Mapping[str, None]], source: str, target: str,
                  avoid: Collection[str] = (),
                  cut: Collection[Tuple[str, str]] = ()) -> List[str]:
    """A fewest-hop path from ``source`` to ``target`` in an adjacency map.

    Nodes in ``avoid`` and links in ``cut`` (either direction) are left
    out.  Raises :class:`NoPathError` when nothing remains to connect them.
    """
    if source not in graph or target not in graph or source in avoid or target in avoid:
        raise NoPathError(f"no path between {source} and {target}")
    pred: Dict[str, Optional[str]] = {source: None}
    succ: Dict[str, Optional[str]] = {target: None}
    meet = source if source == target else None
    forward, reverse = [source], [target]
    while meet is None and forward and reverse:
        # Expand the smaller fringe; stop at the first node both searches saw.
        ahead = len(forward) <= len(reverse)
        level, seen, other = (forward, pred, succ) if ahead else (reverse, succ, pred)
        fringe: List[str] = []
        for node, neighbor in [(node, neighbor) for node in level for neighbor in graph[node]
                               if neighbor not in avoid and (node, neighbor) not in cut
                               and (neighbor, node) not in cut]:
            if neighbor not in seen:
                fringe.append(neighbor)
                seen[neighbor] = node
            if neighbor in other:
                meet = neighbor
                break
        forward, reverse = (fringe, reverse) if ahead else (forward, fringe)
    if meet is None:
        raise NoPathError(f"no path between {source} and {target}")
    path = [meet]
    while pred[path[0]] is not None:
        path.insert(0, pred[path[0]])
    while succ[path[-1]] is not None:
        path.append(succ[path[-1]])
    return path


def shortest_simple_paths(graph: Mapping[str, Mapping[str, None]], source: str,
                          target: str) -> Iterator[List[str]]:
    """Loop-free paths from ``source`` to ``target``, fewest hops first (Yen).

    Lazy: each path drawn costs one round of spur searches.  Equal-length
    candidates come out in the order they were found.
    """
    found: List[List[str]] = []
    candidates: List[Tuple[int, int, List[str]]] = []
    queued, order = set(), count()

    def push(path: List[str]) -> None:
        if tuple(path) not in queued:
            queued.add(tuple(path))
            heappush(candidates, (len(path), next(order), path))

    push(shortest_path(graph, source, target))
    while candidates:
        path = heappop(candidates)[2]
        queued.remove(tuple(path))
        yield path
        found.append(path)
        avoid, cut = set(), set()
        for index in range(1, len(path)):
            root = path[:index]
            cut.update((other[index - 1], other[index]) for other in found
                       if other[:index] == root)
            try:
                push(root[:-1] + shortest_path(graph, root[-1], target, avoid, cut))
            except NoPathError:
                pass
            avoid.add(root[-1])


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
