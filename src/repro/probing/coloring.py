"""Vertex colouring of the switch graph.

The general probing technique assigns every switch ``i`` a value ``S_i`` of
the reserved header field ``H``; the probe-catch rule at switch ``i`` sends
every packet with ``H == S_i`` to the controller.  Correctness only requires
*adjacent* switches to use different values (otherwise the tested switch
would capture its own probe before forwarding it), so the number of distinct
values can be reduced from one-per-switch to the chromatic number of the
switch graph.  The paper points to the classic Welsh–Powell heuristic, which
is what :func:`welsh_powell_coloring` implements.  The graph is an adjacency
map ``{switch: {neighbour: None}}``
(:meth:`~repro.net.topology.Topology.switch_graph`).
"""

from __future__ import annotations

from typing import Collection, Dict, List, Mapping, Optional

Adjacency = Mapping[str, Collection[str]]


def welsh_powell_coloring(graph: Adjacency) -> Dict[str, int]:
    """Colour ``graph`` greedily in order of decreasing degree.

    Returns a mapping ``node -> colour`` with colours numbered from 0.  The
    classic Welsh–Powell bound guarantees at most ``max_degree + 1`` colours.
    """
    nodes_by_degree: List[str] = sorted(
        graph, key=lambda node: (-len(graph[node]), str(node))
    )
    coloring: Dict[str, int] = {}
    next_color = 0
    for node in nodes_by_degree:
        if node in coloring:
            continue
        coloring[node] = next_color
        # Try to reuse the current colour on every other not-yet-coloured
        # node that has no coloured-with-this-colour neighbour.
        for candidate in nodes_by_degree:
            if candidate in coloring:
                continue
            if all(coloring.get(neighbor) != next_color
                   for neighbor in graph[candidate]):
                coloring[candidate] = next_color
        next_color += 1
    return coloring


def assign_switch_values(
    graph: Adjacency,
    *,
    first_value: int = 1,
    max_value: Optional[int] = None,
) -> Dict[str, int]:
    """Assign each switch the header-field value used by its probe-catch rule.

    Parameters
    ----------
    graph:
        Switch adjacency graph (hosts excluded).
    first_value:
        Smallest value to hand out; value 0 is typically reserved for live
        traffic, which must never collide with a probe-catch value.
    max_value:
        Largest representable value of the chosen header field (e.g. 63 for
        the ToS field the prototype uses).  Raises :class:`ValueError` when
        the assignment does not fit.
    """
    values = {node: first_value + color
              for node, color in welsh_powell_coloring(graph).items()}
    if max_value is not None and values:
        largest = max(values.values())
        if largest > max_value:
            raise ValueError(
                f"switch value assignment needs values up to {largest}, "
                f"but the probing field only holds {max_value}"
            )
    return values
