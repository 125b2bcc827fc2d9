"""networkx as the reference for the graph code of ``src/``.

``src/`` searches paths and colours switches on plain adjacency maps
``{node: {neighbour: None}}``.  Here is what it replaced: the topology's
graph exactly as it was built for networkx, the Welsh–Powell colouring as it
read a networkx graph, and the conversions the tests use between the two.
"""

import networkx as nx


def topology_graph(topology, switches_only=False):
    """The ``nx.Graph`` a topology's paths (or, ``switches_only``, its probe
    colouring) were computed on: every node, then one ``add_edge`` per link
    in link order."""
    nodes = list(topology.switches) if switches_only else topology.node_names()
    graph = nx.Graph()
    graph.add_nodes_from(nodes)
    graph.add_edges_from((link.node_a, link.node_b) for link in topology.links
                         if link.node_a in graph and link.node_b in graph)
    return graph


def adjacency(graph):
    """``graph``'s adjacency map, neighbours in networkx's order."""
    return {node: dict.fromkeys(graph[node]) for node in graph}


def welsh_powell_coloring(graph):
    """The colouring ``src/`` ran on a networkx graph, line for line."""
    nodes_by_degree = sorted(
        graph.nodes, key=lambda node: (-graph.degree[node], str(node))
    )
    coloring = {}
    next_color = 0
    for node in nodes_by_degree:
        if node in coloring:
            continue
        coloring[node] = next_color
        for candidate in nodes_by_degree:
            if candidate in coloring:
                continue
            if all(coloring.get(neighbor) != next_color
                   for neighbor in graph.neighbors(candidate)):
                coloring[candidate] = next_color
        next_color += 1
    return coloring


def validate_coloring(graph, coloring):
    """Whether no two adjacent nodes share a colour (a networkx graph or an
    adjacency map)."""
    return all(coloring[a] != coloring[b] for a in graph for b in graph[a])
