"""Social-graph substrate: CSR digraph, generators, traversal, edge-list I/O."""

from repro.graph.digraph import GraphBuilder, SocialGraph
from repro.graph.generators import (
    citation_dag,
    erdos_renyi_digraph,
    preferential_attachment_digraph,
    small_world_digraph,
)
from repro.graph.io import read_edge_list, write_edge_list
from repro.graph.traversal import bfs_reachable, max_probability_paths

__all__ = [
    "GraphBuilder",
    "SocialGraph",
    "citation_dag",
    "erdos_renyi_digraph",
    "preferential_attachment_digraph",
    "small_world_digraph",
    "read_edge_list",
    "write_edge_list",
    "bfs_reachable",
    "max_probability_paths",
]
