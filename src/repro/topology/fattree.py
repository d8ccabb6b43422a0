"""Two-level Fat-Tree topology (DGX-2-like and 8-ary, §V-A).

``num_leaves`` leaf switches each attach ``nodes_per_leaf`` compute nodes and
connect upward to every one of ``num_spines`` spine switches.  With
``num_spines == nodes_per_leaf`` the network has full bisection bandwidth,
matching the paper's 16-node DGX-2-like instance (4 leaves x 4 nodes,
4 spines) and the 64-node 8-ary 2-level instance (8 leaves x 8 nodes,
8 spines).

Vertex numbering: nodes ``0..N-1``, leaf switches ``N..N+L-1``, spine
switches ``N+L..N+L+S-1``.  Node ``i`` attaches to leaf ``i // nodes_per_leaf``.
Routing is deterministic up-down; the spine for a leaf-to-leaf route is
picked by the destination node's index within its leaf, which spreads
simultaneous flows across spines the way static destination-based routing
tables do.
"""

from __future__ import annotations

from typing import List

from .base import (
    DEFAULT_BANDWIDTH,
    DEFAULT_LATENCY,
    IndirectAllocationGraph,
    LinkKey,
    Topology,
)


class FatTree(Topology):
    def __init__(
        self,
        num_leaves: int,
        nodes_per_leaf: int,
        num_spines: int = 0,
        bandwidth: float = DEFAULT_BANDWIDTH,
        latency: float = DEFAULT_LATENCY,
        oversub: float = 1.0,
    ) -> None:
        """``oversub`` > 1 runs the leaf-spine tier at ``bandwidth /
        oversub`` (an oversubscribed fabric); node-leaf edge links always
        keep the full rate."""
        if num_leaves < 1 or nodes_per_leaf < 1:
            raise ValueError("fat-tree needs >=1 leaf and >=1 node per leaf")
        if oversub < 1.0:
            raise ValueError("oversub ratio must be >= 1, got %r" % oversub)
        num_spines = num_spines or nodes_per_leaf
        num_nodes = num_leaves * nodes_per_leaf
        super().__init__(num_nodes, "fattree-%dn" % num_nodes)
        self.num_leaves = num_leaves
        self.nodes_per_leaf = nodes_per_leaf
        self.num_spines = num_spines
        spine_bandwidth = bandwidth if oversub == 1.0 else bandwidth / oversub
        for node in self.nodes:
            self._add_bidirectional(node, self.leaf_of(node), bandwidth, latency)
        for leaf_idx in range(num_leaves):
            for spine_idx in range(num_spines):
                self._add_bidirectional(
                    self._leaf_vertex(leaf_idx),
                    self._spine_vertex(spine_idx),
                    spine_bandwidth,
                    latency,
                )

    # -- vertex helpers ----------------------------------------------------------

    @property
    def num_switches(self) -> int:
        return self.num_leaves + self.num_spines

    def _leaf_vertex(self, leaf_idx: int) -> int:
        return self.num_nodes + leaf_idx

    def _spine_vertex(self, spine_idx: int) -> int:
        return self.num_nodes + self.num_leaves + spine_idx

    def leaf_of(self, node: int) -> int:
        return self._leaf_vertex(node // self.nodes_per_leaf)

    def leaf_members(self, leaf_idx: int) -> List[int]:
        start = leaf_idx * self.nodes_per_leaf
        return list(range(start, start + self.nodes_per_leaf))

    # -- routing -------------------------------------------------------------------

    def route(self, src: int, dst: int) -> List[LinkKey]:
        if src == dst:
            return []
        src_leaf = self.leaf_of(src)
        dst_leaf = self.leaf_of(dst)
        if src_leaf == dst_leaf:
            return [(src, src_leaf), (src_leaf, dst)]
        spine = self._spine_vertex(dst % self.num_spines)
        return [(src, src_leaf), (src_leaf, spine), (spine, dst_leaf), (dst_leaf, dst)]

    def allocation_graph(self) -> IndirectAllocationGraph:
        return IndirectAllocationGraph(self)
