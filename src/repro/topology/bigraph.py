"""BiGraph topology from EFLOPS (Dong et al., HPCA 2020), per §V-A.

Two layers of switches are fully bipartitely connected; every compute node
attaches to exactly one switch, and switches in the *same* layer have no
direct wires.  We read the paper's "4x8 BiGraph" as *total switches x nodes
per switch*: 2 upper + 2 lower switches with 8 nodes each (32 nodes), and
"4x16" as 2+2 switches with 16 nodes each (64 nodes).

Inter-layer links are multigraph edges with capacity
``nodes_per_switch / switches_per_layer`` so each switch's aggregate uplink
bandwidth equals its attached-node bandwidth (full bisection), the property
EFLOPS relies on for contention-free halving-doubling.

Vertex numbering: nodes ``0..N-1`` (upper-layer switches' nodes first),
switches ``N..N+2*switches_per_layer-1`` (upper layer first).  Node ``i``
attaches to switch ``i // nodes_per_switch``.
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


class BiGraph(Topology):
    def __init__(
        self,
        switches_per_layer: int,
        nodes_per_switch: int,
        bandwidth: float = DEFAULT_BANDWIDTH,
        latency: float = DEFAULT_LATENCY,
        oversub: float = 1.0,
    ) -> None:
        """``oversub`` > 1 runs the inter-layer tier at ``bandwidth /
        oversub``, breaking the full-bisection property EFLOPS assumes —
        the interesting regime for heterogeneity-aware algorithms."""
        if switches_per_layer < 1 or nodes_per_switch < 1:
            raise ValueError("bigraph needs >=1 switch per layer and >=1 node each")
        if oversub < 1.0:
            raise ValueError("oversub ratio must be >= 1, got %r" % oversub)
        if nodes_per_switch % switches_per_layer != 0:
            raise ValueError(
                "nodes_per_switch (%d) must be divisible by switches_per_layer (%d) "
                "for full-bisection inter-layer capacity"
                % (nodes_per_switch, switches_per_layer)
            )
        num_nodes = 2 * switches_per_layer * nodes_per_switch
        super().__init__(num_nodes, "bigraph-%dn" % num_nodes)
        self.switches_per_layer = switches_per_layer
        self.nodes_per_switch = nodes_per_switch
        inter_capacity = nodes_per_switch // switches_per_layer
        inter_bandwidth = bandwidth if oversub == 1.0 else bandwidth / oversub
        for node in self.nodes:
            self._add_bidirectional(node, self.switch_of(node), bandwidth, latency)
        for upper_idx in range(switches_per_layer):
            for lower_idx in range(switches_per_layer):
                self._add_bidirectional(
                    self._switch_vertex(0, upper_idx),
                    self._switch_vertex(1, lower_idx),
                    inter_bandwidth,
                    latency,
                    capacity=inter_capacity,
                )

    # -- vertex helpers -------------------------------------------------------------

    @property
    def num_switches(self) -> int:
        return 2 * self.switches_per_layer

    def _switch_vertex(self, layer: int, idx: int) -> int:
        return self.num_nodes + layer * self.switches_per_layer + idx

    def switch_of(self, node: int) -> int:
        return self.num_nodes + node // self.nodes_per_switch

    def layer_of(self, node: int) -> int:
        """0 for upper-layer nodes, 1 for lower-layer nodes."""
        return (node // self.nodes_per_switch) // self.switches_per_layer

    def switch_members(self, switch: int) -> List[int]:
        idx = switch - self.num_nodes
        start = idx * self.nodes_per_switch
        return list(range(start, start + self.nodes_per_switch))

    # -- routing ------------------------------------------------------------------

    def route(self, src: int, dst: int) -> List[LinkKey]:
        if src == dst:
            return []
        src_sw = self.switch_of(src)
        dst_sw = self.switch_of(dst)
        if src_sw == dst_sw:
            return [(src, src_sw), (src_sw, dst)]
        if self.layer_of(src) != self.layer_of(dst):
            return [(src, src_sw), (src_sw, dst_sw), (dst_sw, dst)]
        # Same layer, different switches: transit through the other layer.
        transit = self._switch_vertex(1 - self.layer_of(src), dst % self.switches_per_layer)
        return [(src, src_sw), (src_sw, transit), (transit, dst_sw), (dst_sw, dst)]

    def allocation_graph(self) -> IndirectAllocationGraph:
        return IndirectAllocationGraph(self)
