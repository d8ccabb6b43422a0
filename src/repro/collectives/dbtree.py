"""Double binary tree all-reduce (Sanders et al.; NCCL), §II-C.

Two complementary binary trees are built over the ranks: the leaves of one
tree are internal nodes of the other, so when each tree carries half of the
gradient every rank both sends and receives at full rate.  Blocks are
pipelined up (reduce) and down (broadcast) the trees, and the two trees are
interleaved on even/odd time steps so a rank never sends in both trees in
the same step (Fig. 4b).

The trees are *topology-oblivious* by design — rank ``r`` is node ``r`` —
which is exactly the property the paper criticizes: tree edges can span
multiple physical hops and contend on unfriendly topologies such as Torus.

Tree 1 uses the classic least-significant-bit construction on 1-based ranks
(odd ranks are leaves); tree 2 shifts ranks by one when ``n`` is even and
mirrors them when ``n`` is odd, making the two leaf sets complementary.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from ..topology.base import Topology
from .schedule import Schedule


@dataclass
class BinaryTree:
    """Parent/children maps over 0-based ranks."""

    root: int
    parent: Dict[int, int] = field(default_factory=dict)
    children: Dict[int, List[int]] = field(default_factory=dict)

    def add_edge(self, parent: int, child: int) -> None:
        self.parent[child] = parent
        self.children.setdefault(parent, []).append(child)

    def nodes(self) -> List[int]:
        return [self.root] + list(self.parent)

    def height_of(self, node: int) -> int:
        """Longest distance from ``node`` down to a leaf of its subtree."""
        kids = self.children.get(node, [])
        if not kids:
            return 0
        return 1 + max(self.height_of(c) for c in kids)

    def depth_of(self, node: int) -> int:
        depth = 0
        while node != self.root:
            node = self.parent[node]
            depth += 1
        return depth


def _lsb_tree(n: int) -> BinaryTree:
    """The in-order lsb binary tree over 1-based ranks ``1..n``.

    Rank ``r`` with least significant set bit ``b`` has children ``r - b/2``
    and ``r + b/2``; when the right child exceeds ``n`` the offset is halved
    until a valid rank is found (the standard clamping for non-power-of-two
    sizes).  Odd ranks are leaves.  The root is the largest power of two
    ``<= n``.
    """
    root = 1
    while root * 2 <= n:
        root *= 2
    tree = BinaryTree(root=root - 1)

    def attach(rank: int, offset: int) -> None:
        if offset < 1:
            return
        left = rank - offset
        if left >= 1:
            tree.add_edge(rank - 1, left - 1)
            attach(left, offset // 2)
        right = rank + offset
        while right > n and offset > 1:
            offset //= 2
            right = rank + offset
        if right <= n and right != rank:
            tree.add_edge(rank - 1, right - 1)
            attach(right, offset // 2)

    attach(root, root // 2)
    return tree


def _remap(tree: BinaryTree, mapping: Dict[int, int]) -> BinaryTree:
    out = BinaryTree(root=mapping[tree.root])
    for child, parent in tree.parent.items():
        out.add_edge(mapping[parent], mapping[child])
    return out


def double_binary_trees(n: int) -> List[BinaryTree]:
    """The two complementary trees over 0-based ranks ``0..n-1``."""
    if n < 2:
        raise ValueError("need at least 2 ranks")
    base = _lsb_tree(n)
    if n % 2 == 0:
        shifted = {r: (r + 1) % n for r in range(n)}
    else:
        shifted = {r: n - 1 - r for r in range(n)}
    return [base, _remap(base, shifted)]


def dbtree_allreduce(
    topology: Topology, num_blocks: Optional[int] = None
) -> Schedule:
    """Build the pipelined double-binary-tree all-reduce schedule.

    Each tree carries one half of the gradient, split into ``num_blocks``
    pipeline blocks (default ``max(2, n // 2)``, which matches ring's
    per-step chunk size).  Within each tree, a node of height ``h`` forwards
    block ``j`` to its parent at local reduce step ``j + h + 1``; the
    broadcast mirrors with depth.  Tree 0 communicates on odd global steps
    and tree 1 on even steps.

    The schedule is column-backed: each tree's edges are expanded over
    (block, edge) with numpy, at granularity ``2 * num_blocks`` (block
    ``j`` of tree ``k`` is unit ``k * num_blocks + j``), and flow ``k``.
    """
    n = topology.num_nodes
    blocks = num_blocks if num_blocks is not None else max(2, n // 2)
    if blocks < 1:
        raise ValueError("num_blocks must be >= 1")
    trees = double_binary_trees(n)

    reduce_span = 0
    plans = []
    for tree in trees:
        heights = {node: tree.height_of(node) for node in tree.nodes()}
        depths = {node: tree.depth_of(node) for node in tree.nodes()}
        plans.append((tree, heights, depths))
        local_last = blocks + max(heights.values())  # last local reduce step
        reduce_span = max(reduce_span, 2 * local_last)

    tables = []
    block = np.arange(blocks)[:, None, None]
    phase = np.arange(2)
    for tree_idx, (tree, heights, depths) in enumerate(plans):
        child = np.fromiter(tree.parent.keys(), dtype=np.int64)
        parent = np.fromiter(tree.parent.values(), dtype=np.int64)
        height = np.array([heights[c] for c in child.tolist()], dtype=np.int64)
        depth = np.array([depths[c] for c in child.tolist()], dtype=np.int64)
        # Per (block, edge): the reduce op (child -> parent), then the
        # broadcast op (parent -> child) of the same block.
        edge = np.stack((child, parent), axis=1)[None]
        table = np.empty((7, blocks, len(child), 2), dtype=np.int64)
        table[0] = edge
        table[1] = edge[..., ::-1]
        table[2] = np.where(
            phase == 0,
            2 * (block + height[:, None] + 1) - 1,
            reduce_span + 2 * (block + depth[:, None]) - 1,
        ) + tree_idx
        table[3] = phase
        table[4] = tree_idx
        table[5] = tree_idx * blocks + block
        table[6] = table[5] + 1
        tables.append(table.reshape(7, -1))
    return Schedule.from_columns(
        topology,
        np.concatenate(tables, axis=1),
        2 * blocks,
        algorithm="dbtree",
        metadata={"num_blocks": blocks, "roots": [t.root for t in trees]},
    )
