"""Hierarchical ring all-reduce (BlueConnect-style, ref. [33] of the paper).

BlueConnect decomposes all-reduce over the dimensions of a logical grid
matched to the network hierarchy.  On switch-based networks the natural
two-level grid is (switch group) x (position within group): a full ring
all-reduce runs concurrently inside every switch group (one-switch-hop
neighbors), then a second ring all-reduce runs across groups between nodes
holding the same position (cross-switch).  Like 2D-Ring this trades ~2x
data volume for far fewer, mostly-local steps — a realistic additional
baseline for Fat-Tree/BiGraph topologies that the paper cites but does not
plot.
"""

from __future__ import annotations

import math
from typing import List

import numpy as np

from ..topology.base import Topology
from ..topology.bigraph import BiGraph
from ..topology.fattree import FatTree
from .ring import ring_rotation
from .schedule import Schedule


def _node_groups(topology: Topology) -> List[List[int]]:
    if isinstance(topology, FatTree):
        return [topology.leaf_members(i) for i in range(topology.num_leaves)]
    if isinstance(topology, BiGraph):
        return [
            topology.switch_members(topology.num_nodes + i)
            for i in range(topology.num_switches)
        ]
    raise ValueError(
        "hierarchical all-reduce needs a switch-grouped topology "
        "(FatTree or BiGraph), got %s" % topology.name
    )


def hierarchical_allreduce(topology: Topology) -> Schedule:
    """Two-level ring all-reduce: within switch groups, then across them.

    Both phases all-reduce the whole gradient with one
    :func:`~repro.collectives.ring.ring_rotation` each: over the group
    matrix (flows from 0), then over its transpose (position ``p``'s
    ring starts at flow ``group_size + p * groups``).  The schedule is
    column-backed.
    """
    groups = _node_groups(topology)
    sizes = {len(g) for g in groups}
    if len(sizes) != 1:
        raise ValueError("switch groups must be equal-sized")
    group_size = sizes.pop()
    num_groups = len(groups)
    if group_size < 2 or num_groups < 2:
        raise ValueError("need at least 2 groups of at least 2 nodes")

    grain = math.lcm(group_size, num_groups)
    members = np.array(groups)
    # Phase 1: ring all-reduce of the full gradient inside every group.
    inside = ring_rotation(members, 1, 0, 0, grain // group_size)
    # Phase 2: ring all-reduce across groups (same position in each group).
    across = ring_rotation(
        members.T,
        1 + 2 * (group_size - 1),
        group_size + num_groups * np.arange(group_size),
        0,
        grain // num_groups,
    )
    return Schedule.from_columns(
        topology,
        np.concatenate((inside, across), axis=1),
        grain,
        algorithm="hierarchical",
        metadata={"groups": num_groups, "group_size": group_size},
    )
