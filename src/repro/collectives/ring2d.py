"""2D-Ring all-reduce (Ying et al., "Image Classification at Supercomputer
Scale"), §II-C / §VI-A.

The gradient is all-reduced once per grid dimension: after a ring
all-reduce inside every row each node holds its row's sum, and a second
ring all-reduce inside every column then produces the global sum.  Per
dimension every node transmits ``2(W-1)/W`` of the data it reduces, so the
total volume is ~2x that of a bandwidth-optimal algorithm — the paper's
``2N(N-1)`` vs ``N^2-1`` comparison (each dimension's all-reduce moves
``2N(N-1)`` chunks of ``D/N^2``, versus ``N^2-1`` for one flat-ring phase).

To fully utilize the torus links (the property the paper grants 2D-Ring),
the gradient is split into four concurrent parts: {X-then-Y, Y-then-X} x
{forward ring, backward ring}.  At steady state the four parts keep all
four outgoing links of every node busy, trading 2x data volume for 4x link
parallelism and far fewer steps than a flat ring.

On a mesh, a dimension has no wraparound link, so each ring's wrap transfer
crosses the whole row/column; per-step latency is then set by that slowest
pair — the §VI-A effect that makes 2D-Ring lose to flat Ring on the 8x8
Mesh.
"""

from __future__ import annotations

import math

import numpy as np

from ..topology.grid import Grid2D
from .ring import ring_rotation
from .schedule import Schedule


def ring2d_allreduce(topology: Grid2D) -> Schedule:
    """Build the four-part concurrent 2D-Ring schedule for a Torus/Mesh.

    Part ``k`` owns the gradient quarter ``[k/4, (k+1)/4)``.  Each of its
    two phases runs one :func:`~repro.collectives.ring.ring_rotation`
    over every row (or column) of the grid at once, so the schedule is
    column-backed at granularity ``4 * lcm(width, height)``.  Flow ids
    advance by ``max(width, height)`` per (part, phase).
    """
    if not isinstance(topology, Grid2D):
        raise ValueError("2D-Ring is dedicated to 2D Torus/Mesh networks (Table I)")
    width, height = topology.width, topology.height
    grain = 4 * math.lcm(width, height)
    lines = {
        "x": np.array([topology.row_members(y) for y in range(height)]),
        "y": np.array([topology.col_members(x) for x in range(width)]),
    }

    tables = []
    flow_base = 0
    # part = (first dimension, ring direction): four concurrent streams.
    for part_idx, (first_dim, forward) in enumerate(
        [("x", True), ("x", False), ("y", True), ("y", False)]
    ):
        phases = ("x", "y") if first_dim == "x" else ("y", "x")
        step = 1
        for dim in phases:
            members = lines[dim] if forward else lines[dim][:, ::-1]
            n = members.shape[1]
            tables.append(ring_rotation(
                members, step, flow_base, part_idx * grain // 4, grain // (4 * n)
            ))
            step += 2 * (n - 1)
            flow_base += max(width, height)
    return Schedule.from_columns(
        topology,
        np.concatenate(tables, axis=1),
        grain,
        algorithm="2d-ring",
        metadata={"width": width, "height": height, "parts": 4},
    )
