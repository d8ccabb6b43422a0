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

from fractions import Fraction
from typing import List, Sequence

from ..topology.grid import Grid2D
from .schedule import ChunkRange, CommOp, OpKind, Schedule


def _ring_allreduce_ops(
    members: Sequence[int],
    base_lo: Fraction,
    part_fraction: Fraction,
    first_step: int,
    flow_base: int,
    ops: List[CommOp],
) -> int:
    """Append a ring all-reduce of ``part_fraction`` data over ``members``.

    The part is split into ``len(members)`` chunks; reduce-scatter then
    all-gather rotate them around the ring.  Returns the number of steps
    used (``2 * (len(members) - 1)``).
    """
    n = len(members)
    chunk_size = part_fraction / n
    chunks = [
        ChunkRange(base_lo + index * chunk_size,
                   base_lo + (index + 1) * chunk_size)
        for index in range(n)
    ]

    for t in range(1, n):
        for p in range(n):
            chunk = (p - t + 1) % n
            ops.append(
                CommOp(
                    kind=OpKind.REDUCE,
                    src=members[p],
                    dst=members[(p + 1) % n],
                    chunk=chunks[chunk],
                    step=first_step + t - 1,
                    flow=flow_base + chunk,
                )
            )
    for t in range(1, n):
        for p in range(n):
            chunk = (p - t + 2) % n
            ops.append(
                CommOp(
                    kind=OpKind.GATHER,
                    src=members[p],
                    dst=members[(p + 1) % n],
                    chunk=chunks[chunk],
                    step=first_step + n - 1 + t - 1,
                    flow=flow_base + chunk,
                )
            )
    return 2 * (n - 1)


def ring2d_allreduce(topology: Grid2D) -> Schedule:
    """Build the four-part concurrent 2D-Ring schedule for a Torus/Mesh."""
    if not isinstance(topology, Grid2D):
        raise TypeError("2D-Ring is dedicated to 2D Torus/Mesh networks (Table I)")
    width, height = topology.width, topology.height
    quarter = Fraction(1, 4)

    ops: List[CommOp] = []
    flow_base = 0
    # part = (first dimension, ring direction): four concurrent streams.
    for part_idx, (first_dim, forward) in enumerate(
        [("x", True), ("x", False), ("y", True), ("y", False)]
    ):
        base_lo = part_idx * quarter
        phases = ("x", "y") if first_dim == "x" else ("y", "x")
        step = 1
        for dim in phases:
            if dim == "x":
                lines = [topology.row_members(y) for y in range(height)]
            else:
                lines = [topology.col_members(x) for x in range(width)]
            used = 0
            for line in lines:
                members = list(line) if forward else list(reversed(line))
                used = _ring_allreduce_ops(
                    members, base_lo, quarter, step, flow_base, ops
                )
            step += used
            flow_base += max(width, height)
    return Schedule(
        topology=topology,
        ops=ops,
        algorithm="2d-ring",
        metadata={"width": width, "height": height, "parts": 4},
    )
