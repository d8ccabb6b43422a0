"""Ring all-reduce (Baidu / Patarasuk-Yuan), §II-B.

The gradient is split into ``n`` chunks.  Reduce-scatter rotates partial
sums around the ring for ``n-1`` steps, leaving chunk ``c`` fully reduced on
the ring position preceding ``c``; all-gather rotates the reduced chunks for
another ``n-1`` steps.  The logical ring is embedded into the physical
topology by :func:`repro.topology.rings.ring_order`, which yields a
Hamiltonian cycle on grids so every transfer is a single hop.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from ..topology.base import Topology
from ..topology.rings import ring_order
from .schedule import ChunkRange, CommOp, OpKind, Schedule


def ring_allreduce(topology: Topology, order: Optional[Sequence[int]] = None) -> Schedule:
    """Build the ring all-reduce schedule for ``topology``.

    ``order`` optionally overrides the embedded ring (a permutation of the
    node ids); position ``p`` sends to position ``p+1 (mod n)``.
    """
    members = list(order) if order is not None else ring_order(topology)
    n = len(members)
    if sorted(members) != list(topology.nodes):
        raise ValueError("ring order must be a permutation of all nodes")

    chunks = [ChunkRange.nth_of(index, n) for index in range(n)]
    ops: List[CommOp] = []
    # Reduce-scatter: at step t (1-based), position p forwards chunk
    # (p - t + 1) mod n to its successor, which aggregates it.
    for t in range(1, n):
        for p in range(n):
            chunk = (p - t + 1) % n
            ops.append(
                CommOp(
                    kind=OpKind.REDUCE,
                    src=members[p],
                    dst=members[(p + 1) % n],
                    chunk=chunks[chunk],
                    step=t,
                    flow=chunk,
                )
            )
    # After n-1 steps position p owns chunk (p+1) mod n.  All-gather forwards
    # owned chunks around the ring for another n-1 steps.
    for t in range(1, n):
        for p in range(n):
            chunk = (p - t + 2) % n
            ops.append(
                CommOp(
                    kind=OpKind.GATHER,
                    src=members[p],
                    dst=members[(p + 1) % n],
                    chunk=chunks[chunk],
                    step=n - 1 + t,
                    flow=chunk,
                )
            )
    return Schedule(
        topology=topology,
        ops=ops,
        algorithm="ring",
        metadata={"order": members},
    )
