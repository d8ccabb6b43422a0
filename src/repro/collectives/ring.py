"""Ring all-reduce (Baidu / Patarasuk-Yuan), §II-B.

The gradient is split into ``n`` chunks.  Reduce-scatter rotates partial
sums around the ring for ``n-1`` steps, leaving chunk ``c`` fully reduced on
the ring position preceding ``c``; all-gather rotates the reduced chunks for
another ``n-1`` steps.  The logical ring is embedded into the physical
topology by :func:`repro.topology.rings.ring_order`, which yields a
Hamiltonian cycle on grids so every transfer is a single hop.

:func:`ring_rotation` is the one ring rule: each step is the permutation
"position ``p`` sends to ``p + 1``" over a matrix of ring members, the
form Swing (arXiv 2401.09356) uses to define ring-family all-reduces.
2D-Ring and the hierarchical all-reduce emit their rings through it too.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from ..topology.base import Topology
from ..topology.rings import ring_order
from .schedule import Schedule


def ring_rotation(members, first_step: int, flows, lo: int, width: int) -> np.ndarray:
    """The op table of concurrent ring all-reduces, one per row of ``members``.

    ``members`` is an ``(R, n)`` matrix of node ids; in each row
    position ``p`` sends to position ``p + 1 (mod n)``.  Every ring
    all-reduces the same span, split into ``n`` chunks of ``width``
    units from unit ``lo``.  At reduce-scatter step ``t`` (global step
    ``first_step + t - 1``, ``t = 1..n-1``) position ``p`` forwards chunk
    ``(p - t + 1) mod n``, which its successor aggregates; after that
    position ``p`` owns chunk ``(p + 1) mod n``, and all-gather step
    ``t`` (global step ``first_step + n - 2 + t``) forwards chunk
    ``(p - t + 2) mod n``.  Chunk ``c`` of ring ``r`` is flow
    ``flows[r] + c`` (``flows`` is a scalar or one id per ring).

    Returns a ``(7, 2R(n-1)n)`` op table
    (:meth:`~repro.collectives.schedule.Schedule.from_columns`) with its
    ops ordered by ring, phase, step, then position.
    """
    members = np.asarray(members, dtype=np.int64)
    rings, n = members.shape
    t = np.arange(1, n)[:, None]
    p = np.arange(n)
    phase = np.arange(2)[:, None, None]
    chunk = (p - t + 1 + phase) % n
    flows = np.broadcast_to(np.asarray(flows, dtype=np.int64), (rings,))
    table = np.empty((7, rings, 2, n - 1, n), dtype=np.int64)
    table[0] = members[:, None, None, :]
    table[1] = np.roll(members, -1, axis=1)[:, None, None, :]
    table[2] = first_step - 1 + phase * (n - 1) + t
    table[3] = phase
    table[4] = flows[:, None, None, None] + chunk
    table[5] = lo + chunk * width
    table[6] = table[5] + width
    return table.reshape(7, -1)


def ring_allreduce(topology: Topology, order: Optional[Sequence[int]] = None) -> Schedule:
    """Build the ring all-reduce schedule for ``topology``.

    ``order`` optionally overrides the embedded ring (a permutation of the
    node ids); position ``p`` sends to position ``p+1 (mod n)``.  The
    schedule is column-backed (:func:`ring_rotation`); chunk ``c`` is
    ``[c/n, (c+1)/n)`` and its flow id is ``c``.
    """
    members = list(order) if order is not None else ring_order(topology)
    n = len(members)
    if sorted(members) != list(topology.nodes):
        raise ValueError("ring order must be a permutation of all nodes")
    return Schedule.from_columns(
        topology,
        ring_rotation([members], 1, 0, 0, 1),
        n,
        algorithm="ring",
        metadata={"order": members},
    )
