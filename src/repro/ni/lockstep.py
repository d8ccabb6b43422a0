"""Lockstep time-step estimation (§IV-A, footnote 4).

The co-designed NI keeps concurrent trees aligned without global
synchronization: each node advances its time-step counter after an
*estimated* step duration — the serialization latency of the per-step data
chunk under the active flow control.  The estimate needs no message
exchange because the all-reduce communication pattern is static.

The one lowering of a schedule
(:func:`repro.collectives.compiled.lower_schedule`) freezes the
serialization profile below into its columns, and its ``step_gates``
give the earliest injection time for every step: ``gate[1] = 0`` and
``gate[s+1] = gate[s] + est[s]`` where ``est[s]`` is the largest per-op
serialization time in step ``s`` (steps where a node has no work are
covered by NOP entries of the same estimated duration).
"""

from __future__ import annotations

from typing import Dict, Tuple

import numpy as np

from .. import obs
from ..collectives.schedule import Schedule


def _ser_profile(schedule: Schedule):
    """Unique ``(step, bottleneck_bandwidth, float chunk_fraction)`` triples.

    The per-op inputs to the step estimate depend only on the immutable
    schedule, and most ops of a step share the same chunk size and
    bottleneck bandwidth — so the profile is computed once, deduplicated
    (first-occurrence order preserved), and cached on the schedule.
    Estimating a new data size then costs one serialization computation
    per distinct triple instead of one per op.  Zero-hop ops serialize
    nowhere and are skipped.

    The bottleneck bandwidth is taken once per distinct route
    (:meth:`Schedule.route_table`) and the fraction once per distinct
    chunk, so deduplication runs over integer class columns.  Steps and
    fractions come from :meth:`Schedule.op_columns`, never from
    ``schedule.ops``.
    """
    profile = schedule.__dict__.get("_ser_profile")
    if profile is None:
        topo = schedule.topology
        cols = schedule.op_columns()
        routes, index = schedule.route_table()
        bottleneck = [
            min(topo.link(*key).bandwidth for key in route) if route else None
            for route in routes
        ]
        band_class: Dict[float, int] = {}
        route_class = np.asarray(
            [-1 if bw is None else band_class.setdefault(bw, len(band_class))
             for bw in bottleneck],
            dtype=np.int64,
        )
        frac_class: Dict[Tuple[int, int], int] = {}
        chunk_class = np.asarray(
            [frac_class.setdefault(frac, len(frac_class))
             for frac in zip(cols.frac_num.tolist(), cols.frac_den.tolist())],
            dtype=np.int64,
        )
        op_band = route_class[index]
        routed = np.flatnonzero(op_band >= 0)
        # Dense (bandwidth, fraction) class, then (step, class) keys: both
        # packings stay below the op count squared.
        _, pair_class = np.unique(
            op_band[routed] * len(frac_class) + chunk_class[cols.chunk[routed]],
            return_inverse=True,
        )
        key = cols.steps[routed] * (len(pair_class) + 1) + pair_class
        _, first = np.unique(key, return_index=True)
        picked = np.sort(routed[first])
        chunk = cols.chunk[picked]
        # num / den of Python ints rounds as float(Fraction(num, den)).
        profile = [
            (step, bottleneck[route], num / den)
            for step, route, num, den in zip(
                cols.steps[picked].tolist(), index[picked].tolist(),
                cols.frac_num[chunk].tolist(), cols.frac_den[chunk].tolist(),
            )
        ]
        schedule.__dict__["_ser_profile"] = profile
    return profile


def active_nodes_per_step(steps, srcs, dsts) -> Dict[int, int]:
    """How many nodes send or receive at each step, from op columns.

    A node with no entry at a step holds a NOP in its Fig. 5 schedule
    table; ``num_nodes - active`` is therefore the number of NOP entries
    issued for that step.
    """
    steps = np.asarray(steps, dtype=np.int64)
    ends = np.concatenate((np.asarray(srcs, dtype=np.int64),
                           np.asarray(dsts, dtype=np.int64)))
    width = int(ends.max()) + 1 if len(ends) else 1
    pairs = np.unique(np.concatenate((steps, steps)) * width + ends)
    step_ids, counts = np.unique(pairs // width, return_counts=True)
    return dict(zip(step_ids.tolist(), counts.tolist()))


def lockstep_gates(
    num_steps: int, est: Dict[int, float]
) -> Tuple[Dict[int, float], float]:
    """``(gates, span)``: each step's gate is the sum of earlier estimates."""
    gates: Dict[int, float] = {}
    clock = 0.0
    for step in range(1, num_steps + 1):
        gates[step] = clock
        clock += est.get(step, 0.0)
    return gates, clock


def emit_gate_event(topology, algorithm: str, num_steps: int,
                    active: Dict[int, int], est: Dict[int, float],
                    span: float) -> None:
    """The ``lockstep.gates`` event of one gated run (while metering).

    NOP stalls: node-steps spent idling at a lockstep gate while other
    nodes' ops of the same step serialize (§IV-A footnote 4).  ``active``
    maps each step to the number of nodes sending or receiving in it.
    """
    num_nodes = topology.num_nodes
    nop_steps = 0
    nop_time = 0.0
    for step in range(1, num_steps + 1):
        idle = num_nodes - active.get(step, 0)
        if idle > 0:
            nop_steps += idle
            nop_time += idle * est.get(step, 0.0)
    obs.event(
        "lockstep.gates", topology=topology.name, algorithm=algorithm,
        steps=num_steps, nop_stalls=nop_steps, nop_stall_time=nop_time,
        span=span,
    )

