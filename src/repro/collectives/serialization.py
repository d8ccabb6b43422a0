"""Schedule serialization.

§III-C1: "In static systems, the algorithm only needs to run once and can
be used for any DNN workloads" — the schedules are computed at
initialization and loaded into the network interfaces (§V-A).  This module
round-trips schedules through plain JSON so precomputed schedules can be
stored next to a cluster configuration and reloaded without rebuilding.

Topologies are not serialized (they are cheap to reconstruct and carry
callable behaviour); loading requires the same topology the schedule was
built for, and a check of its structural digest
(:func:`repro.topology.base.topology_fingerprint`: every link's
endpoints and parameters) rejects any other fabric, even one with the
same name and counts.
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import Dict, List

from ..topology.base import Topology, topology_fingerprint
from .schedule import ChunkRange, CommOp, OpKind, Schedule

#: The on-disk layout tag; v2 pins the full structural topology digest.
SCHEDULE_FORMAT = "repro-schedule-v2"


def schedule_to_dict(schedule: Schedule) -> Dict[str, object]:
    """A JSON-safe dictionary capturing the schedule exactly."""
    return {
        "format": SCHEDULE_FORMAT,
        "algorithm": schedule.algorithm,
        "topology": topology_fingerprint(schedule.topology),
        "metadata": {
            key: value
            for key, value in schedule.metadata.items()
            if isinstance(value, (str, int, float, bool, list))
        },
        "ops": [
            {
                "kind": op.kind.value,
                "src": op.src,
                "dst": op.dst,
                "lo": [op.chunk.lo.numerator, op.chunk.lo.denominator],
                "hi": [op.chunk.hi.numerator, op.chunk.hi.denominator],
                "step": op.step,
                "flow": op.flow,
                "route": [list(key) for key in op.route] if op.route else None,
            }
            for op in schedule.ops
        ],
    }


def schedule_from_dict(data: Dict[str, object], topology: Topology) -> Schedule:
    """Rebuild a schedule on ``topology``; fingerprints must match."""
    if data.get("format") != SCHEDULE_FORMAT:
        raise ValueError("unrecognized schedule format %r" % data.get("format"))
    fingerprint = topology_fingerprint(topology)
    if data["topology"] != fingerprint:
        raise ValueError(
            "schedule was built for %s, not %s"
            % (data["topology"], fingerprint)
        )
    ops: List[CommOp] = []
    for record in data["ops"]:
        route = record.get("route")
        ops.append(
            CommOp(
                kind=OpKind(record["kind"]),
                src=record["src"],
                dst=record["dst"],
                chunk=ChunkRange(
                    Fraction(record["lo"][0], record["lo"][1]),
                    Fraction(record["hi"][0], record["hi"][1]),
                ),
                step=record["step"],
                flow=record["flow"],
                route=tuple(tuple(k) for k in route) if route else None,
            )
        )
    return Schedule(
        topology=topology,
        ops=ops,
        algorithm=data["algorithm"],
        metadata=dict(data.get("metadata", {})),
    )


def save_schedule(schedule: Schedule, path: str) -> None:
    with open(path, "w") as fh:
        json.dump(schedule_to_dict(schedule), fh)


def load_schedule(path: str, topology: Topology) -> Schedule:
    with open(path) as fh:
        return schedule_from_dict(json.load(fh), topology)

