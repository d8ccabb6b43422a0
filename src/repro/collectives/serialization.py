"""Schedule serialization.

§III-C1: "In static systems, the algorithm only needs to run once and can
be used for any DNN workloads" — the schedules are computed at
initialization and loaded into the network interfaces (§V-A).  This module
round-trips schedules through plain JSON so precomputed schedules can be
stored next to a cluster configuration and reloaded without rebuilding.

Topologies are not serialized (they are cheap to reconstruct and carry
callable behaviour); loading requires the same topology the schedule was
built for, and a fingerprint check rejects mismatches.
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import Dict, List

from ..topology.base import Topology
from .schedule import ChunkRange, CommOp, OpKind, Schedule


def _topology_fingerprint(topology: Topology) -> Dict[str, object]:
    return {
        "name": topology.name,
        "num_nodes": topology.num_nodes,
        "num_switches": topology.num_switches,
        "total_link_capacity": topology.total_link_capacity(),
    }


def schedule_to_dict(schedule: Schedule) -> Dict[str, object]:
    """A JSON-safe dictionary capturing the schedule exactly."""
    return {
        "format": "repro-schedule-v1",
        "algorithm": schedule.algorithm,
        "topology": _topology_fingerprint(schedule.topology),
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
    if data.get("format") != "repro-schedule-v1":
        raise ValueError("unrecognized schedule format %r" % data.get("format"))
    fingerprint = _topology_fingerprint(topology)
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

