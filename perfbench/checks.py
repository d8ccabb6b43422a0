"""Untimed output checks: digests and engine-independent oracles.

Every prediction a run makes is recorded as a plain
``(topology, algorithm, size, (time, bandwidth, max_queue_delay))`` row.
The checks compare those rows against

* the digest committed in ``golden.json`` (default seed only);
* ``repro.ni.simulate_allreduce`` on the ``event`` engine over a freshly
  built schedule, for a seeded sample of rows (exact ``==``);
* for serve-http, an in-process ``run_job`` of every scenario a ``200``
  body answered (exact ``==``).
"""

from __future__ import annotations

import hashlib
import json
import os
import random
from typing import Dict, Iterable, List, Sequence, Tuple

GOLDEN_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                           "golden.json")
#: The seed ``golden.json`` digests were recorded with.
DEFAULT_SEED = 0

Point = Tuple[str, str, int, Tuple[float, float, float]]


def digest(rows: Iterable[object]) -> str:
    """Order-sensitive digest; floats are hashed by their exact repr."""
    text = json.dumps(list(rows), separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def golden_mismatch(workload: str, rows: Sequence[object]) -> List[str]:
    """``[]`` when ``rows`` hash to the digest committed for ``workload``."""
    with open(GOLDEN_PATH) as fh:
        expected = json.load(fh).get(workload)
    observed = digest(rows)
    if observed == expected:
        return []
    return ["%s digest %s != golden.json %s" % (workload, observed, expected)]


def event_oracle_mismatches(points: Sequence[Point], seed: int,
                            sample: int) -> List[Tuple[Point, tuple]]:
    """``(row, event result)`` for sampled rows that differ from the
    event engine."""
    from repro.collectives import build_schedule
    from repro.ni import simulate_allreduce
    from repro.scenario import Scenario
    from repro.topology.specs import parse_topology_spec

    rng = random.Random("oracle:%d" % seed)
    chosen = rng.sample(list(points), min(sample, len(points)))
    bad = []
    for topology, algorithm, size, observed in chosen:
        resolved = Scenario(topology, algorithm, size).resolve()
        schedule = build_schedule(resolved.builder,
                                  parse_topology_spec(topology))
        result = simulate_allreduce(schedule, size, resolved.flow_control,
                                    True, engine="event")
        expected = (result.time, result.bandwidth, result.max_queue_delay())
        if tuple(observed) != expected:
            bad.append(((topology, algorithm, size, observed), expected))
    return bad


def in_process_predictions(scenarios: Iterable[Tuple[str, str, int]]
                           ) -> Dict[Tuple[str, str, int],
                                     Tuple[float, float, float]]:
    """Predict every ``(topology, algorithm, size)`` in this process."""
    from repro.sweep import SweepJob, run_job

    series: Dict[Tuple[str, str], set] = {}
    for topology, algorithm, size in scenarios:
        series.setdefault((topology, algorithm), set()).add(size)
    out = {}
    for (topology, algorithm), sizes in sorted(series.items()):
        job = SweepJob(topology, algorithm, tuple(sorted(sizes)),
                       engine="lockstep-vec")
        for point in run_job(job).points:
            out[(topology, algorithm, point.data_bytes)] = (
                point.time, point.bandwidth, point.max_queue_delay)
    return out
