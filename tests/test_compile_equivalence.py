"""Compile equivalence: every variant's ``compile_schedule`` vs the seed.

The array-native compiler derives its columns from integer unit spans
(dependencies by a join on ``(node, unit)`` keys, the serialization
profile from unique rows, routes once per node pair).  These cases pin
every column, the dependency lists, the lockstep estimates and gates,
and the per-op routes ``==`` to the frozen seed compiler in
``repro.bench.reference`` on direct, switched, oversubscribed,
multi-rail and non-power-of-two fabrics (granularities 1 to 64).
"""

import pytest

from repro.bench import (
    reference_compile_schedule,
    reference_dependency_lists,
    reference_step_estimates,
    reference_step_gates,
)
from repro.collectives import build_schedule, compile_schedule
from repro.collectives.compiled import lower_schedule
from repro.network import MessageBased, PacketBased
from repro.topology.specs import parse_topology_spec

KiB = 1024
MiB = 1 << 20

CASES = [
    ("torus-3x5", ("ring", "dbtree", "2d-ring", "multitree")),
    ("mesh-3x4", ("ring", "dbtree", "2d-ring", "multitree")),
    ("torus-4x4", ("ring", "dbtree", "2d-ring", "halving-doubling",
                   "butterfly", "multitree")),
    ("mesh-4x8", ("dbtree", "2d-ring", "halving-doubling")),
    ("torus-4x8@rails=2:0.5", ("ring", "2d-ring", "dbtree", "multitree")),
    ("torus-8x8", ("dbtree", "halving-doubling", "butterfly")),
    ("fattree-4x4", ("ring", "butterfly", "hierarchical", "multitree")),
    ("fattree-8x8@oversub=4", ("dbtree", "hierarchical", "ring")),
    ("bigraph-2x8", ("hdrm", "hierarchical", "halving-doubling",
                     "multitree")),
    ("bigraph-4x8@oversub=4", ("hdrm", "dbtree", "hierarchical",
                               "multitree")),
]

PAIRS = [
    pytest.param(spec, algorithm, id="%s/%s" % (spec, algorithm))
    for spec, algorithms in CASES
    for algorithm in algorithms
]


@pytest.mark.parametrize("spec,algorithm", PAIRS)
def test_compile_matches_seed_compiler(spec, algorithm):
    topology = parse_topology_spec(spec)
    schedule = build_schedule(algorithm, topology)
    # The seed side runs on its own schedule object, so no memoized
    # derivation of the fast side can leak into it.
    seed = build_schedule(algorithm, parse_topology_spec(spec))
    assert compile_schedule(schedule).to_dict() == (
        reference_compile_schedule(seed).to_dict()
    )
    lowered = lower_schedule(schedule)
    assert lowered.deps == reference_dependency_lists(seed)
    assert [list(route) for route in lowered.routes] == [
        seed.route_of(op) for op in seed.ops
    ]
    for flow_control in (PacketBased(), MessageBased()):
        for size in (32 * KiB, 4 * MiB):
            assert lowered.step_estimates(size, flow_control) == (
                reference_step_estimates(seed, size, flow_control)
            )
            assert lowered.step_gates(size, flow_control) == (
                reference_step_gates(seed, size, flow_control)
            )


def test_cases_cover_every_granularity_regime():
    grains = {
        build_schedule(algorithm, parse_topology_spec(spec)).granularity
        for spec, algorithms in CASES
        for algorithm in algorithms
    }
    assert {1, 12, 14, 15, 48, 60, 64} <= grains

