"""Compile equivalence: every variant's ``compile_schedule`` vs the seed.

The array-native compiler derives its columns from integer unit spans
(dependencies by a join on ``(node, unit)`` keys, the serialization
profile from unique rows, routes once per node pair).  These cases pin
every column, the dependency lists, the lockstep estimates and gates,
and the per-op routes ``==`` to the frozen seed compiler in
``repro.bench.reference`` on direct, switched, oversubscribed,
multi-rail and non-power-of-two fabrics (granularities 1 to 64).

The ring, 2D-Ring, hierarchical and double-binary-tree builders emit
integer op tables; their lazily built ``ops`` and their compiled forms
are pinned ``==`` to the frozen seed object builders
(``reference_build_schedule``), and a sweep series over them must
create no ``CommOp`` at all.
"""

import pytest

from repro import collectives
from repro.bench import (
    reference_build_schedule,
    reference_compile_schedule,
    reference_dependency_lists,
    reference_step_estimates,
    reference_step_gates,
)
from repro.collectives import build_schedule, compile_schedule
from repro.collectives.compiled import lower_schedule
from repro.collectives.schedule import CommOp
from repro.network import MessageBased, PacketBased
from repro.scenario import ENGINES
from repro.sweep import SweepJob, run_job
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



#: The builder oracle's cases beyond ``PAIRS``: perfbench's baseline
#: pairs not already listed, and the builders' keyword arguments.
BUILDER_EXTRA = [
    ("mesh-8x8", "2d-ring", {}),
    ("bigraph-4x8", "ring", {}),
    ("fattree-8x8", "hierarchical", {}),
    ("torus-4x4", "dbtree", {"num_blocks": 1}),
    ("mesh-3x4", "dbtree", {"num_blocks": 5}),
    ("torus-2x4", "ring", {"order": [5, 2, 7, 0, 3, 6, 1, 4]}),
]

BUILDER_PAIRS = [
    pytest.param(spec, algorithm, {}, id="%s/%s" % (spec, algorithm))
    for spec, algorithms in CASES
    for algorithm in algorithms
] + [
    pytest.param(spec, algorithm, kwargs,
                 id="%s/%s%s" % (spec, algorithm, sorted(kwargs.items())))
    for spec, algorithm, kwargs in BUILDER_EXTRA
]

COLUMN_BUILT = ("ring", "2d-ring", "hierarchical", "dbtree")

OP_FIELDS = ("kind", "src", "dst", "chunk", "step", "flow", "route")


@pytest.mark.parametrize("spec,algorithm,kwargs", BUILDER_PAIRS)
def test_build_matches_seed_builder(spec, algorithm, kwargs):
    schedule = build_schedule(algorithm, parse_topology_spec(spec), **kwargs)
    seed = reference_build_schedule(algorithm, parse_topology_spec(spec), **kwargs)
    assert schedule.num_ops == len(seed.ops)
    assert [[getattr(op, name) for name in OP_FIELDS] for op in schedule.ops] == (
        [[getattr(op, name) for name in OP_FIELDS] for op in seed.ops]
    )
    assert schedule.metadata == seed.metadata
    if algorithm in COLUMN_BUILT:
        # One ChunkRange object per distinct chunk.
        assert len({id(op.chunk) for op in schedule.ops}) == (
            len({op.chunk for op in schedule.ops})
        )
    fresh = build_schedule(algorithm, parse_topology_spec(spec), **kwargs)
    reseed = reference_build_schedule(algorithm, parse_topology_spec(spec), **kwargs)
    assert compile_schedule(fresh).to_dict() == (
        reference_compile_schedule(reseed).to_dict()
    )


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("spec,algorithm", [
    ("torus-4x8@rails=2:0.5", "ring"),
    ("mesh-4x8", "dbtree"),
])
def test_sweep_series_creates_no_commop(monkeypatch, spec, algorithm, engine):
    created = []
    post_init = CommOp.__post_init__

    def counting(op):
        created.append(op)
        post_init(op)

    monkeypatch.setattr(CommOp, "__post_init__", counting)
    compiled = []
    compile_ = collectives.compile_schedule

    def capture(schedule):
        compiled.append(schedule)
        return compile_(schedule)

    monkeypatch.setattr(collectives, "compile_schedule", capture)
    job = SweepJob(topology=spec, algorithm=algorithm,
                   sizes=(32 * KiB, 4 * MiB), engine=engine)
    sweep = run_job(job)
    assert len(sweep.points) == 2
    assert created == []
    (schedule,) = compiled
    seed = reference_build_schedule(algorithm, parse_topology_spec(spec))
    assert schedule.ops == seed.ops
    assert len(created) == 2 * len(seed.ops)
