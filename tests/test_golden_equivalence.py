"""Golden-equivalence: optimized fast paths vs the preserved seed code.

The fast-path overhaul (scalable tree construction, simulator hot-loop
optimization, row-snapshot all-reduce, cached schedule lowering) must not
change a single bit of any result.  These tests pin that contract against
the seed implementations preserved in ``repro.bench.reference`` on all
four topology families, using exact ``==`` comparisons throughout — no
approx, no tolerances.
"""

import functools

import numpy as np
import pytest

from repro.bench import (
    reference_all_reduce,
    reference_build_messages,
    reference_build_trees,
    reference_dependency_lists,
    reference_multitree_schedule,
    reference_run,
    reference_simulate_allreduce,
    reference_step_estimates,
    reference_step_gates,
)
from repro.collectives import build_schedule, build_trees
from repro.collectives.compiled import lower_schedule
from repro.collectives.multitree import trees_to_schedule
from repro.network import MessageBased, NetworkSimulator, PacketBased
from repro.ni import build_messages, simulate_allreduce
from repro.runtime import Communicator
from repro.topology import BiGraph, FatTree, Mesh2D, Torus2D
from repro.topology.specs import parse_topology_spec

KiB = 1024
MiB = 1 << 20

TOPOLOGIES = [
    pytest.param(lambda: Torus2D(4, 4), id="torus-4x4"),
    pytest.param(lambda: Torus2D(4, 8), id="torus-4x8"),
    pytest.param(lambda: Mesh2D(4, 4), id="mesh-4x4"),
    pytest.param(lambda: FatTree(4, 4), id="fattree-16n"),
    pytest.param(lambda: BiGraph(2, 8), id="bigraph-32n"),
]


@pytest.mark.parametrize("make_topo", TOPOLOGIES)
@pytest.mark.parametrize("priority", ["root-id", "most-remaining"])
class TestConstructionEquivalence:
    def test_trees_bit_identical(self, make_topo, priority):
        topo = make_topo()
        fast_trees, fast_tot = build_trees(topo, priority)
        ref_trees, ref_tot = reference_build_trees(topo, priority)
        assert fast_tot == ref_tot
        for fast, ref in zip(fast_trees, ref_trees):
            assert fast.root == ref.root
            assert fast.edges == ref.edges  # parent, child, step, AND route
            assert fast.added_step == ref.added_step
            assert fast.order == ref.order

    def test_schedule_ops_identical(self, make_topo, priority):
        topo = make_topo()
        fast = build_schedule("multitree", topo, priority=priority)
        ref = reference_multitree_schedule(topo, priority)
        assert fast.ops == ref.ops
        assert fast.metadata == ref.metadata


#: The benchmark's 64-node switched fabrics.  The seed side runs the
#: frozen seed switch search, so these pin the table-driven allocator.
SWITCHED_FABRICS = [
    "fattree-8x8",
    "bigraph-4x8",
    "bigraph-4x8@oversub=4",
    "fattree-8x8@oversub=4",
    "fattree3-4x4x4",
]


#: The 128-node BiGraph, root-id only: the seed side alone takes seconds.
SWITCHED_CASES = [
    pytest.param(spec, priority, id="%s-%s" % (priority, spec))
    for priority in ("root-id", "most-remaining")
    for spec in SWITCHED_FABRICS
] + [pytest.param("bigraph-4x16", "root-id", id="root-id-bigraph-4x16")]


@pytest.mark.parametrize("spec, priority", SWITCHED_CASES)
def test_switched_construction_bit_identical(spec, priority):
    fast_trees, fast_tot = build_trees(parse_topology_spec(spec), priority)
    topo = parse_topology_spec(spec)
    ref_trees, ref_tot = reference_build_trees(topo, priority)
    assert fast_tot == ref_tot
    for fast, ref in zip(fast_trees, ref_trees):
        assert fast.edges == ref.edges  # parent, child, step, AND route
        assert fast.order == ref.order
    fast = build_schedule("multitree", topo, priority=priority)
    ref = trees_to_schedule(ref_trees, ref_tot, topo, priority)
    assert fast.ops == ref.ops
    assert fast.metadata == ref.metadata


#: End-to-end pins against the seed: algorithm x flow control x
#: ``(lockstep, scheduling_overhead)`` (gated, ungated, and a software
#: scheduling overhead per dependency) x size; 2D-Ring runs where the
#: fabric allows it (a torus or mesh).  The original cases (MultiTree,
#: packet, gated, no overhead) keep their bare-size ids.
END_TO_END_CASES = [
    pytest.param(
        algorithm, fc_factory, lockstep, overhead, size,
        id=str(size)
        if (algorithm, fc_factory, lockstep, overhead)
        == ("multitree", PacketBased, True, 0.0)
        else "%d/%s/%s/lockstep=%s/overhead=%g" % (
            size, algorithm, fc_factory.__name__, lockstep, overhead
        ),
    )
    for algorithm in ("multitree", "ring", "dbtree", "2d-ring")
    for fc_factory in (PacketBased, MessageBased)
    for lockstep, overhead in ((True, 0.0), (False, 0.0), (True, 2e-7))
    for size in (32 * KiB, 2 * MiB)
]


@functools.lru_cache(maxsize=None)
def build_schedule_of(make_topo, algorithm):
    """One schedule per pair, shared by its cases: the first case lowers
    it cold, the rest reuse its memoized views."""
    return build_schedule(algorithm, make_topo())


@functools.lru_cache(maxsize=None)
def seed_schedule(make_topo, algorithm):
    """The seed side's schedule, on its own topology object: the frozen
    seed construction for MultiTree, the builder otherwise.  Shared by
    the cases of one pair; the seed lowering re-derives it per call."""
    if algorithm == "multitree":
        return reference_multitree_schedule(make_topo())
    return build_schedule(algorithm, make_topo())


def injection_bandwidth(topology):
    """The smallest per-compute-node injection or ejection bandwidth:
    the sum of ``bandwidth x capacity`` over a node's out-links (or
    in-links), read from the topology's link table alone."""
    out = dict.fromkeys(topology.nodes, 0.0)
    into = dict.fromkeys(topology.nodes, 0.0)
    for (src, dst), spec in topology.links.items():
        rate = spec.bandwidth * spec.capacity
        if src in out:
            out[src] += rate
        if dst in into:
            into[dst] += rate
    return min(min(out.values()), min(into.values()))


@pytest.mark.parametrize("make_topo", TOPOLOGIES)
class TestSimulatorEquivalence:
    @pytest.mark.parametrize("fc_factory", [PacketBased, MessageBased])
    def test_run_bit_identical(self, make_topo, fc_factory):
        topo = make_topo()
        fc = fc_factory()
        schedule = build_schedule("multitree", topo)
        messages = build_messages(schedule, 2 * MiB, fc)
        fast = NetworkSimulator(topo, fc).run(messages)
        ref = reference_run(topo, fc, messages)
        assert fast.finish_time == ref.finish_time
        assert fast.total_wire_bytes == ref.total_wire_bytes
        assert fast.link_busy == ref.link_busy
        assert fast.timings == ref.timings  # ready/inject/deliver/ideal, all ==

    def test_lowering_identical(self, make_topo):
        topo = make_topo()
        schedule = build_schedule("multitree", topo)
        fc = PacketBased()
        lowered = lower_schedule(schedule)
        assert lowered.deps == reference_dependency_lists(schedule)
        assert lowered.step_estimates(2 * MiB, fc) == reference_step_estimates(
            schedule, 2 * MiB, fc
        )
        assert lowered.step_gates(2 * MiB, fc) == reference_step_gates(
            schedule, 2 * MiB, fc
        )
        fast_msgs = build_messages(schedule, 2 * MiB, fc)
        ref_msgs = reference_build_messages(schedule, 2 * MiB, fc)
        for fast, ref in zip(fast_msgs, ref_msgs):
            assert fast.payload_bytes == ref.payload_bytes
            assert list(fast.route) == list(ref.route)
            assert list(fast.deps) == list(ref.deps)
            assert fast.not_before == ref.not_before

    @pytest.mark.parametrize(
        "algorithm,fc_factory,lockstep,overhead,size", END_TO_END_CASES
    )
    def test_end_to_end_predict_identical(
        self, make_topo, algorithm, fc_factory, lockstep, overhead, size
    ):
        if algorithm == "2d-ring" and not isinstance(
            make_topo(), (Torus2D, Mesh2D)
        ):
            pytest.skip("2D-Ring needs a torus or mesh")
        fc = fc_factory()
        fast_sched = build_schedule_of(make_topo, algorithm)
        topo = fast_sched.topology
        fast = simulate_allreduce(fast_sched, size, fc, lockstep, overhead)
        ref = reference_simulate_allreduce(
            seed_schedule(make_topo, algorithm), size, fc, lockstep, overhead
        )
        assert fast.simulation.finish_time == ref.finish_time
        assert fast.simulation.timings == ref.timings
        assert fast.simulation.link_busy == ref.link_busy
        assert fast.simulation.total_wire_bytes == ref.total_wire_bytes
        # Engine-free alpha-beta bound: every node must inject (and
        # eject) 2(n-1)/n of the data through its own links.
        n = topo.num_nodes
        assert fast.time >= 2 * (n - 1) / n * size / injection_bandwidth(topo)


@pytest.mark.parametrize("make_topo", TOPOLOGIES)
@pytest.mark.parametrize("algorithm", ["multitree", "ring"])
class TestAllReduceNumericsEquivalence:
    def test_row_snapshot_bit_identical(self, make_topo, algorithm):
        topo = make_topo()
        comm = Communicator(topo, algorithm)
        rng = np.random.default_rng(seed=topo.num_nodes)
        data = rng.standard_normal((topo.num_nodes, 96), dtype=np.float32)
        reduced, _timing = comm.all_reduce(data)
        expected = reference_all_reduce(comm.schedule, data)
        # Bit-identical, not just close: same reduction order per element.
        assert np.array_equal(reduced, expected)
        assert reduced.dtype == expected.dtype


class TestRepeatedCallsStableUnderCaching:
    def test_second_simulation_identical(self):
        # The lowering caches (deps, routes, ser profile) must not leak
        # state between calls at different sizes.
        topo = Torus2D(4, 4)
        schedule = build_schedule("multitree", topo)
        first = [simulate_allreduce(schedule, s, PacketBased()).time
                 for s in (32 * KiB, 2 * MiB)]
        second = [simulate_allreduce(schedule, s, PacketBased()).time
                  for s in (32 * KiB, 2 * MiB)]
        assert first == second

    def test_all_reduce_repeat_identical(self):
        topo = Mesh2D(4, 4)
        comm = Communicator(topo, "multitree")
        rng = np.random.default_rng(seed=7)
        data = rng.standard_normal((16, 64), dtype=np.float32)
        out1, t1 = comm.all_reduce(data)
        out2, t2 = comm.all_reduce(data)
        assert np.array_equal(out1, out2)
        assert t1.time == t2.time
