"""Second round of property-based tests over the extension surface."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis import step_utilization, utilization_summary
from repro.analysis.volume import max_node_volume_fraction, optimal_volume_fraction
from repro.collectives import (
    ALGORITHMS,
    all_gather_schedule,
    alltoall_schedule,
    broadcast_schedule,
    build_schedule,
    multitree_allreduce,
    reduce_scatter_schedule,
    reduce_schedule,
    verify_all_gather,
    verify_allreduce,
    verify_alltoall,
    verify_broadcast,
    verify_reduce,
    verify_reduce_scatter,
)
from repro.topology import GraphTopology, Mesh2D, Ring1D, Torus2D, Torus3D

random_graphs = st.builds(
    GraphTopology.random_regular,
    num_nodes=st.sampled_from([6, 8, 10, 12]),
    degree=st.sampled_from([3, 4]),
    seed=st.integers(0, 50),
)

small_topologies = st.one_of(
    random_graphs,
    st.builds(Torus2D, st.integers(2, 4), st.integers(2, 4)),
    st.builds(Ring1D, st.integers(3, 9)),
)


@settings(max_examples=15, deadline=None)
@given(topo=small_topologies)
def test_primitives_correct_on_any_topology(topo):
    verify_reduce_scatter(reduce_scatter_schedule(topo))
    verify_all_gather(all_gather_schedule(topo))
    verify_alltoall(alltoall_schedule(topo))


@settings(max_examples=10, deadline=None)
@given(topo=small_topologies, root_frac=st.floats(0, 0.999))
def test_rooted_primitives_any_root(topo, root_frac):
    root = int(root_frac * topo.num_nodes)
    verify_broadcast(broadcast_schedule(topo, root), root)
    verify_reduce(reduce_schedule(topo, root), root)


@settings(max_examples=15, deadline=None)
@given(topo=small_topologies)
def test_any_correct_allreduce_respects_volume_lower_bound(topo):
    """Information-theoretic floor: every node must send at least D/n * ...
    — concretely, no correct algorithm we build undercuts the 2(n-1)/n
    bound (MultiTree meets it with equality)."""
    schedule = multitree_allreduce(topo)
    verify_allreduce(schedule)
    assert max_node_volume_fraction(schedule) >= optimal_volume_fraction(topo.num_nodes)


@settings(max_examples=10, deadline=None)
@given(topo=small_topologies)
def test_step_utilization_bounded(topo):
    schedule = multitree_allreduce(topo)
    util = step_utilization(schedule)
    assert all(0.0 <= u <= 1.0 for u in util.values())
    lo, mean, hi = utilization_summary(schedule)
    assert 0.0 <= lo <= mean <= hi <= 1.0


@settings(max_examples=8, deadline=None)
@given(
    width=st.integers(2, 3),
    height=st.integers(2, 3),
    channels=st.integers(1, 3),
)
def test_multitree_respects_any_channel_width(width, height, channels):
    topo = Torus2D(width, height, channels=channels)
    schedule = multitree_allreduce(topo)
    verify_allreduce(schedule)
    assert schedule.max_step_link_overlap() == 1


@settings(max_examples=6, deadline=None)
@given(dims=st.tuples(st.integers(2, 3), st.integers(2, 3), st.integers(2, 3)))
def test_multitree_3d_torus_property(dims):
    schedule = multitree_allreduce(Torus3D(*dims))
    verify_allreduce(schedule)
    assert schedule.max_step_link_overlap() == 1


@settings(max_examples=8, deadline=None)
@given(seed=st.integers(0, 30))
def test_all_generic_algorithms_agree_on_random_graph(seed):
    """Every topology-agnostic algorithm computes the same sums."""
    topo = GraphTopology.random_regular(8, 3, seed=seed)
    rng = np.random.default_rng(seed)
    for name in ("ring", "dbtree", "multitree", "halving-doubling", "butterfly"):
        schedule = build_schedule(name, topo)
        grain = max(schedule.granularity, 1)
        inputs = rng.integers(-100, 100, size=(8, grain), dtype=np.int64)
        verify_allreduce(schedule, inputs)
