"""Tests for generic graph topologies, link failure and hierarchical rings."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.collectives import (
    build_schedule,
    hierarchical_allreduce,
    multitree_allreduce,
    verify_allreduce,
)
from repro.ni import simulate_allreduce
from repro.topology import BiGraph, FatTree, GraphTopology, Mesh2D, Torus2D, degrade

KiB = 1024
MiB = 1 << 20


class TestGraphTopology:
    def test_edge_list_construction(self):
        g = GraphTopology(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
        assert g.total_link_capacity() == 8
        assert g.has_link(0, 1) and g.has_link(1, 0)

    def test_duplicate_and_self_edges_ignored(self):
        g = GraphTopology(3, [(0, 1), (1, 0), (1, 1), (1, 2)])
        assert g.total_link_capacity() == 4

    def test_disconnected_rejected(self):
        with pytest.raises(ValueError, match="connected"):
            GraphTopology(4, [(0, 1), (2, 3)])

    def test_out_of_range_edge_rejected(self):
        with pytest.raises(ValueError):
            GraphTopology(2, [(0, 5)])

    def test_bfs_routing_is_shortest(self):
        g = GraphTopology(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)])
        assert len(g.route(0, 3)) == 2  # via 4, not via 1-2

    def test_random_regular_is_regular_and_connected(self):
        g = GraphTopology.random_regular(16, 4, seed=7)
        for node in g.nodes:
            assert len(g.neighbors(node)) == 4

    @settings(max_examples=10, deadline=None)
    @given(
        n=st.sampled_from([8, 10, 12, 16]),
        degree=st.sampled_from([3, 4]),
        seed=st.integers(0, 100),
    )
    def test_multitree_on_random_graphs(self, n, degree, seed):
        """Topology generality: correct + contention-free on random graphs."""
        g = GraphTopology.random_regular(n, degree, seed=seed)
        schedule = multitree_allreduce(g)
        verify_allreduce(schedule)
        assert schedule.max_step_link_overlap() == 1

    def test_ring_on_random_graph(self):
        g = GraphTopology.random_regular(10, 3, seed=1)
        verify_allreduce(build_schedule("ring", g))


class TestDegrade:
    def test_failed_links_removed(self):
        d = degrade(Torus2D(4, 4), [(0, 1)])
        assert not d.has_link(0, 1)
        assert not d.has_link(1, 0)
        assert d.num_nodes == 16

    def test_multitree_rebuilds_after_failure(self):
        d = degrade(Torus2D(4, 4), [(0, 1), (5, 6), (10, 14)])
        schedule = multitree_allreduce(d)
        verify_allreduce(schedule)
        assert schedule.max_step_link_overlap() == 1

    def test_failure_costs_steps(self):
        healthy = multitree_allreduce(Torus2D(4, 4))
        hurt = multitree_allreduce(degrade(Torus2D(4, 4), [(0, 1), (0, 4)]))
        assert hurt.metadata["tot_t"] >= healthy.metadata["tot_t"]

    def test_disconnecting_failure_rejected(self):
        mesh = Mesh2D(2, 2)
        with pytest.raises(ValueError, match="connected"):
            degrade(mesh, [(0, 1), (0, 2)])

    def test_switch_network_rejected(self):
        with pytest.raises(ValueError):
            degrade(FatTree(4, 4), [(0, 16)])


class TestHierarchical:
    @pytest.mark.parametrize(
        "topo", [FatTree(4, 4), FatTree(8, 8), BiGraph(2, 4), BiGraph(2, 8)],
        ids=lambda t: t.name,
    )
    def test_correct(self, topo):
        verify_allreduce(hierarchical_allreduce(topo))

    def test_requires_grouped_topology(self):
        with pytest.raises(ValueError):
            hierarchical_allreduce(Torus2D(4, 4))

    def test_far_fewer_steps_than_flat_ring(self):
        topo = FatTree(8, 8)
        hier = hierarchical_allreduce(topo)
        assert hier.num_steps == 2 * 7 + 2 * 7  # group phase + cross phase
        assert hier.num_steps < 2 * 63

    def test_beats_ring_at_small_sizes(self):
        topo = FatTree(8, 8)
        hier = simulate_allreduce(hierarchical_allreduce(topo), 32 * KiB)
        ring = simulate_allreduce(build_schedule("ring", topo), 32 * KiB)
        assert hier.time < ring.time

    def test_loses_to_ring_at_large_sizes(self):
        # ~2x data volume (like 2D-Ring) costs it the bandwidth race.
        topo = FatTree(8, 8)
        hier = simulate_allreduce(hierarchical_allreduce(topo), 64 * MiB)
        ring = simulate_allreduce(build_schedule("ring", topo), 64 * MiB)
        assert hier.time > ring.time

    def test_multitree_still_beats_hierarchical(self):
        topo = FatTree(4, 4)
        for size in (32 * KiB, 64 * MiB):
            mt = simulate_allreduce(build_schedule("multitree", topo), size)
            hier = simulate_allreduce(hierarchical_allreduce(topo), size)
            assert mt.time < hier.time
