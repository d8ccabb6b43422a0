"""Tests for the 2D-Ring all-reduce."""

import pytest

from repro.analysis.volume import volume_ratio_to_optimal
from repro.collectives import ring2d_allreduce, verify_allreduce
from repro.topology import FatTree, Mesh2D, Torus2D


@pytest.mark.parametrize(
    "topo",
    [Torus2D(4, 4), Torus2D(8, 8), Mesh2D(4, 4), Mesh2D(8, 8), Torus2D(4, 8)],
    ids=lambda t: t.name,
)
def test_correct_on_grids(topo):
    verify_allreduce(ring2d_allreduce(topo))


def test_requires_grid_topology():
    with pytest.raises(ValueError):
        ring2d_allreduce(FatTree(4, 4))


def test_far_fewer_steps_than_flat_ring():
    schedule = ring2d_allreduce(Torus2D(8, 8))
    # 2(W-1) + 2(H-1) = 28 steps vs flat ring's 126.
    assert schedule.num_steps == 28


def test_volume_is_about_twice_optimal():
    # The paper's 2N(N-1) vs N^2-1 claim: ratio 2N/(N+1).
    schedule = ring2d_allreduce(Torus2D(8, 8))
    n = 8
    expected = (2 * n) / (n + 1)
    assert volume_ratio_to_optimal(schedule) == pytest.approx(expected, rel=1e-6)


def test_four_concurrent_parts():
    schedule = ring2d_allreduce(Torus2D(4, 4))
    assert schedule.metadata["parts"] == 4
    # Quarter boundaries: ops stay inside their part's quarter.
    for op in schedule.ops:
        quarter = int(op.chunk.lo * 4)
        assert op.chunk.hi <= (quarter + 1) / 4 + 1e-12


def test_contention_free_on_torus():
    schedule = ring2d_allreduce(Torus2D(4, 4))
    assert schedule.max_step_link_overlap() == 1


def test_uses_all_torus_links():
    from repro.analysis.volume import links_used_fraction

    schedule = ring2d_allreduce(Torus2D(4, 4))
    assert links_used_fraction(schedule) == pytest.approx(1.0)


def test_mesh_wrap_segments_are_multi_hop():
    schedule = ring2d_allreduce(Mesh2D(4, 4))
    hops = [len(schedule.route_of(op)) for op in schedule.ops]
    # The wrap pair of each mesh dimension crosses width-1 = 3 hops.
    assert max(hops) == 3


def test_torus_segments_single_hop():
    schedule = ring2d_allreduce(Torus2D(4, 4))
    assert all(len(schedule.route_of(op)) == 1 for op in schedule.ops)
