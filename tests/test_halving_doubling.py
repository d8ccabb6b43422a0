"""Tests for halving-doubling and HDRM."""

from fractions import Fraction

import pytest

from repro.analysis.volume import is_bandwidth_optimal
from repro.collectives import (
    halving_doubling_allreduce,
    hdrm_allreduce,
    hdrm_rank_mapping,
    is_power_of_two,
    verify_allreduce,
)
from repro.collectives.schedule import OpKind
from repro.topology import BiGraph, FatTree, Mesh2D, Torus2D


class TestPowerOfTwo:
    def test_is_power_of_two(self):
        assert is_power_of_two(1)
        assert is_power_of_two(64)
        assert not is_power_of_two(0)
        assert not is_power_of_two(12)


class TestHalvingDoubling:
    @pytest.mark.parametrize(
        "topo",
        [Torus2D(4, 4), Torus2D(8, 8), Mesh2D(4, 4), FatTree(4, 4), BiGraph(2, 8)],
        ids=lambda t: t.name,
    )
    def test_correct(self, topo):
        verify_allreduce(halving_doubling_allreduce(topo))

    def test_non_power_of_two_rejected(self):
        with pytest.raises(ValueError):
            halving_doubling_allreduce(Mesh2D(3, 4))

    def test_logarithmic_steps(self):
        schedule = halving_doubling_allreduce(Torus2D(4, 4))
        assert schedule.num_steps == 8  # 2 * log2(16)

    def test_bandwidth_optimal(self):
        assert is_bandwidth_optimal(halving_doubling_allreduce(Torus2D(4, 4)))

    def test_message_sizes_halve_in_reduce_scatter(self):
        schedule = halving_doubling_allreduce(Torus2D(4, 4))
        for op in schedule.ops:
            if op.kind is OpKind.REDUCE:
                assert op.chunk.fraction == Fraction(1, 2 ** op.step)

    def test_every_node_active_every_step(self):
        schedule = halving_doubling_allreduce(Torus2D(4, 4))
        for _step, ops in schedule.steps():
            assert {op.src for op in ops} == set(range(16))

    def test_bad_permutation_rejected(self):
        with pytest.raises(ValueError):
            halving_doubling_allreduce(Torus2D(2, 2), rank_to_node=[0, 1, 1, 2])

    def test_custom_permutation_correct(self):
        verify_allreduce(
            halving_doubling_allreduce(Torus2D(2, 2), rank_to_node=[3, 0, 2, 1])
        )


class TestHDRM:
    def test_requires_bigraph(self):
        with pytest.raises(ValueError):
            hdrm_allreduce(Torus2D(4, 4))

    @pytest.mark.parametrize("spl,nps", [(2, 4), (2, 8), (2, 16)])
    def test_correct_on_bigraph(self, spl, nps):
        verify_allreduce(hdrm_allreduce(BiGraph(spl, nps)))

    def test_mapping_alternates_layers_by_parity(self):
        bg = BiGraph(2, 8)
        mapping = hdrm_rank_mapping(bg)
        for rank, node in enumerate(mapping):
            parity = bin(rank).count("1") % 2
            assert bg.layer_of(node) == parity

    def test_every_exchange_crosses_layers(self):
        # The defining HDRM property (§II-C): each pair has one upper- and
        # one lower-layer node, so it never exploits same-switch proximity.
        bg = BiGraph(2, 8)
        schedule = hdrm_allreduce(bg)
        for op in schedule.ops:
            assert bg.layer_of(op.src) != bg.layer_of(op.dst)

    def test_all_transfers_three_hops(self):
        bg = BiGraph(2, 8)
        schedule = hdrm_allreduce(bg)
        assert all(len(schedule.route_of(op)) == 3 for op in schedule.ops)

    def test_mapping_is_permutation(self):
        bg = BiGraph(2, 16)
        mapping = hdrm_rank_mapping(bg)
        assert sorted(mapping) == list(bg.nodes)
