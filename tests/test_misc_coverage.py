"""Coverage for remaining public-API corners."""

import numpy as np
import pytest

from repro.analysis import sweep_bandwidth
from repro.collectives import build_schedule, execute
from repro.collectives.schedule import OpKind
from repro.network import EnergyModel, MessageBased, PacketBased
from repro.network.flowcontrol import FlowControl
from repro.ni import simulate_allreduce
from repro.topology import BiGraph, FatTree, Torus2D

KiB = 1024
MiB = 1 << 20


class TestAllReduceResultStats:
    def test_mean_link_utilization_ring_quarter(self):
        # Ring keeps its Hamiltonian links ~fully busy but 3/4 of the torus
        # links idle, so the mean sits near 25% at large sizes.
        schedule = build_schedule("ring", Torus2D(4, 4))
        result = simulate_allreduce(schedule, 64 * MiB)
        assert 0.18 < result.mean_link_utilization() < 0.27

    def test_multitree_mean_utilization_high(self):
        schedule = build_schedule("multitree", Torus2D(4, 4))
        result = simulate_allreduce(schedule, 64 * MiB)
        assert result.mean_link_utilization() > 0.6


class TestSweepLabels:
    def test_custom_label(self):
        schedule = build_schedule("multitree", Torus2D(2, 2))
        sweep = sweep_bandwidth(schedule, [32 * KiB], MessageBased(), label="mt-msg")
        assert sweep.algorithm == "mt-msg"
        assert sweep.points[0].algorithm == "mt-msg"


class TestEnergyDefaults:
    def test_generic_flow_control_falls_back(self):
        class Plain(FlowControl):
            def wire_flits(self, payload_bytes):
                return max(1, int(payload_bytes // self.flit_bytes))

        model = EnergyModel(link_pj=0, buffer_pj=0, route_arb_pj=7)
        assert model.message_energy_pj(1024, 1, Plain()) == 7.0

    def test_energy_monotone_in_payload(self):
        model = EnergyModel()
        fc = PacketBased()
        energies = [model.message_energy_pj(size, 2, fc) for size in (256, 1024, 4096)]
        assert energies == sorted(energies)


class TestExecutorResult:
    def test_correct_flag_false_for_partial(self):
        schedule = build_schedule("ring", Torus2D(2, 2))
        # Run only the reduce-scatter half.
        from repro.collectives.schedule import Schedule

        half = Schedule(
            topology=schedule.topology,
            ops=[op for op in schedule.ops if op.kind is OpKind.REDUCE],
            algorithm="ring-rs-only",
        )
        result = execute(half)
        assert not result.correct


class TestBiGraphTransit:
    def test_same_layer_transit_spreads(self):
        bg = BiGraph(2, 8)
        transits = set()
        for dst in (8, 9, 10, 11):  # same layer, other switch
            route = bg.route(0, dst)
            transits.add(route[1][1])
        assert len(transits) == 2  # both opposite-layer switches used


class TestCLIExtras:
    def test_sweep_with_hierarchical_on_fattree(self, capsys):
        from repro.cli import main

        assert main([
            "sweep", "--topology", "fattree", "--dims", "4x4",
            "--algorithms", "hierarchical,multitree", "--sizes", "64K",
        ]) == 0
        out = capsys.readouterr().out
        assert "hierarchical" in out

    def test_trees_priority_flag(self, capsys):
        from repro.cli import main

        assert main([
            "trees", "--topology", "torus", "--dims", "2x2",
            "--priority", "most-remaining", "--limit", "1",
        ]) == 0
        assert "trees built" in capsys.readouterr().out


class TestInjectorOnDerivedCollectives:
    def test_alltoall_simulation_has_dependencies(self):
        from repro.collectives import alltoall_schedule
        from repro.collectives.compiled import lower_schedule

        schedule = alltoall_schedule(Torus2D(2, 2))
        deps = lower_schedule(schedule).deps
        assert any(deps[i] for i in range(len(deps)))  # forwarding chains

    def test_broadcast_simulates_single_tree(self):
        from repro.collectives import broadcast_schedule

        schedule = broadcast_schedule(FatTree(4, 4), root=3)
        result = simulate_allreduce(schedule, 1 * MiB)
        assert result.time > 0
