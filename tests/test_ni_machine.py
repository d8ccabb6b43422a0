"""Tests for the Fig. 6 NI schedule-management machine."""

import pytest

from repro.collectives import build_schedule, multitree_allreduce, ring_allreduce
from repro.collectives.compiled import lower_schedule
from repro.ni import build_schedule_tables, simulate_allreduce
from repro.ni.machine import NIMachine, simulate_with_ni_machines
from repro.ni.schedule_table import TableEntry, TableOp, ScheduleTable
from repro.topology import FatTree, Mesh2D, Torus2D

MiB = 1 << 20


def _machine_for(topo, node=0, data=4 * MiB, alg="multitree"):
    schedule = build_schedule(alg, topo)
    tables = build_schedule_tables(schedule, int(data))
    from repro.network import PacketBased

    est = lower_schedule(schedule).step_estimates(data, PacketBased())
    return NIMachine(tables[node], est), schedule


class TestMachineIssueRules:
    def test_leaf_reduce_issues_immediately(self):
        machine, _ = _machine_for(Mesh2D(2, 2))
        entry = machine.try_issue(0.0)
        assert entry is not None
        assert entry.op is TableOp.REDUCE
        assert entry.children == ()

    def test_dependent_reduce_blocks_until_child_arrives(self):
        machine, schedule = _machine_for(Mesh2D(2, 2))
        # Drain everything issueable at t=0.
        while machine.try_issue(0.0) is not None:
            pass
        blocked = machine.entries[machine._cursor]
        assert blocked.op in (TableOp.REDUCE, TableOp.GATHER, TableOp.NOP)
        before = len(machine.issued)
        # Satisfy dependencies by delivering the pending receives.
        for op in schedule.ops:
            if op.dst == machine.node:
                machine.receive_reduce(op.flow, op.src)
                machine.receive_gather(op.flow)
        machine.try_issue(1.0)
        assert len(machine.issued) > before

    def test_root_gather_waits_for_reduce_aggregation(self):
        machine, schedule = _machine_for(Mesh2D(2, 2))
        root_gathers = [
            e for e in machine.entries
            if e.op is TableOp.GATHER and e.parent is None
        ]
        assert len(root_gathers) == 1
        assert root_gathers[0].reduce_deps  # depends on tree children

    def test_nop_arms_lockstep_counter(self):
        table = ScheduleTable(
            node=0,
            entries=[
                TableEntry(TableOp.NOP, None, None, (), step=1),
                TableEntry(TableOp.REDUCE, 0, 1, (), step=2),
            ],
        )
        machine = NIMachine(table, {1: 5.0, 2: 5.0})
        assert machine.try_issue(0.0) is None  # NOP retires, stall armed
        assert machine.lockstep_free_at == 5.0
        assert machine.try_issue(4.0) is None
        entry = machine.try_issue(5.0)
        assert entry is not None and entry.op is TableOp.REDUCE

    def test_issue_order_respects_steps(self):
        machine, schedule = _machine_for(Torus2D(4, 4), node=5)
        for op in schedule.ops:  # satisfy everything
            if op.dst == 5:
                machine.receive_reduce(op.flow, op.src)
                machine.receive_gather(op.flow)
        while not machine.done:
            if machine.try_issue(machine.lockstep_free_at) is None:
                break
        steps = [rec.entry.step for rec in machine.issued]
        assert steps == sorted(steps)


class TestCoSimulation:
    @pytest.mark.parametrize(
        "topo", [Mesh2D(2, 2), Torus2D(4, 4), FatTree(4, 4)], ids=lambda t: t.name
    )
    @pytest.mark.parametrize("alg", ["multitree", "ring"])
    def test_protocol_completes(self, topo, alg):
        schedule = build_schedule(alg, topo)
        result = simulate_with_ni_machines(schedule, 1 * MiB)
        assert result.finish_time > 0
        # Every non-NOP entry issued exactly once.
        tables = build_schedule_tables(schedule, 1 * MiB, insert_nops=False)
        expected = sum(len(t.entries) for t in tables.values())
        assert len(result.issues) == expected

    def test_ring_matches_link_level_simulator(self):
        # One message per node per step: the idealized delivery model is
        # exact and must agree with the full injector+simulator stack.
        topo = Torus2D(4, 4)
        schedule = ring_allreduce(topo)
        machine_time = simulate_with_ni_machines(schedule, 4 * MiB).finish_time
        sim_time = simulate_allreduce(schedule, 4 * MiB).time
        assert machine_time == pytest.approx(sim_time, rel=0.01)

    def test_multitree_lower_bounds_link_level(self):
        topo = FatTree(4, 4)
        schedule = multitree_allreduce(topo)
        machine_time = simulate_with_ni_machines(schedule, 4 * MiB).finish_time
        sim_time = simulate_allreduce(schedule, 4 * MiB).time
        assert machine_time <= sim_time * 1.01

    def test_per_node_issue_logs(self):
        schedule = multitree_allreduce(Mesh2D(2, 2))
        result = simulate_with_ni_machines(schedule, 1 * MiB)
        for node in range(4):
            recs = result.issues_for(node)
            assert recs
            times = [r.time for r in recs]
            assert times == sorted(times)
