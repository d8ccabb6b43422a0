"""Tests for the discrete-event network simulator."""

import pytest

from repro.network import Message, MessageBased, NetworkSimulator, PacketBased
from repro.network.flowcontrol import FlowControl
from repro.topology import FatTree, Torus2D


class IdealFlow(FlowControl):
    """Zero-overhead flow control for exact timing arithmetic in tests."""

    def wire_flits(self, payload_bytes):
        return max(1, int(payload_bytes // self.flit_bytes))


BW = 16e9
LAT = 150e-9


def _sim(topo=None, fc=None):
    return NetworkSimulator(topo or Torus2D(4, 4), fc or IdealFlow())


class TestSingleMessage:
    def test_one_hop_timing(self):
        sim = _sim()
        size = 16 * 1024
        res = sim.run([Message(0, 1, size, route=[(0, 1)])])
        assert res.finish_time == pytest.approx(LAT + size / BW, rel=1e-9)

    def test_multi_hop_pipelines(self):
        topo = Torus2D(4, 4)
        sim = _sim(topo)
        size = 16 * 1024
        route = topo.route(0, 2)  # two hops
        res = sim.run([Message(0, 2, size, route=route)])
        # Virtual cut-through: latency accumulates per hop, serialization
        # only once at the bottleneck.
        assert res.finish_time == pytest.approx(2 * LAT + size / BW, rel=1e-9)

    def test_not_before_delays_injection(self):
        sim = _sim()
        res = sim.run([Message(0, 1, 1024, route=[(0, 1)], not_before=5e-6)])
        assert res.timings[0].inject >= 5e-6


class TestContention:
    def test_two_messages_share_a_link_fifo(self):
        sim = _sim()
        size = 16 * 1024
        ser = size / BW
        res = sim.run(
            [
                Message(0, 1, size, route=[(0, 1)]),
                Message(0, 1, size, route=[(0, 1)]),
            ]
        )
        assert res.finish_time == pytest.approx(LAT + 2 * ser, rel=1e-9)
        assert res.max_queue_delay() == pytest.approx(ser, rel=1e-9)

    def test_disjoint_links_run_in_parallel(self):
        sim = _sim()
        size = 16 * 1024
        res = sim.run(
            [
                Message(0, 1, size, route=[(0, 1)]),
                Message(2, 3, size, route=[(2, 3)]),
            ]
        )
        assert res.finish_time == pytest.approx(LAT + size / BW, rel=1e-9)
        assert res.max_queue_delay() == 0.0

    def test_capacity_channels_carry_concurrently(self):
        topo = Torus2D(2, 4)  # width-2 torus: x-links have capacity 2
        sim = NetworkSimulator(topo, IdealFlow())
        x_nbr = topo.node_at(1, 0)
        size = 16 * 1024
        res = sim.run(
            [
                Message(0, x_nbr, size, route=[(0, x_nbr)]),
                Message(0, x_nbr, size, route=[(0, x_nbr)]),
            ]
        )
        assert res.finish_time == pytest.approx(LAT + size / BW, rel=1e-9)


class TestDependencies:
    def test_dependent_message_waits_for_delivery(self):
        sim = _sim()
        size = 16 * 1024
        ser = size / BW
        res = sim.run(
            [
                Message(0, 1, size, route=[(0, 1)]),
                Message(1, 2, size, route=[(1, 2)], deps=[0]),
            ]
        )
        assert res.timings[1].inject == pytest.approx(LAT + ser, rel=1e-9)
        assert res.finish_time == pytest.approx(2 * (LAT + ser), rel=1e-9)

    def test_circular_dependency_detected(self):
        sim = _sim()
        msgs = [
            Message(0, 1, 1024, route=[(0, 1)], deps=[1]),
            Message(1, 2, 1024, route=[(1, 2)], deps=[0]),
        ]
        with pytest.raises(RuntimeError, match="deadlock"):
            sim.run(msgs)

    def test_deadlock_reports_stuck_message_indices(self):
        # The cycle {1, 2} never becomes ready; message 0 still completes.
        sim = _sim()
        msgs = [
            Message(0, 1, 1024, route=[(0, 1)]),
            Message(1, 2, 1024, route=[(1, 2)], deps=[2]),
            Message(2, 3, 1024, route=[(2, 3)], deps=[1]),
        ]
        with pytest.raises(RuntimeError) as exc:
            sim.run(msgs)
        text = str(exc.value)
        assert "2 messages" in text
        assert "[1, 2]" in text

    def test_deadlock_on_self_dependency(self):
        sim = _sim()
        with pytest.raises(RuntimeError, match="deadlock"):
            sim.run([Message(0, 1, 1024, route=[(0, 1)], deps=[0])])

    @pytest.mark.parametrize("dep", [2, -1])
    def test_out_of_range_dependency_rejected(self, dep):
        sim = _sim()
        msgs = [
            Message(0, 1, 1024, route=[(0, 1)]),
            Message(1, 2, 1024, route=[(1, 2)], deps=[dep]),
        ]
        with pytest.raises(ValueError, match="out of range"):
            sim.run(msgs)

    def test_readiness_order_respected(self):
        """An unlocked-later but earlier-ready message wins FIFO arbitration."""
        sim = _sim()
        size = 160 * 1024
        res = sim.run(
            [
                Message(0, 1, size, route=[(0, 1)], not_before=1e-3),
                Message(0, 1, size, route=[(0, 1)], not_before=0.0),
            ]
        )
        assert res.timings[1].inject < res.timings[0].inject


class TestStatistics:
    def test_link_busy_accounting(self):
        sim = _sim()
        size = 16 * 1024
        res = sim.run([Message(0, 1, size, route=[(0, 1)])])
        assert res.link_busy[(0, 1)] == pytest.approx(size / BW, rel=1e-9)

    def test_mean_link_utilization_bounds(self):
        topo = Torus2D(4, 4)
        sim = NetworkSimulator(topo, IdealFlow())
        res = sim.run([Message(0, 1, 16 * 1024, route=[(0, 1)])])
        util = res.mean_link_utilization(topo)
        assert 0 < util < 1

    def test_flow_control_changes_wire_time(self):
        topo = Torus2D(4, 4)
        size = 1 << 20
        t_pkt = NetworkSimulator(topo, PacketBased()).run(
            [Message(0, 1, size, route=[(0, 1)])]
        ).finish_time
        t_msg = NetworkSimulator(topo, MessageBased()).run(
            [Message(0, 1, size, route=[(0, 1)])]
        ).finish_time
        assert t_pkt > t_msg
        assert t_pkt / t_msg == pytest.approx(1.0625, rel=1e-3)

    def test_empty_run(self):
        res = _sim().run([])
        assert res.finish_time == 0.0
        assert res.max_queue_delay() == 0.0


class TestWireAccounting:
    def test_zero_hop_message_puts_no_bytes_on_wire(self):
        # src == dst: no links traversed, so no wire bytes are charged.
        res = _sim().run([Message(0, 0, 16 * 1024, route=[])])
        assert res.total_wire_bytes == 0.0
        assert res.finish_time == 0.0
        assert res.link_busy == {}

    def test_wire_bytes_charged_once_per_traversed_link(self):
        topo = Torus2D(4, 4)
        sim = _sim(topo)
        size = 16 * 1024
        route = topo.route(0, 2)
        assert len(route) == 2
        res = sim.run([Message(0, 2, size, route=route)])
        assert res.total_wire_bytes == pytest.approx(size * 2)

    def test_mixed_zero_and_multi_hop(self):
        topo = Torus2D(4, 4)
        sim = _sim(topo)
        size = 16 * 1024
        res = sim.run(
            [
                Message(0, 0, size, route=[]),
                Message(0, 1, size, route=[(0, 1)]),
            ]
        )
        assert res.total_wire_bytes == pytest.approx(size)


class TestUtilizationEdgeCases:
    def test_zero_finish_time_yields_zero_utilization(self):
        # Only a zero-hop message: finish time is 0; no division blow-up.
        topo = Torus2D(2, 4)
        res = NetworkSimulator(topo, IdealFlow()).run(
            [Message(0, 0, 1024, route=[])]
        )
        assert res.finish_time == 0.0
        assert res.link_utilization(topo) == {key: 0.0 for key in topo.links}
        assert res.mean_link_utilization(topo) == 0.0

    def test_empty_run_zero_utilization(self):
        topo = Torus2D(4, 4)
        res = NetworkSimulator(topo, IdealFlow()).run([])
        assert res.link_utilization(topo) == {key: 0.0 for key in topo.links}
        assert res.mean_link_utilization(topo) == 0.0

    def test_utilization_reports_every_link_of_topology(self):
        # Regression: the "per link" promise covers idle links too — a run
        # that touches one link still reports 0.0 for every other link.
        topo = Torus2D(4, 4)
        res = NetworkSimulator(topo, IdealFlow()).run(
            [Message(0, 1, 16 * 1024, route=[(0, 1)])]
        )
        util = res.link_utilization(topo)
        assert set(util) == set(topo.links)
        assert util[(0, 1)] > 0.0
        assert all(v == 0.0 for key, v in util.items() if key != (0, 1))

    def test_mean_counts_idle_links(self):
        # One busy link out of the whole torus: the mean is the per-link
        # utilization scaled down by the idle rest of the topology.
        topo = Torus2D(4, 4)
        res = NetworkSimulator(topo, IdealFlow()).run(
            [Message(0, 1, 16 * 1024, route=[(0, 1)])]
        )
        util = res.link_utilization(topo)
        expected_mean = (
            util[(0, 1)]
            * topo.link(0, 1).capacity
            / topo.total_link_capacity()
        )
        assert res.mean_link_utilization(topo) == pytest.approx(expected_mean)
        assert res.mean_link_utilization(topo) < util[(0, 1)]
