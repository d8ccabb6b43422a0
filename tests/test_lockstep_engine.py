"""Exact-equivalence battery and fallback behavior of the lockstep engine.

The lockstep step-level engine (:mod:`repro.network.lockstep_engine`)
must produce *bit-identical* results to the event engine — equal
``finish_time``, per-message timings, ``link_busy`` and
``total_wire_bytes``, not merely approximately equal — on every topology
family and algorithm, at every data size.  When it cannot guarantee that
(processing-order overruns), it must fall back to the array heap rather
than return divergent numbers.  It runs only on compiled arrays:
message lists, trace recorders and ``lockstep=False`` run on the object
heap.
"""

import inspect

import pytest

from repro import obs
from repro.collectives import build_schedule, compile_schedule
from repro.metrics import collecting
from repro.network import Message, NetworkSimulator, PacketBased
from repro.network.lockstep_engine import LinkTable, link_table
from repro.ni.injector import build_messages, simulate_allreduce
from repro.scenario import Scenario
from repro.topology import BiGraph, FatTree, Mesh2D, Torus2D
from repro.topology.specs import parse_topology_spec
from repro.trace import Trace

KiB = 1024
MiB = 1 << 20

TOPOLOGIES = [
    pytest.param(lambda: Torus2D(4, 4), id="torus"),
    pytest.param(lambda: Mesh2D(4, 4), id="mesh"),
    pytest.param(lambda: FatTree(4, 4), id="fattree"),
    pytest.param(lambda: BiGraph(4, 4), id="bigraph"),
]
ALGORITHMS = ["multitree", "ring", "dbtree"]
SIZES = [4 * KiB, 256 * KiB, 10 * MiB]


def assert_identical(a, b):
    """Full bitwise equality between two SimulationResults."""
    assert a.finish_time == b.finish_time
    assert a.timings == b.timings
    assert a.link_busy == b.link_busy
    assert a.total_wire_bytes == b.total_wire_bytes


class TestEquivalenceBattery:
    """engine="lockstep" equals engine="event" exactly, everywhere."""

    @pytest.mark.parametrize("make_topo", TOPOLOGIES)
    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    @pytest.mark.parametrize("engine", ["lockstep", "lockstep-vec"])
    def test_exact_equality(self, make_topo, algorithm, engine):
        topo = make_topo()
        schedule = build_schedule(algorithm, topo)
        for size in SIZES:
            event = simulate_allreduce(schedule, size)
            stepped = simulate_allreduce(schedule, size, engine=engine)
            assert_identical(event.simulation, stepped.simulation)

    @pytest.mark.parametrize("make_topo", TOPOLOGIES)
    def test_compiled_exact_equality(self, make_topo):
        """The compiled fast path is bit-identical too (all its tiers,
        including the batched vectorized engine)."""
        topo = make_topo()
        for algorithm in ALGORITHMS:
            compiled = compile_schedule(build_schedule(algorithm, topo))
            schedule = build_schedule(algorithm, topo)
            for size in SIZES:
                event = simulate_allreduce(schedule, size)
                fast = compiled.simulate(size)
                assert_identical(event.simulation, fast.simulation)
                vec = compiled.simulate(size, engine="lockstep-vec")
                assert_identical(event.simulation, vec.simulation)

    def test_grouped_fast_path_engages(self):
        """At serialization-dominated sizes the step-level path itself
        (not a fallback) must produce the results."""
        topo = Torus2D(4, 4)
        schedule = build_schedule("ring", topo)
        fc = PacketBased()
        with obs.observing() as recorder:
            result = compile_schedule(schedule).simulate(
                10 * MiB, fc, engine="lockstep"
            )
        runs = [r for r in recorder.records
                if r["kind"] == "span" and r["name"] == "sim.run"]
        assert [r["attrs"]["resolved"] for r in runs] == ["lockstep"]
        event = NetworkSimulator(topo, fc).run(
            build_messages(schedule, 10 * MiB, fc)
        )
        assert_identical(event, result.simulation)


class TestFallback:
    def test_ungated_with_deps_falls_back(self):
        """lockstep=False (no gates) must reach the object heap from every
        entry point and still give identical results."""
        topo = Torus2D(4, 4)
        schedule = build_schedule("multitree", topo)
        fc = PacketBased()
        ref = simulate_allreduce(schedule, 1 * MiB, fc, lockstep=False)
        compiled = compile_schedule(schedule)
        for engine in ("lockstep", "lockstep-vec"):
            with collecting() as registry:
                outcomes = [
                    simulate_allreduce(
                        schedule, 1 * MiB, fc, lockstep=False, engine=engine
                    ),
                    compiled.simulate(
                        1 * MiB, fc, lockstep=False, engine=engine
                    ),
                ]
            for outcome in outcomes:
                assert_identical(ref.simulation, outcome.simulation)
            assert registry.counter_value(
                "sim.engine_runs", engine="event", topology=topo.name
            ) == 2

    def test_fallback_counted_in_metrics(self):
        """A step overlap drops the compiled lockstep run to the array
        heap, counted once with its reason."""
        topo = Mesh2D(4, 8)
        compiled = compile_schedule(build_schedule("dbtree", topo))
        fc = PacketBased()
        with collecting() as registry:
            compiled.simulate(32 * MiB, fc, engine="lockstep")
        assert registry.counter_value(
            "sim.fallbacks", engine="lockstep", reason="step-overlap",
            topology=topo.name,
        ) == 1
        # The run itself lands on the event engine.
        assert registry.counter_value(
            "sim.engine_runs", engine="event", topology=topo.name
        ) == 1
        assert registry.counter_value(
            "sim.engine_runs", engine="lockstep", topology=topo.name
        ) == 0

    def test_fast_path_counted_in_metrics(self):
        topo = Torus2D(4, 4)
        schedule = build_schedule("ring", topo)
        fc = PacketBased()
        with collecting() as registry:
            simulate_allreduce(schedule, 10 * MiB, fc, engine="lockstep")
        assert registry.counter_value(
            "sim.engine_runs", engine="lockstep", topology=topo.name
        ) == 1
        assert registry.counter_value(
            "sim.engine_runs", engine="event", topology=topo.name
        ) == 0
        assert registry.counter_value(
            "sim.fallbacks", engine="lockstep", reason="step-overlap",
            topology=topo.name,
        ) == 0

    def test_unknown_engine_rejected(self):
        """Engines are validated where they are chosen, naming the
        choices; the object heap takes no engine at all."""
        topo = Torus2D(2, 2)
        schedule = build_schedule("ring", topo)
        compiled = compile_schedule(schedule)
        named = r"unknown engine 'warp' \(choose: event/lockstep/lockstep-vec\)"
        with pytest.raises(ValueError, match=named):
            simulate_allreduce(schedule, 1024, engine="warp")
        with pytest.raises(ValueError, match=named):
            compiled.simulate(1024, engine="warp")
        with pytest.raises(ValueError, match=named):
            Scenario("torus-2x2", "ring", 1024, engine="warp")
        # Also where a recorder or lockstep=False takes the object heap.
        with pytest.raises(ValueError, match="unknown engine"):
            simulate_allreduce(schedule, 1024, recorder=Trace(), engine="warp")
        with pytest.raises(ValueError, match="unknown engine"):
            compiled.simulate(1024, lockstep=False, engine="warp")
        assert "engine" not in inspect.signature(
            NetworkSimulator.run
        ).parameters

    def test_empty_messages(self):
        sim = NetworkSimulator(Torus2D(2, 2), PacketBased())
        res = sim.run([])
        assert res.finish_time == 0.0
        assert res.timings == []
        assert res.link_busy == {}

    def test_foreign_route_rejected(self):
        """A route naming a link the topology lacks is an error on the
        object heap, which looks links up per hop."""
        topo = Torus2D(2, 2)
        fc = PacketBased()
        messages = [Message(0, 1, 1024.0, route=[(97, 99)])]
        with pytest.raises(KeyError):
            NetworkSimulator(topo, fc).run(messages)


#: Recorded runs: one where step-level processing accepts (ring), and two
#: where it declines part-way (MultiTree at 32 KiB, dbtree at 32 MiB).
PARITY_CASES = [
    ("torus-4x4", "ring", 10 * MiB),
    ("torus-4x4", "multitree", 32 * KiB),
    ("mesh-4x8", "dbtree", 32 * MiB),
]


def _recorded_runs(spec, variant, size):
    """The event engine's run and trace, plus ``(label, result, trace)``
    for every recorded fast-engine request of one case."""
    resolved = Scenario(spec, variant, size).resolve()
    fc = resolved.flow_control
    schedule = build_schedule(resolved.builder, parse_topology_spec(spec))
    ref = Trace()
    event = simulate_allreduce(schedule, size, fc, recorder=ref)
    runs = []
    trace = Trace()
    runs.append(("simulate_allreduce/lockstep", simulate_allreduce(
        schedule, size, fc, recorder=trace, engine="lockstep"
    ), trace))
    compiled = compile_schedule(schedule)
    for engine in ("lockstep", "lockstep-vec"):
        trace = Trace()
        runs.append(("compiled/" + engine, compiled.simulate(
            size, fc, recorder=trace, engine=engine
        ), trace))
    return event, ref, runs


class TestRecorderParity:
    def test_trace_identical_across_engines(self):
        """A recorder observes every hop exactly once, with the same
        hops, completions and gates as the event engine, whatever engine
        was asked for — a recorded run is always the object heap."""
        cases = {
            "%s/%s/%d" % case: _recorded_runs(*case) for case in PARITY_CASES
        }
        # Hop counts first: a run that records a declined step and then
        # re-records it shows up here as extra hops.
        assert {
            (case, label): len(trace.hops)
            for case, (_event, _ref, runs) in cases.items()
            for label, _outcome, trace in runs
        } == {
            (case, label): len(ref.hops)
            for case, (_event, ref, runs) in cases.items()
            for label, _outcome, _trace in runs
        }
        for case, (event, ref, runs) in cases.items():
            for label, outcome, trace in runs:
                where = (case, label)
                assert_identical(event.simulation, outcome.simulation)
                for idx in range(len(event.simulation.timings)):
                    assert trace.hops_of(idx) == ref.hops_of(idx), where
                assert trace.gates == ref.gates, where
                assert trace.messages.keys() == ref.messages.keys(), where
                for idx, ev in ref.messages.items():
                    got = trace.messages[idx]
                    assert (got.ready, got.inject, got.deliver,
                            got.ideal_deliver) == (
                        ev.ready, ev.inject, ev.deliver, ev.ideal_deliver
                    ), where


class TestLinkTable:
    def test_memoized_per_topology(self):
        topo = Torus2D(4, 4)
        assert link_table(topo) is link_table(topo)
        assert link_table(topo) is not link_table(Torus2D(4, 4))

    def test_dense_ids_cover_all_links(self):
        topo = FatTree(4, 4)
        table = LinkTable(topo)
        assert len(table.keys) == len(topo.links)
        assert sorted(table.id_of.values()) == list(range(len(table.keys)))
        for key, lid in table.id_of.items():
            spec = topo.link(*key)
            assert table.bandwidth[lid] == spec.bandwidth
            assert table.latency[lid] == spec.latency
            assert table.capacity[lid] == spec.capacity
