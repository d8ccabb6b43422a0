"""Exact-equivalence battery and fallback behavior of the lockstep engines.

Every engine name must produce *bit-identical* results to the event
engine — equal ``finish_time``, per-message timings, ``link_busy`` and
``total_wire_bytes``, not merely approximately equal — on every topology
family and algorithm, at every data size.  ``lockstep`` runs the scalar
loop of :mod:`repro.network.lockstep_engine` in the event engine's heap
order, so it never declines; ``lockstep-vec`` declines, with a counted
reason, to that loop rather than return divergent numbers.  Message
lists, trace recorders and ``lockstep=False`` run on the event engine,
and those runs are pinned ``==`` the frozen seed loop.
"""

import inspect

import pytest

from repro import obs
from repro.bench.reference import reference_simulate_allreduce
from repro.collectives import build_schedule, compile_schedule
from repro.collectives.compiled import CompiledSchedule
from repro.metrics import collecting
from repro.network import Message, NetworkSimulator, PacketBased
from repro.network.lockstep_engine import LinkTable, link_table
from repro.network.lockstep_vec import run_batch
from repro.network.simulator import ENGINES
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

#: Gated inputs whose steps never overlap — a single-hop torus ring,
#: multi-hop switched routes and two-channel X-rails — and one whose
#: deliveries overrun later step gates (mesh-4x8 dbtree).
HEAP_ORDER_CASES = [
    ("torus-4x4", "ring", 10 * MiB),
    ("fattree-8x8", "multitree", 8 * MiB),
    ("torus-4x4@rails=2:0.5", "ring", 10 * MiB),
    ("mesh-4x8", "dbtree", 32 * MiB),
]


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
        """The grouped inputs engage the one heap order of both scalar
        engine names: on every input of :data:`HEAP_ORDER_CASES`,
        overlapping steps or not, each is one ``sim.run`` span resolved
        by ``event``, with no ``engine.fallback`` event and no
        ``sim.fallbacks`` counter, and ``==`` the message path."""
        for spec, variant, size in HEAP_ORDER_CASES:
            resolved = Scenario(spec, variant, size).resolve()
            fc = resolved.flow_control
            topo = parse_topology_spec(spec)
            schedule = build_schedule(resolved.builder, topo)
            compiled = compile_schedule(schedule)
            event = NetworkSimulator(topo, fc).run(
                build_messages(schedule, size, fc)
            )
            for engine in ("event", "lockstep"):
                where = (spec, variant, size, engine)
                with collecting() as registry, obs.observing() as recorder:
                    result = compiled.simulate(size, fc, engine=engine)
                runs = [r["attrs"] for r in recorder.records
                        if r["kind"] == "span" and r["name"] == "sim.run"]
                assert [(r["engine"], r["resolved"]) for r in runs] == [
                    (engine, "event")
                ], where
                assert not [r for r in recorder.records
                            if r["name"] == "engine.fallback"], where
                counters = registry.snapshot()["counters"]
                assert not [k for k in counters
                            if k.startswith("sim.fallbacks")], where
                assert registry.counter_value(
                    "sim.engine_runs", engine="event", topology=topo.name
                ) == 1, where
                assert_identical(event, result.simulation)


class TestFallback:
    def test_ungated_with_deps_falls_back(self):
        """lockstep=False (no gates) runs the event engine from every
        entry point, whatever engine was asked for, ``==`` the frozen
        seed loop."""
        topo = Torus2D(4, 4)
        schedule = build_schedule("multitree", topo)
        fc = PacketBased()
        seed = reference_simulate_allreduce(
            schedule, 1 * MiB, fc, lockstep=False
        )
        compiled = compile_schedule(schedule)
        for engine in ENGINES:
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
                assert_identical(outcome.simulation, seed)
            assert registry.counter_value(
                "sim.engine_runs", engine="event", topology=topo.name
            ) == 2

    def test_fallback_counted_in_metrics(self):
        """A step overlap (mesh-4x8 dbtree at 32 MiB) is no fallback for
        the compiled ``lockstep`` run: it is counted once as an event
        run, with no ``step-overlap`` fallback."""
        topo = Mesh2D(4, 8)
        compiled = compile_schedule(build_schedule("dbtree", topo))
        fc = PacketBased()
        with collecting() as registry:
            compiled.simulate(32 * MiB, fc, engine="lockstep")
        assert registry.counter_value(
            "sim.fallbacks", engine="lockstep", reason="step-overlap",
            topology=topo.name,
        ) == 0
        assert registry.counter_value(
            "sim.engine_runs", engine="event", topology=topo.name
        ) == 1
        assert registry.counter_value(
            "sim.engine_runs", engine="lockstep", topology=topo.name
        ) == 0

    def test_fast_path_counted_in_metrics(self):
        """``lockstep`` on the message path (torus-4x4 ring at 10 MiB)
        is counted once as an event run, without a fallback."""
        topo = Torus2D(4, 4)
        schedule = build_schedule("ring", topo)
        fc = PacketBased()
        with collecting() as registry:
            simulate_allreduce(schedule, 10 * MiB, fc, engine="lockstep")
        assert registry.counter_value(
            "sim.engine_runs", engine="event", topology=topo.name
        ) == 1
        assert registry.counter_value(
            "sim.engine_runs", engine="lockstep", topology=topo.name
        ) == 0
        assert registry.counter_value(
            "sim.fallbacks", engine="lockstep", reason="step-overlap",
            topology=topo.name,
        ) == 0

    def test_same_step_dependency_falls_back(self):
        """A row whose dependency lies in its own step is not ready when
        the step starts: ``lockstep-vec`` declines (``step-overlap``) to
        the scalar loop, whose heap order plays the run exactly, as it
        does for ``lockstep`` without a decline."""
        topo = Torus2D(4, 4)
        compiled = compile_schedule(build_schedule("ring", topo))
        bounds = compiled.step_bounds
        first, last = int(bounds[-2]), int(bounds[-1]) - 1
        deps = compiled.deps
        deps[first] = deps[first] + [last]
        dep_off = [0]
        for dep_list in deps:
            dep_off.append(dep_off[-1] + len(dep_list))
        skewed = CompiledSchedule(
            compiled.topology, compiled.algorithm, compiled.num_steps,
            compiled.srcs, compiled.dsts, compiled.steps,
            compiled.frac_num, compiled.frac_den, compiled.links,
            compiled.route_off, compiled.route_val,
            dep_off, [dep for dep_list in deps for dep in dep_list],
            compiled.ser_profile,
        )
        for size in (32 * KiB, 1 * MiB, 32 * MiB):
            event = skewed.simulate(size, engine="event")
            for engine in ("lockstep", "lockstep-vec"):
                with collecting() as registry:
                    if engine == "lockstep-vec":
                        fast = run_batch(
                            skewed, (size,), keep_timings=True
                        ).results[0]
                    else:
                        fast = skewed.simulate(size, engine=engine)
                assert_identical(fast.simulation, event.simulation)
                assert registry.counter_value(
                    "sim.fallbacks", engine=engine,
                    reason="step-overlap", topology=topo.name,
                ) == (engine == "lockstep-vec"), (size, engine)
                assert registry.counter_value(
                    "sim.engine_runs", engine="event", topology=topo.name
                ) == 1, (size, engine)

    def test_unknown_engine_rejected(self):
        """Engines are validated where they are chosen, naming the
        choices; ``NetworkSimulator.run`` takes no engine at all."""
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
        # Also where a recorder or lockstep=False lowers to messages.
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
        """A route naming a link the topology lacks is an error when
        ``NetworkSimulator.run`` lowers it to dense link ids."""
        topo = Torus2D(2, 2)
        fc = PacketBased()
        messages = [Message(0, 1, 1024.0, route=[(97, 99)])]
        with pytest.raises(KeyError):
            NetworkSimulator(topo, fc).run(messages)


#: Recorded runs: one whose steps never overlap (ring), and two whose
#: deliveries overrun later step gates (MultiTree at 32 KiB, dbtree at
#: 32 MiB).
PARITY_CASES = [
    ("torus-4x4", "ring", 10 * MiB),
    ("torus-4x4", "multitree", 32 * KiB),
    ("mesh-4x8", "dbtree", 32 * MiB),
]


def _recorded_runs(spec, variant, size):
    """The seed's result and the schedule's routes, plus
    ``(label, result, trace)`` for every recorded request of one case."""
    resolved = Scenario(spec, variant, size).resolve()
    fc = resolved.flow_control
    schedule = build_schedule(resolved.builder, parse_topology_spec(spec))
    seed = reference_simulate_allreduce(schedule, size, fc)
    routes = [schedule.route_of(op) for op in schedule.ops]
    compiled = compile_schedule(schedule)
    runs = []
    for engine in ENGINES:
        trace = Trace()
        runs.append(("simulate_allreduce/" + engine, simulate_allreduce(
            schedule, size, fc, recorder=trace, engine=engine
        ), trace))
        trace = Trace()
        runs.append(("compiled/" + engine, compiled.simulate(
            size, fc, recorder=trace, engine=engine
        ), trace))
    return seed, routes, runs


class TestRecorderParity:
    def test_trace_identical_across_engines(self):
        """Whatever engine was asked for, a recorded run equals the
        frozen seed, its trace holds every hop exactly once in route
        order with the seed's message times, and every entry point
        records the same trace."""
        for case in PARITY_CASES:
            seed, routes, runs = _recorded_runs(*case)
            _label, _outcome, first = runs[0]
            for label, outcome, trace in runs:
                where = (case, label)
                assert_identical(outcome.simulation, seed)
                # A run that records a hop twice shows up here as extra
                # hops.
                assert len(trace.hops) == sum(map(len, routes)), where
                assert trace.messages.keys() == set(range(len(routes))), where
                for idx, timing in enumerate(seed.timings):
                    hops = trace.hops_of(idx)
                    assert [hop.link for hop in hops] == list(routes[idx])
                    assert hops == first.hops_of(idx), where
                    got = trace.messages[idx]
                    assert (got.ready, got.inject, got.deliver,
                            got.ideal_deliver) == (
                        timing.ready, timing.inject, timing.deliver,
                        timing.ideal_deliver,
                    ), where
                    if hops:
                        assert hops[0].grant == timing.inject, where
                assert trace.gates == first.gates, where

    def test_trace_metadata_identical_across_entry_points(self):
        """Every recorded run plays the event engine, so every entry
        point writes the same metadata whatever engine was asked for."""
        for case in PARITY_CASES:
            _seed, _routes, runs = _recorded_runs(*case)
            first = runs[0][2].metadata
            assert first["engine"] == "event"
            for label, _outcome, trace in runs:
                assert trace.metadata == first, (case, label)


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
