"""The array heap is the event engine.

Compiled runs of the ``event`` and ``lockstep`` engines simulate the CSR
arrays directly: one loop, ``run_indexed``, in heap order or in step
order.  These tests pin them ``==`` the frozen seed and the message path —
timings, telemetry and ``run_job`` points — and pin the object-free
helpers they lean on (``dep_structure``, array ``max_queue_delay``)
against their materialized or frozen-seed forms.
"""

import functools

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro import obs
from repro.bench.reference import (
    reference_dep_structure,
    reference_simulate_allreduce,
)
from repro.collectives import build_schedule, compile_algorithm
from repro.collectives.compiled import CompiledSchedule
from repro.metrics import collecting
from repro.network.links import LazyTimings, dep_structure
from repro.ni import injector
from repro.ni.injector import simulate_allreduce
from repro.scenario import Scenario
from repro.sweep import SweepJob, run_job
from repro.topology.specs import parse_topology_spec
from repro.trace import Trace

KiB = 1024
MiB = 1 << 20
SIZES = (32 * KiB, 1 * MiB, 32 * MiB)
ENGINES = ("event", "lockstep", "lockstep-vec")

#: The perfbench ``light`` pairs: 32-node fabrics and a 64-node baseline.
LIGHT = (
    ("torus-4x8", "multitree"),
    ("mesh-4x8", "dbtree"),
    ("torus-4x8@rails=2:0.5", "ring"),
    ("fattree-8x8", "hierarchical"),
)


@functools.lru_cache(maxsize=None)
def _resolved(spec, variant):
    """(builder, flow control, topology, object schedule, compiled form)."""
    resolved = Scenario(spec, variant, SIZES[0]).resolve()
    topology = parse_topology_spec(spec)
    schedule = build_schedule(resolved.builder, topology)
    compiled = compile_algorithm(resolved.builder, topology)
    return resolved.builder, resolved.flow_control, topology, schedule, compiled


def assert_identical(a, b):
    assert a.finish_time == b.finish_time
    assert a.timings == b.timings
    assert a.link_busy == b.link_busy
    assert a.total_wire_bytes == b.total_wire_bytes


class TestArrayHeapIsEventEngine:
    @pytest.mark.parametrize("spec,variant", [
        ("bigraph-4x8", "multitree"),         # steps overlap
        ("torus-4x8@rails=2:0.5", "ring"),    # channel pools
        ("mesh-4x8", "dbtree"),               # multi-hop routes
        ("fattree-8x8", "hierarchical"),
        ("torus-4x8", "multitree"),
    ])
    def test_compiled_event_equals_seed(self, spec, variant):
        """The compiled arrays and the lowered message list both play
        ``==`` the frozen seed loop."""
        _builder, fc, _topology, schedule, compiled = _resolved(spec, variant)
        for size in SIZES:
            ours = compiled.simulate(size, fc, engine="event").simulation
            messages = simulate_allreduce(
                schedule, size, fc, engine="event"
            ).simulation
            seed = reference_simulate_allreduce(schedule, size, fc)
            assert isinstance(ours.timings, LazyTimings)
            assert_identical(ours, seed)
            assert_identical(messages, seed)

    def test_overlap_case_needs_heap_order(self):
        """bigraph-4x8 MultiTree is the case step-level grouping declines,
        so the equality above covers heap order, not only step order."""
        _builder, fc, topology, _schedule, compiled = _resolved(
            "bigraph-4x8", "multitree"
        )
        with collecting() as registry:
            for size in SIZES:
                compiled.simulate(size, fc, engine="lockstep")
        assert registry.counter_value(
            "sim.fallbacks", engine="lockstep", reason="step-overlap",
            topology=topology.name,
        ) > 0

    def test_channel_pool_case_has_wide_links(self):
        _builder, _fc, topology, _schedule, _compiled = _resolved(
            "torus-4x8@rails=2:0.5", "ring"
        )
        assert any(spec.capacity > 1 for spec in topology.links.values())

    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize("spec,variant", LIGHT)
    def test_run_job_points_equal_object_path(self, spec, variant, engine):
        _builder, fc, _topology, schedule, _compiled = _resolved(spec, variant)
        sweep = run_job(SweepJob(spec, variant, SIZES, engine=engine))
        expected = []
        for size in SIZES:
            result = simulate_allreduce(schedule, size, fc, True)
            expected.append(
                (size, result.time, result.bandwidth, result.max_queue_delay())
            )
        assert [
            (p.data_bytes, p.time, p.bandwidth, p.max_queue_delay)
            for p in sweep.points
        ] == expected

    def test_gated_run_job_builds_no_messages(self, monkeypatch):
        calls = []
        lower = injector.build_messages
        compiled_lower = CompiledSchedule.build_messages

        def traced_lower(*args, **kwargs):
            calls.append("ni")
            return lower(*args, **kwargs)

        def traced_compiled_lower(self, *args, **kwargs):
            calls.append("compiled")
            return compiled_lower(self, *args, **kwargs)

        monkeypatch.setattr(injector, "build_messages", traced_lower)
        monkeypatch.setattr(
            CompiledSchedule, "build_messages", traced_compiled_lower
        )
        topology = parse_topology_spec("torus-4x4")
        schedule = build_schedule("ring", topology)
        for engine in ENGINES:
            for spec, variant in LIGHT:
                run_job(SweepJob(spec, variant, SIZES, engine=engine))
            # Ungated compiled runs play the columns too.
            run_job(SweepJob("torus-4x4", "ring", SIZES[:1], engine=engine,
                             lockstep=False))
            # So does an unrecorded Schedule, gated or not.
            for lockstep in (True, False):
                simulate_allreduce(schedule, SIZES[0], lockstep=lockstep,
                                   engine=engine)
        assert calls == []
        # The wrappers are live: a recorded compiled run, and a recorded
        # Schedule run through the injector lower.
        compile_algorithm("ring", topology).simulate(
            SIZES[0], recorder=Trace()
        )
        simulate_allreduce(schedule, SIZES[0], recorder=Trace())
        assert calls == ["compiled", "ni", "compiled"]


def _sim_metrics(registry):
    """Everything the simulation layers record, minus wall-clock values
    and the sweep runner's own series metrics."""
    snapshot = registry.snapshot()
    out = {}
    for kind in ("counters", "gauges", "histograms"):
        for key, value in snapshot.get(kind, {}).items():
            if key.startswith(("sweep.", "bandwidth", "allreduce_time",
                               "schedule.build_time")):
                continue
            out[(kind, key)] = value
    return out


class TestCompiledTelemetry:
    @pytest.mark.parametrize("engine", ["event", "lockstep"])
    @pytest.mark.parametrize("spec,variant", [
        ("torus-4x4", "ring"),
        ("mesh-4x8", "dbtree"),       # lockstep declines: counted fallbacks
        ("torus-4x8", "multitree"),   # streaming compile route
    ])
    def test_run_job_metrics_equal_message_path(self, spec, variant, engine):
        builder, fc, topology, _schedule, _compiled = _resolved(spec, variant)
        with collecting() as ours:
            run_job(SweepJob(spec, variant, SIZES, engine=engine))
        with collecting() as ref:
            schedule = build_schedule(builder, topology)
            for size in SIZES:
                simulate_allreduce(schedule, size, fc, True, engine=engine)
        ours_metrics = _sim_metrics(ours)
        assert ours_metrics == _sim_metrics(ref)
        names = {key.split("|")[0] for _kind, key in ours_metrics}
        assert {
            "sim.engine_runs", "sim.runs", "sim.messages", "sim.wire_bytes",
            "sim.link_busy_time", "sim.finish_time", "sim.queue_delay",
            "sim.queue_delay_time", "fc.overhead_bytes",
            "lockstep.gated_runs", "schedule.builds",
        } <= names

    def test_lockstep_decline_is_counted(self):
        with collecting() as registry:
            run_job(SweepJob("mesh-4x8", "dbtree", SIZES, engine="lockstep"))
        fallbacks = registry.counter_value(
            "sim.fallbacks", engine="lockstep", reason="step-overlap",
            topology="mesh-4x8",
        )
        assert fallbacks > 0
        assert registry.counter_value(
            "sim.engine_runs", engine="event", topology="mesh-4x8"
        ) == fallbacks

    @staticmethod
    def _shape(records):
        names = {r["span"]: r["name"] for r in records if r["kind"] == "span"}
        out = []
        for record in records:
            if record["kind"] == "span":
                attrs = dict(record["attrs"])
                out.append(("span", record["name"], attrs,
                            names.get(record["parent"])))
            else:
                out.append((record["kind"], record["name"],
                            record.get("fields"), names.get(record["span"])))
        return out

    @pytest.mark.parametrize("engine", ["event", "lockstep"])
    def test_spans_equal_message_path(self, engine):
        _builder, fc, _topology, schedule, compiled = _resolved(
            "mesh-4x8", "dbtree"
        )
        with obs.observing() as ours:
            for size in SIZES:
                compiled.simulate(size, fc, engine=engine)
        with obs.observing() as ref:
            for size in SIZES:
                simulate_allreduce(schedule, size, fc, engine=engine)
        shape = self._shape(ours.records)
        assert shape == self._shape(ref.records)
        assert sum(name == "sim.run" for _k, name, _a, _p in shape) == len(SIZES)

    def test_collection_does_not_perturb_results(self):
        _builder, fc, _topology, _schedule, compiled = _resolved(
            "mesh-4x8", "dbtree"
        )
        plain = compiled.simulate(SIZES[1], fc, engine="lockstep").simulation
        with collecting(), obs.observing():
            observed = compiled.simulate(
                SIZES[1], fc, engine="lockstep"
            ).simulation
        assert_identical(plain, observed)


# -- object-free helpers ------------------------------------------------------

dep_lists = st.integers(0, 40).flatmap(
    lambda n: st.tuples(*[
        st.lists(st.integers(0, i - 1), max_size=4) if i else st.just([])
        for i in range(n)
    ])
)


class TestDepStructure:
    @settings(max_examples=200, deadline=None)
    @given(lists=dep_lists)
    @example(lists=())              # n = 0
    @example(lists=([],))           # n = 1
    @example(lists=([], [], []))    # no dependencies at all
    @example(lists=([], [0, 0]))    # a repeated dependency
    def test_equals_frozen_seed(self, lists):
        off = [0]
        val = []
        for item in lists:
            val.extend(item)
            off.append(len(val))
        expected = reference_dep_structure(off, val)
        assert _lists(dep_structure(off, val)) == expected
        # Streaming/artifact schedules hold numpy columns.
        assert _lists(dep_structure(
            np.asarray(off, dtype=np.int64), np.asarray(val, dtype=np.int32)
        )) == expected

    def test_returns_int64_arrays(self):
        triple = dep_structure([0, 0, 1, 3], [0, 1, 1])
        assert _lists(triple) == ([0, 1, 3, 3], [1, 2, 2], [0, 1, 2])
        for part in triple:
            assert isinstance(part, np.ndarray) and part.dtype == np.int64
            assert part.flags.c_contiguous


def _lists(triple):
    return tuple(part.tolist() for part in triple)


class TestArrayMaxQueueDelay:
    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize("spec,variant", [
        ("torus-4x8@rails=2:0.5", "ring"),
        ("mesh-4x8", "dbtree"),
        ("fattree-8x8@oversub=4", "dbtree"),
    ])
    def test_equals_materialized_max(self, spec, variant, engine):
        _builder, fc, _topology, _schedule, compiled = _resolved(spec, variant)
        for size in SIZES:
            sim = compiled.simulate(size, fc, engine=engine).simulation
            fast = sim.max_queue_delay()
            assert type(fast) is float
            assert fast == max(
                (t.queue_delay for t in sim.timings), default=0.0
            )
            assert sim.queue_delays() == [t.queue_delay for t in sim.timings]

    def test_no_messages_is_zero(self):
        fast = LazyTimings([], [], [], []).max_queue_delay()
        assert fast == 0.0 and type(fast) is float
