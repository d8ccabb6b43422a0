"""The C engine kernel is the Python loop, bit for bit.

:mod:`repro.network.native` runs :func:`run_indexed`'s loop as one C
function whenever it has loaded and no trace recorder is passed.  These
tests hold the kernel ``==`` the Python loop, for both scalar engine
names, on the compile equivalence pairs at three sizes and on the corner
cases the loop handles: channel pools, a row that waits on its own
step, zero-hop rows, no messages, a dependency cycle and columns the
kernel must never index.  The kernel's ladder entry is held to per-size
Python-loop runs the same way.  They also pin the loader: a failed
build still gives ``==`` results, builds racing into one empty cache
both load, and a recorded run never reaches the kernel.
"""

import functools
import multiprocessing
import sys
import warnings
from contextlib import contextmanager, nullcontext

import numpy as np
import pytest

from repro import obs
from repro.collectives import build_schedule, compile_schedule
from repro.collectives.compiled import ScheduleColumns
from repro.network import PacketBased, native
from repro.network.links import dep_structure, link_table
from repro.network.lockstep_engine import (
    engine_columns,
    ladder_columns,
    run_arrays,
)
from repro.network.lockstep_vec import run_batch
from repro.network.simulator import Message, NetworkSimulator
from repro.obs import ObsRecorder
from repro.topology import Torus2D
from repro.topology.specs import parse_topology_spec
from repro.trace import Trace

from .test_compile_equivalence import PAIRS

KiB = 1024
MiB = 1 << 20
SIZES = (32 * KiB, 1 * MiB, 32 * MiB)
FC = PacketBased()


@pytest.fixture(scope="module")
def kernel():
    loaded = native.kernel()
    if loaded is None:
        pytest.skip("no C compiler: the engines run the Python loop")
    return loaded


@contextmanager
def python_loop():
    """Run the engines on the Python loop, as a host without a build."""
    saved = native._kernel
    native._kernel = None
    try:
        yield
    finally:
        native._kernel = saved


@contextmanager
def kernel_forbidden():
    """Fail the test if anything calls the kernel."""
    def refuse(*_args):
        raise AssertionError("the C kernel was called")

    saved = native._kernel
    native._kernel = refuse
    try:
        yield
    finally:
        native._kernel = saved


@contextmanager
def entries_forbidden():
    """Fail the test if anything calls either kernel entry."""
    def refuse(*_args):
        raise AssertionError("a C kernel entry was called")

    saved = native._kernel
    native._kernel = native.Kernel(refuse, refuse)
    try:
        yield
    finally:
        native._kernel = saved


@contextmanager
def counted_ladder_calls(kernel):
    """Count ``run_ladder`` calls; yields the one-element count list."""
    calls = [0]

    def run_ladder(*args):
        calls[0] += 1
        return kernel.run_ladder(*args)

    saved = native._kernel
    native._kernel = kernel._replace(run_ladder=run_ladder)
    try:
        yield calls
    finally:
        native._kernel = saved


@functools.lru_cache(maxsize=None)
def _compiled(spec, algorithm):
    return compile_schedule(build_schedule(algorithm, parse_topology_spec(spec)))


def assert_identical(a, b):
    assert a.finish_time == b.finish_time
    assert a.timings == b.timings
    assert a.link_busy == b.link_busy
    assert a.total_wire_bytes == b.total_wire_bytes
    # Floats leave the engine as Python floats: caches compare by repr.
    assert type(a.finish_time) is float
    assert type(a.total_wire_bytes) is float
    assert all(type(v) is float for v in a.link_busy.values())
    assert all(type(t.deliver) is float for t in a.timings)


def both_paths(compiled, size, engine):
    """``(kernel, python)`` results of one run."""
    runs = []
    for context in (nullcontext(), python_loop()):
        with context:
            runs.append(compiled.simulate(size, FC, engine=engine).simulation)
    return runs


@pytest.mark.parametrize("spec,algorithm", PAIRS)
def test_kernel_equals_python_loop(kernel, spec, algorithm):
    compiled = _compiled(spec, algorithm)
    for size in SIZES:
        for engine in ("event", "lockstep"):
            fast, slow = both_paths(compiled, size, engine)
            assert_identical(fast, slow)


class TestCorners:
    def test_pools_are_multi_channel(self, kernel):
        topology = _compiled("torus-4x8@rails=2:0.5", "ring").topology
        assert any(spec.capacity > 1 for spec in topology.links.values())

    def test_overlapping_steps(self, kernel):
        """bigraph-4x8 MultiTree, whose deliveries overrun later step
        gates at 32 KiB and 1 MiB: the kernel's heap order interleaves
        the steps as the Python loop's does."""
        compiled = _compiled("bigraph-4x8", "multitree")
        for size in SIZES:
            fast, slow = both_paths(compiled, size, "lockstep")
            assert_identical(fast, slow)

    def test_same_step_dependency_declines(self, kernel):
        """A hand-built schedule whose row waits on a row of its own
        step: ``lockstep-vec`` declines it (``step-overlap``), and the
        kernel and the Python loop both play it in heap order, which
        delays the waiting row until the first is delivered."""
        topology = Torus2D(4, 4)
        bandwidth = topology.links[(0, 1)].bandwidth
        compiled = ScheduleColumns(
            "hand", 1, [0, 1], [1, 2], [1, 1], [1, 1], [2, 2],
            [(0, 1), (1, 2)], [0, 1, 2], [0, 1], [0, 0, 1], [0],
            [(1, bandwidth, 0.5)], {},
        ).bind(topology)
        for engine in ("lockstep", "lockstep-vec"):
            fast, slow = both_paths(compiled, 1 * MiB, engine)
            assert_identical(fast, slow)
            assert fast.timings[1].ready == fast.timings[0].deliver

    def _messages(self):
        route = ((0, 1), (1, 2))
        return [
            Message(0, 2, 4096.0, route),
            Message(3, 3, 1000.0, (), deps=[0]),          # zero-hop
            Message(1, 2, 4096.0, ((1, 2),), deps=[1], not_before=1e-7,
                    receive_overhead=2e-8),
            Message(2, 2, 512.0, ()),                      # zero-hop, free
        ]

    @pytest.mark.parametrize("count", [4, 0])
    def test_zero_hop_rows_and_no_messages(self, kernel, count):
        sim = NetworkSimulator(Torus2D(4, 4), FC)
        messages = self._messages()[:count]
        fast = sim.run(messages)
        with python_loop():
            slow = sim.run(messages)
        assert_identical(fast, slow)
        assert len(fast.timings) == count

    def test_cycle_deadlock_text(self, kernel):
        messages = [
            Message(0, 1, 64.0, ((0, 1),), deps=[1]),
            Message(1, 0, 64.0, ((1, 0),), deps=[0]),
            Message(0, 1, 64.0, ((0, 1),)),
        ]
        sim = NetworkSimulator(Torus2D(4, 4), FC)
        with pytest.raises(RuntimeError) as fast:
            sim.run(messages)
        with python_loop(), pytest.raises(RuntimeError) as slow:
            sim.run(messages)
        assert str(fast.value) == str(slow.value)
        assert str(fast.value).startswith("dependency deadlock: 2 messages")


#: A 4-size ladder: 100003 B is no flit multiple, and ``lockstep-vec``
#: declines 32 KiB on torus-4x4 MultiTree with ``gate-boundary``.
LADDER = (32 * KiB, 100003, 1 * MiB, 32 * MiB)
LADDER_PAIRS = [*PAIRS] + [
    pytest.param(spec, algorithm, id="%s/%s" % (spec, algorithm))
    for spec, algorithm in (
        ("torus-4x4@rails=2:0.5", "multitree"),
        ("fattree-4x4@oversub=4", "ring"),
        ("bigraph-2x4@oversub=2", "multitree"),
    )
]


def per_size_python_loop(compiled, lockstep, overhead):
    """``repr`` of each ladder size's numbers from run_indexed's loop."""
    with python_loop():
        return [
            repr((result.time, result.bandwidth, result.max_queue_delay()))
            for result in (
                compiled.simulate(size, FC, lockstep, overhead)
                for size in LADDER
            )
        ]


class TestLadderEntry:
    def test_ladder_includes_a_vec_gate_boundary_decline(self, kernel):
        batch = run_batch(_compiled("torus-4x4", "multitree"), LADDER, FC)
        assert batch.points[0].reason == "gate-boundary"
        assert LADDER[1] % FC.flit_bytes

    @pytest.mark.parametrize("spec,algorithm", LADDER_PAIRS)
    def test_ladder_equals_per_size_python_loop(self, kernel, spec,
                                                algorithm):
        compiled = _compiled(spec, algorithm)
        for lockstep, overhead in ((True, 0.0), (False, 0.0), (True, 2e-8)):
            with counted_ladder_calls(kernel) as calls:
                batch = compiled.simulate_batch(LADDER, FC, lockstep,
                                                overhead)
            assert calls == [1]  # the whole ladder in one C call
            assert [
                repr((point.time, point.bandwidth, point.max_queue_delay))
                for point in batch.points
            ] == per_size_python_loop(compiled, lockstep, overhead)
            assert batch.fallbacks == 0 and batch.results is None

    @pytest.mark.parametrize("spec,algorithm", [
        ("torus-4x8@rails=2:0.5", "ring"),
        ("bigraph-4x8", "multitree"),
        ("fattree-4x4@oversub=4", "ring"),
    ])
    def test_kept_timings_equal_python_loop(self, kernel, spec, algorithm):
        """With ``keep_timings`` the entry also writes every per-message
        column and the link busy totals."""
        compiled = _compiled(spec, algorithm)
        batch = compiled.simulate_batch(LADDER, FC, keep_timings=True)
        for size, result in zip(LADDER, batch.results):
            with python_loop():
                slow = compiled.simulate(size, FC).simulation
            assert_identical(result.simulation, slow)

    def test_metered_ladder_keeps_per_size_records(self, kernel):
        """While metering, the ladder is still one call, and each size
        gets a ``sim.run`` span and a ``lockstep.gates`` event carrying
        the per-size run's attributes."""
        compiled = _compiled("torus-4x4", "multitree")
        recorder = ObsRecorder(metered=True)
        with counted_ladder_calls(kernel) as calls, \
                obs.observing(recorder):
            batch = compiled.simulate_batch(LADDER, FC)
        assert calls == [1]
        spans = [r for r in recorder.records if r["name"] == "sim.run"]
        assert [s["attrs"]["finish_time"] for s in spans] == [
            point.time for point in batch.points
        ]
        expected = ObsRecorder(metered=True)
        with obs.observing(expected), python_loop():
            for size in LADDER:
                compiled.simulate(size, FC)
        assert [s["attrs"] for s in spans] == [
            r["attrs"] for r in expected.records if r["name"] == "sim.run"
        ]
        assert [r["fields"] for r in recorder.records
                if r["name"] == "lockstep.gates"] == [
            r["fields"] for r in expected.records
            if r["name"] == "lockstep.gates"
        ]

    def test_cycle_deadlock_text(self, kernel):
        topology = Torus2D(4, 4)
        bandwidth = topology.links[(0, 1)].bandwidth
        compiled = ScheduleColumns(
            "cycle", 1, [0, 1, 0], [1, 0, 1], [1, 1, 1], [1, 1, 1],
            [2, 2, 2], [(0, 1), (1, 0)], [0, 1, 2, 3], [0, 1, 0],
            [0, 1, 2, 2], [1, 0], [(1, bandwidth, 0.5)], {},
        ).bind(topology)
        with pytest.raises(RuntimeError) as fast:
            compiled.simulate_batch(LADDER, FC)
        with python_loop(), pytest.raises(RuntimeError) as slow:
            compiled.simulate_batch(LADDER, FC)
        assert str(fast.value) == str(slow.value)
        assert str(fast.value).startswith("dependency deadlock: 2 messages")


class TestUncheckedColumnsNeverReachC:
    def _run(self, route_val, dep_struct):
        topology = Torus2D(4, 4)
        columns = engine_columns(
            link_table(topology), [0, 1, 2], route_val, dep_struct
        )
        assert not columns.native
        return run_arrays(
            topology, FC, "event", (),
            (np.array([64.0]), np.zeros(2, dtype=np.intp)), columns,
            np.zeros(2), np.zeros(2),
        )

    def test_route_id_past_the_link_table(self):
        num_links = len(link_table(Torus2D(4, 4)).keys)
        with kernel_forbidden(), pytest.raises(IndexError):
            self._run([0, num_links], dep_structure([0, 0, 0], []))

    def test_dependent_id_past_the_messages(self):
        with kernel_forbidden(), pytest.raises(IndexError):
            self._run([0, 1], (
                np.array([0, 1, 1]), np.array([2]), np.array([0, 0])
            ))

    def test_compiled_route_index_past_its_links(self):
        compiled = _compiled("torus-4x4", "ring")
        fields = ScheduleColumns(*(
            getattr(compiled, name) for name in ScheduleColumns._fields
        ))
        route_val = list(fields.route_val)
        route_val[-1] = len(fields.links)
        broken = fields._replace(route_val=route_val).bind(Torus2D(4, 4))
        with kernel_forbidden(), pytest.raises(IndexError):
            broken.simulate(1 * MiB, FC, engine="event")


class TestUncheckedLadderColumns:
    def _native(self, route_val, dep_off, dep_val):
        table = link_table(Torus2D(4, 4))
        return ladder_columns(
            table, [0, 1, 2], route_val, dep_off, dep_val
        ).native

    def test_good_columns_pass(self):
        assert self._native([0, 1], [0, 0, 1], [0])

    @pytest.mark.parametrize("dep_off,dep_val", [
        ([0, 0, 1], [2]),       # dependency id past the messages
        ([0, 0, 1], [-1]),      # negative dependency id
        ([0, 1, 0], [0]),       # decreasing offsets
        ([0, 0, 2], [0]),       # offsets past the values
        ([0, 1], [0]),          # one offset short
    ])
    def test_bad_dependency_csr_fails(self, dep_off, dep_val):
        assert not self._native([0, 1], dep_off, dep_val)

    def test_route_id_past_the_link_table_fails(self):
        num_links = len(link_table(Torus2D(4, 4)).keys)
        assert not self._native([0, num_links], [0, 0, 0], [])

    def _broken(self, **columns):
        compiled = _compiled("torus-4x4", "ring")
        fields = ScheduleColumns(*(
            getattr(compiled, name) for name in ScheduleColumns._fields
        ))
        return fields._replace(**columns).bind(Torus2D(4, 4))

    def test_compiled_dependency_id_past_its_ops(self):
        compiled = _compiled("torus-4x4", "ring")
        dep_val = list(compiled.dep_val)
        dep_val[-1] = len(compiled)
        broken = self._broken(dep_val=dep_val)
        with entries_forbidden(), pytest.raises(IndexError):
            broken.simulate_batch(LADDER, FC)

    def test_compiled_route_index_past_its_links(self):
        compiled = _compiled("torus-4x4", "ring")
        route_val = list(compiled.route_val)
        route_val[-1] = len(compiled.links)
        broken = self._broken(route_val=route_val)
        with entries_forbidden(), pytest.raises(IndexError):
            broken.simulate_batch(LADDER, FC)


def test_failed_build_falls_back_once(kernel, monkeypatch):
    compiled = _compiled("torus-4x8@rails=2:0.5", "ring")
    expected = [
        compiled.simulate(size, FC, engine="lockstep").simulation
        for size in SIZES
    ]

    def no_build():
        raise native.KernelUnavailable("compiler exited 1: test build")

    monkeypatch.setattr(native, "_load", no_build)
    monkeypatch.setattr(native, "_kernel", native._UNSET)
    recorder = ObsRecorder()
    with obs.observing(recorder), warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        for size, want in zip(SIZES, expected):
            assert_identical(
                compiled.simulate(size, FC, engine="lockstep").simulation,
                want,
            )
    events = [r for r in recorder.records if r["name"] == "engine.kernel"]
    assert len(events) == 1
    assert "test build" in events[0]["fields"]["reason"]
    messages = [str(w.message) for w in caught
                if issubclass(w.category, RuntimeWarning)]
    assert len(messages) == 1 and "test build" in messages[0]


def _spawned_load(prefix, results):
    sys.pycache_prefix = prefix
    from repro.network import native as child_native

    results.put((child_native.kernel() is not None,
                 child_native._library_path()))


def test_concurrent_builds_into_one_empty_cache(kernel, tmp_path):
    context = multiprocessing.get_context("spawn")
    results = context.Queue()
    workers = [
        context.Process(target=_spawned_load, args=(str(tmp_path), results))
        for _ in range(2)
    ]
    for worker in workers:
        worker.start()
    outcomes = [results.get(timeout=120) for _ in workers]
    for worker in workers:
        worker.join()
    assert [loaded for loaded, _path in outcomes] == [True, True]
    path, = {path for _loaded, path in outcomes}
    assert path.startswith(str(tmp_path))
    leftovers = [p.name for p in tmp_path.rglob("*") if p.suffix == ".tmp"]
    assert leftovers == []


def test_recorded_runs_never_call_the_kernel(kernel):
    compiled = _compiled("mesh-3x4", "dbtree")
    expected = compiled.simulate(1 * MiB, FC, engine="event").simulation
    with kernel_forbidden():
        recorded = compiled.simulate(
            1 * MiB, FC, engine="event", recorder=Trace()
        ).simulation
        messages = compiled.build_messages(1 * MiB, FC)
        replayed = NetworkSimulator(compiled.topology, FC).run(
            messages, Trace()
        )
    assert_identical(recorded, expected)
    assert_identical(replayed, expected)
