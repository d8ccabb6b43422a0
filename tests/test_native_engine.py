"""The C engine kernel is the Python loop, bit for bit.

:mod:`repro.network.native` runs :func:`run_indexed`'s loop as one C
function whenever it has loaded and no trace recorder is passed.  These
tests hold the kernel ``==`` the Python loop in both processing orders
(heap and step), including the step order's declines, on the compile
equivalence pairs at three sizes and on the corner cases the loop
handles: channel pools, zero-hop rows, no messages, a dependency cycle
and columns the kernel must never index.  They also pin the loader: a
failed build still gives ``==`` results, builds racing into one empty
cache both load, and a recorded run never reaches the kernel.
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
from repro.metrics import collecting
from repro.network import PacketBased, native
from repro.network.links import dep_structure, link_table
from repro.network.lockstep_engine import engine_columns, run_arrays
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


def _declines(compiled, registry):
    return registry.counter_value(
        "sim.fallbacks", engine="lockstep", reason="step-overlap",
        topology=compiled.topology.name,
    )


def both_paths(compiled, size, engine):
    """``(kernel, python)`` results and their step-order decline counts."""
    runs = []
    for context in (nullcontext(), python_loop()):
        with context, collecting() as registry:
            result = compiled.simulate(size, FC, engine=engine).simulation
        runs.append((result, _declines(compiled, registry)))
    return runs


@pytest.mark.parametrize("spec,algorithm", PAIRS)
def test_kernel_equals_python_loop(kernel, spec, algorithm):
    compiled = _compiled(spec, algorithm)
    for size in SIZES:
        for engine in ("event", "lockstep"):
            (fast, fast_declines), (slow, slow_declines) = both_paths(
                compiled, size, engine
            )
            assert_identical(fast, slow)
            assert fast_declines == slow_declines


class TestCorners:
    def test_pools_are_multi_channel(self, kernel):
        topology = _compiled("torus-4x8@rails=2:0.5", "ring").topology
        assert any(spec.capacity > 1 for spec in topology.links.values())

    def test_step_order_decline(self, kernel):
        """bigraph-4x8 MultiTree: the kernel's step order declines on
        the sizes the Python step order does."""
        compiled = _compiled("bigraph-4x8", "multitree")
        total = 0
        for size in SIZES:
            (fast, fast_declines), (slow, slow_declines) = both_paths(
                compiled, size, "lockstep"
            )
            assert_identical(fast, slow)
            assert fast_declines == slow_declines
            total += fast_declines
        assert total > 0

    def test_same_step_dependency_declines(self, kernel):
        """A hand-built schedule whose row waits on a row of its own
        step: both step orders decline to heap order, which delays the
        waiting row until the first is delivered."""
        topology = Torus2D(4, 4)
        bandwidth = topology.links[(0, 1)].bandwidth
        compiled = ScheduleColumns(
            "hand", 1, [0, 1], [1, 2], [1, 1], [1, 1], [2, 2],
            [(0, 1), (1, 2)], [0, 1, 2], [0, 1], [0, 0, 1], [0],
            [(1, bandwidth, 0.5)], {},
        ).bind(topology)
        (fast, fast_declines), (slow, slow_declines) = both_paths(
            compiled, 1 * MiB, "lockstep"
        )
        assert_identical(fast, slow)
        assert fast_declines == slow_declines == 1
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
