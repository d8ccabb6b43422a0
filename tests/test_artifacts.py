"""Compiled schedule artifacts: exactness, round-trip, store discipline."""

import json
import os

from repro.collectives import (
    COMPILED_FORMAT,
    build_schedule,
    compile_schedule,
)
from repro.collectives.compiled import lower_schedule
from repro.network.flowcontrol import MessageBased, PacketBased
from repro.ni.injector import build_messages, simulate_allreduce
from repro.scenario import artifact_fingerprint
from repro.sweep.artifacts import ARTIFACT_SCHEMA_VERSION, ArtifactStore
from repro.topology import FatTree, Torus2D

KiB = 1024
MiB = 1 << 20


def fresh_get(root, topo, algorithm="ring"):
    """Reload from disk with fallback accounting captured."""
    from repro.metrics.registry import MetricsRegistry, collecting

    registry = MetricsRegistry()
    store = ArtifactStore(str(root))
    with collecting(registry):
        compiled = store.get(topo, algorithm)
    reasons = {
        key: value
        for key, value in registry.snapshot()["counters"].items()
        if key.startswith("sim.fallbacks")
    }
    return compiled, store, reasons


def rewrite_header(store, topo, algorithm, **fields):
    """Overwrite fields of a stored artifact's JSON header in place."""
    path = store._path(artifact_fingerprint(topo, algorithm))
    with open(path) as fh:
        header = json.load(fh)
    header.update(fields)
    with open(path, "w") as fh:
        json.dump(header, fh)


def assert_identical(a, b):
    assert a.finish_time == b.finish_time
    assert a.timings == b.timings
    assert a.link_busy == b.link_busy
    assert a.total_wire_bytes == b.total_wire_bytes


class TestCompiledSchedule:
    def test_simulate_matches_injector_exactly(self):
        topo = Torus2D(4, 4)
        for algorithm in ("multitree", "ring", "dbtree"):
            schedule = build_schedule(algorithm, topo)
            compiled = compile_schedule(schedule)
            for size in (4 * KiB, 1 * MiB, 64 * MiB):
                ref = simulate_allreduce(schedule, size)
                for engine in ("lockstep", "event"):
                    got = compiled.simulate(size, engine=engine)
                    assert_identical(ref.simulation, got.simulation)
                    assert got.time == ref.time
                    assert got.bandwidth == ref.bandwidth

    def test_gates_match_ni_layer_exactly(self):
        topo = Torus2D(4, 4)
        schedule = build_schedule("multitree", topo)
        compiled = compile_schedule(schedule)
        lowered = lower_schedule(schedule)
        for fc in (PacketBased(), MessageBased()):
            for size in (4 * KiB, 3 * MiB):
                assert compiled.step_estimates(size, fc) == (
                    lowered.step_estimates(size, fc)
                )
                assert compiled.step_gates(size, fc) == (
                    lowered.step_gates(size, fc)
                )

    def test_build_messages_matches_injector(self):
        topo = Torus2D(4, 4)
        schedule = build_schedule("ring", topo)
        compiled = compile_schedule(schedule)
        fc = PacketBased()
        ref = build_messages(schedule, 2 * MiB, fc)
        got = compiled.build_messages(2 * MiB, fc)
        assert len(ref) == len(got)
        for r, g in zip(ref, got):
            assert (r.src, r.dst, r.payload_bytes) == (
                g.src, g.dst, g.payload_bytes
            )
            assert list(r.route) == list(g.route)
            assert list(r.deps) == list(g.deps)
            assert r.not_before == g.not_before

    def test_engines_read_fractions_without_a_float_list(self):
        import numpy as np

        from repro.collectives.streaming import compile_multitree

        topo = Torus2D(4, 4)
        compiled = compile_multitree(topo)
        ref = simulate_allreduce(build_schedule("multitree", topo), 1 * MiB)
        got = compiled.simulate(1 * MiB, engine="lockstep")
        assert_identical(got.simulation, ref.simulation)
        assert compiled._frac_floats is None
        assert compiled.frac_array().strides == (0,)
        # Per-op integer columns divide in numpy, as Python would.
        lowered = lower_schedule(build_schedule("dbtree", topo))
        assert lowered.frac_array().tolist() == [
            n / d for n, d in zip(lowered.frac_num, lowered.frac_den)
        ]
        assert np.asarray(lowered.frac_array()).dtype == np.float64

    def test_json_round_trip_is_exact(self, tmp_path):
        # The JSON header + binary shards reproduce the compiled form
        # exactly; its JSON-safe dict is the == oracle.
        topo = FatTree(4, 4)
        schedule = build_schedule("multitree", topo)
        compiled = compile_schedule(schedule)
        ArtifactStore(str(tmp_path)).put(compiled)
        loaded, _store, _reasons = fresh_get(tmp_path, topo, "multitree")
        assert loaded.to_dict() == json.loads(json.dumps(compiled.to_dict()))
        assert list(loaded.srcs) == list(compiled.srcs)
        assert list(loaded.dsts) == list(compiled.dsts)
        assert list(loaded.steps) == list(compiled.steps)
        assert list(loaded.frac_floats) == list(compiled.frac_floats)
        assert list(loaded.routes) == list(compiled.routes)
        assert [list(d) for d in loaded.deps] == [
            list(d) for d in compiled.deps
        ]
        assert loaded.ser_profile == compiled.ser_profile
        ref = simulate_allreduce(schedule, 5 * MiB)
        assert_identical(
            ref.simulation, loaded.simulate(5 * MiB).simulation
        )

    def test_wrong_topology_rejected(self, tmp_path):
        # A header whose topology digest is not the requested fabric's is
        # a counted topology-mismatch miss, never a wrong-fabric load.
        store = ArtifactStore(str(tmp_path))
        topo = Torus2D(4, 4)
        store.get_or_compile(topo, "ring")
        rewrite_header(store, topo, "ring", topology="0" * 16)
        loaded, fresh, reasons = fresh_get(tmp_path, topo)
        assert loaded is None
        assert (fresh.hits, fresh.misses) == (0, 1)
        assert any("topology-mismatch" in key for key in reasons)

    def test_unknown_format_rejected(self, tmp_path):
        store = ArtifactStore(str(tmp_path))
        topo = Torus2D(4, 4)
        store.get_or_compile(topo, "ring")
        assert COMPILED_FORMAT != "repro-compiled-v999"
        rewrite_header(store, topo, "ring", compiled_format="repro-compiled-v999")
        loaded, fresh, reasons = fresh_get(tmp_path, topo)
        assert loaded is None and fresh.misses == 1
        assert any("format-mismatch" in key for key in reasons)


class TestArtifactStore:
    def test_miss_then_hit(self, tmp_path):
        store = ArtifactStore(str(tmp_path))
        topo = Torus2D(4, 4)
        assert store.get(topo, "ring") is None
        assert (store.hits, store.misses) == (0, 1)
        compiled = store.get_or_compile(topo, "ring")
        assert compiled is not None
        assert store.misses == 2  # get_or_compile probes again
        again = store.get(topo, "ring")
        assert again is not None
        assert store.hits == 1
        assert_identical(
            compiled.simulate(1 * MiB).simulation,
            again.simulate(1 * MiB).simulation,
        )

    def test_distinct_topologies_do_not_collide(self, tmp_path):
        store = ArtifactStore(str(tmp_path))
        store.get_or_compile(Torus2D(4, 4), "ring")
        assert store.get(Torus2D(4, 8), "ring") is None
        assert store.get(Torus2D(4, 4), "multitree") is None

    def test_schema_bump_invalidates(self, tmp_path, monkeypatch):
        store = ArtifactStore(str(tmp_path))
        topo = Torus2D(4, 4)
        store.get_or_compile(topo, "ring")
        assert store.get(topo, "ring") is not None
        monkeypatch.setattr(
            "repro.scenario.ARTIFACT_SCHEMA_VERSION",
            ARTIFACT_SCHEMA_VERSION + 1,
        )
        assert store.get(topo, "ring") is None

    def test_corrupt_file_is_a_miss(self, tmp_path):
        store = ArtifactStore(str(tmp_path))
        topo = Torus2D(4, 4)
        store.get_or_compile(topo, "ring")
        path = store._path(artifact_fingerprint(topo, "ring"))
        with open(path, "w") as fh:
            fh.write("{not json")
        assert store.get(topo, "ring") is None

    def test_atomic_write_leaves_no_temp_files(self, tmp_path):
        store = ArtifactStore(str(tmp_path))
        store.get_or_compile(Torus2D(4, 4), "ring")
        leftovers = [
            name for name in os.listdir(str(tmp_path))
            if name.endswith(".tmp")
        ]
        assert leftovers == []


class TestShardedArtifacts:
    """Shard-granularity corruption: every failure is a *counted miss*.

    The store must never raise for on-disk damage — a truncated shard, a
    flipped byte, a missing file, an old single-file blob all degrade to a
    recompile, each attributed to a reason in the ``sim.fallbacks``-style
    ``artifact`` counter.
    """

    def _warm(self, tmp_path):
        store = ArtifactStore(str(tmp_path))
        topo = Torus2D(4, 4)
        compiled = store.get_or_compile(topo, "ring")
        return store, topo, compiled

    def _shard_paths(self, tmp_path):
        return sorted(
            os.path.join(str(tmp_path), name)
            for name in os.listdir(str(tmp_path))
            if name.endswith(".npz")
        )

    def _fresh_get(self, tmp_path, topo, algorithm="ring"):
        return fresh_get(tmp_path, topo, algorithm)

    def test_writes_header_plus_npz_shards(self, tmp_path):
        self._warm(tmp_path)
        names = os.listdir(str(tmp_path))
        assert any(name.endswith(".json") for name in names)
        assert any(name.endswith(".core.npz") for name in names)
        assert any(name.endswith(".deps.npz") for name in names)

    def test_loaded_columns_are_lazy(self, tmp_path):
        _store, topo, compiled = self._warm(tmp_path)
        loaded, _store2, _reasons = self._fresh_get(tmp_path, topo)
        assert loaded is not None
        assert loaded.dep_val.loaded is False
        assert loaded.srcs.loaded is False
        # First simulation pulls what it needs and matches exactly.
        assert (
            loaded.simulate(1 * MiB).time == compiled.simulate(1 * MiB).time
        )
        assert loaded.dep_val.loaded is True

    def test_truncated_shard_is_a_counted_miss(self, tmp_path):
        _store, topo, _compiled = self._warm(tmp_path)
        for path in self._shard_paths(tmp_path):
            with open(path, "rb") as fh:
                blob = fh.read()
            with open(path, "wb") as fh:
                fh.write(blob[: len(blob) // 2])
        loaded, store, reasons = self._fresh_get(tmp_path, topo)
        assert loaded is None
        assert store.misses == 1 and store.hits == 0
        assert any("checksum-mismatch" in key for key in reasons)

    def test_flipped_byte_is_a_checksum_miss(self, tmp_path):
        _store, topo, _compiled = self._warm(tmp_path)
        path = self._shard_paths(tmp_path)[0]
        with open(path, "r+b") as fh:
            fh.seek(-1, os.SEEK_END)
            last = fh.read(1)
            fh.seek(-1, os.SEEK_END)
            fh.write(bytes([last[0] ^ 0xFF]))
        loaded, store, reasons = self._fresh_get(tmp_path, topo)
        assert loaded is None
        assert store.misses == 1
        assert any("checksum-mismatch" in key for key in reasons)

    def test_missing_shard_is_a_counted_miss(self, tmp_path):
        _store, topo, _compiled = self._warm(tmp_path)
        os.unlink(self._shard_paths(tmp_path)[0])
        loaded, store, reasons = self._fresh_get(tmp_path, topo)
        assert loaded is None
        assert store.misses == 1
        assert any("shard-missing" in key for key in reasons)

    def test_old_single_file_json_artifact_is_a_format_miss(self, tmp_path):
        _store, topo, compiled = self._warm(tmp_path)
        # Rewrite the artifact in the retired single-file JSON form.
        key = artifact_fingerprint(topo, "ring")
        for path in self._shard_paths(tmp_path):
            os.unlink(path)
        header = ArtifactStore(str(tmp_path))._path(key)
        with open(header, "w") as fh:
            json.dump(
                {
                    "schema": ARTIFACT_SCHEMA_VERSION,
                    "key": key,
                    "compiled": compiled.to_dict(),
                },
                fh,
            )
        loaded, store, reasons = self._fresh_get(tmp_path, topo)
        assert loaded is None
        assert (store.hits, store.misses) == (0, 1)
        assert any("format-mismatch" in key_ for key_ in reasons)

    def test_round_trip_preserves_broadcast_fractions(self, tmp_path):
        import numpy as np

        from repro.collectives.streaming import compile_multitree

        store = ArtifactStore(str(tmp_path))
        topo = Torus2D(4, 4)
        compiled = compile_multitree(topo)
        store.put(compiled)
        loaded, _store, _reasons = self._fresh_get(
            tmp_path, topo, "multitree"
        )
        assert loaded is not None
        # The constant-fraction header field restores zero-memory
        # broadcast columns (and with them the single-wire-class path).
        assert np.asarray(loaded.frac_num).strides == (0,)
        assert loaded.to_dict() == compiled.to_dict()


class TestArtifactMemoCap:
    def test_memo_is_lru_bounded(self, tmp_path):
        store = ArtifactStore(str(tmp_path), memo_capacity=2)
        topos = [Torus2D(4, 4), Torus2D(4, 8), Torus2D(8, 4)]
        for topo in topos:
            store.get_or_compile(topo, "ring")
            store.get(topo, "ring")
        assert len(store._memo) == 2
        # Least-recently-used (the first topology) was evicted.
        keys = list(store._memo)
        assert artifact_fingerprint(topos[0], "ring") not in keys
        assert artifact_fingerprint(topos[2], "ring") in keys

    def test_zero_capacity_disables_memo(self, tmp_path):
        store = ArtifactStore(str(tmp_path), memo_capacity=0)
        topo = Torus2D(4, 4)
        store.get_or_compile(topo, "ring")
        store.get(topo, "ring")
        assert store._memo == {}

    def test_memo_hit_skips_disk(self, tmp_path):
        store = ArtifactStore(str(tmp_path))
        topo = Torus2D(4, 4)
        store.get_or_compile(topo, "ring")
        first = store.get(topo, "ring")
        expected = first.to_dict()
        # Remove the files: a memo hit must still serve the schedule.
        for name in os.listdir(str(tmp_path)):
            os.unlink(os.path.join(str(tmp_path), name))
        again = store.get(topo, "ring")
        assert again is not first
        assert again.to_dict() == expected


class TestArtifactMemoSharing:
    """The memo keys on the artifact fingerprint and shares only columns:
    every ``get`` binds a new schedule to the caller's topology."""

    def _store(self, tmp_path, algorithm="multitree"):
        store = ArtifactStore(str(tmp_path))
        compiled = store.get_or_compile(Torus2D(4, 4), algorithm)
        return store, compiled

    def test_equal_topology_is_a_memo_hit_without_disk(
        self, tmp_path, monkeypatch
    ):
        from repro import obs
        from repro.topology.specs import parse_topology_spec

        store, compiled = self._store(tmp_path)
        assert store.get(parse_topology_spec("torus-4x4"), "multitree")

        def no_disk(*_args):
            raise AssertionError("a memo hit read the disk")

        monkeypatch.setattr(store, "_load", no_disk)
        recorder = obs.ObsRecorder(capacity=None)
        with obs.observing(recorder):
            hit = store.get(parse_topology_spec("torus-4x4"), "multitree")
        outcomes = [
            record["attrs"]["outcome"] for record in recorder.records
            if record["name"] == "artifact.get"
        ]
        assert outcomes == ["memo-hit"]
        assert (store.hits, store.misses) == (2, 1)
        assert_identical(
            hit.simulate(1 * MiB).simulation,
            compiled.simulate(1 * MiB).simulation,
        )

    def test_every_get_is_a_new_schedule_on_the_callers_topology(
        self, tmp_path
    ):
        store, _compiled = self._store(tmp_path)
        first = Torus2D(4, 4)
        topos = [first, first, Torus2D(4, 4)]
        got = [store.get(topo, "multitree") for topo in topos]
        assert len({id(schedule) for schedule in got}) == 3
        for schedule, topo in zip(got, topos):
            assert schedule.topology is topo

    def test_memo_entry_holds_no_engine_caches(self, tmp_path):
        import gc
        import types

        import numpy as np

        from repro.collectives import CompiledSchedule
        from repro.collectives.compiled import ScheduleColumns
        from repro.network.lockstep_vec import BatchPlan, run_batch
        from repro.network.simulator import ENGINES
        from repro.topology.base import Topology

        store, compiled = self._store(tmp_path)
        store.get(Torus2D(4, 4), "multitree")  # the disk load memoizes
        hit = store.get(Torus2D(4, 4), "multitree")
        for engine in ENGINES:
            assert_identical(
                hit.simulate(1 * MiB, engine=engine).simulation,
                compiled.simulate(1 * MiB, engine=engine).simulation,
            )
        hit.simulate_batch((1 * MiB, 2 * MiB))
        run_batch(hit, (1 * MiB,))  # too sparse for lockstep-vec to pick
        # The caller's schedule owns the caches it built...
        assert hit._vec_plan is not None and hit._engine_cols is not None
        assert hit._ladder_cols is not None
        assert hit._step_bounds is not None
        # ...and nothing reachable from the memo entry is one of them.
        entry, = store._memo.values()
        assert isinstance(entry, ScheduleColumns)
        forbidden = (Topology, CompiledSchedule, BatchPlan)
        skip = (type, types.ModuleType, types.FunctionType,
                types.BuiltinFunctionType, types.MethodType)
        seen = set()
        todo = [entry]
        while todo:
            obj = todo.pop()
            if id(obj) in seen or isinstance(obj, skip):
                continue
            seen.add(id(obj))
            assert not isinstance(obj, forbidden), type(obj)
            if isinstance(obj, np.ndarray):
                continue
            todo.extend(gc.get_referents(obj))

    def test_memo_hit_columns_are_read_only(self, tmp_path):
        import numpy as np
        import pytest

        store, compiled = self._store(tmp_path)
        store.get(Torus2D(4, 4), "multitree")  # the disk load memoizes
        hit = store.get(Torus2D(4, 4), "multitree")
        for name in ("route_val", "dep_val", "steps", "frac_num"):
            column = np.asarray(getattr(hit, name))
            with pytest.raises(ValueError):
                column[0] = column[0] + 1
        assert store.get(Torus2D(4, 4), "multitree").to_dict() == (
            compiled.to_dict()
        )

    def test_concurrent_first_touch_shares_one_column(self, tmp_path):
        import sys
        import threading

        import numpy as np

        store, compiled = self._store(tmp_path)
        first = store.get(Torus2D(4, 4), "multitree")
        second = store.get(Torus2D(4, 4), "multitree")
        assert first.dep_val.loaded is False
        barrier = threading.Barrier(2)
        results = [None, None]

        def touch(index, schedule):
            barrier.wait(timeout=10)
            results[index] = np.asarray(schedule.dep_val)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(target=touch, args=(i, schedule))
                for i, schedule in enumerate((first, second))
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert results[0] is results[1]
        assert results[0].tolist() == list(compiled.dep_val)
