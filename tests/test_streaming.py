"""Streaming CSR compiler: exact equality with the object-path compiler.

The oracle is ``CompiledSchedule.to_dict()`` — the full serialized form:
op order, routes, dependency CSR, fractions, serialization profile and
metadata must all be exactly ``==`` between
:func:`repro.collectives.streaming.compile_multitree` (which never
materializes per-op objects) and ``compile_schedule(multitree_allreduce(
...))`` (which does), across the golden-equivalence topology grid and
both construction priorities.
"""

import numpy as np
import pytest

from repro.analysis import sweep_bandwidth
from repro.collectives import build_schedule, compile_algorithm
from repro.collectives.compiled import compile_schedule
from repro.collectives.multitree import build_forest, multitree_allreduce
from repro.collectives.streaming import compile_forest, compile_multitree
from repro.metrics import collecting, metric_key
from repro.network.flowcontrol import MessageBased
from repro.sweep import ArtifactStore, SweepJob, run_job
from repro.topology.bigraph import BiGraph
from repro.topology.fattree import FatTree
from repro.topology.fattree3 import FatTree3
from repro.topology.grid import Mesh2D, Torus2D
from repro.topology.ring1d import Ring1D
from repro.topology.specs import parse_topology_spec
from repro.topology.torus3d import Torus3D

KiB = 1024
MiB = 1 << 20

GRID = [
    Torus2D(4, 4),
    Torus2D(4, 8),
    Mesh2D(4, 4),
    Ring1D(8),
    Torus3D(4, 4, 4),
    FatTree(4, 4),
    FatTree3(2, 2, 4),
    BiGraph(4, 8),
]


def _object_path(topology, priority):
    return compile_schedule(multitree_allreduce(topology, priority))


@pytest.mark.parametrize(
    "topology", GRID, ids=lambda topo: topo.name
)
@pytest.mark.parametrize("priority", ["root-id", "most-remaining"])
class TestStreamingEquality:
    def test_to_dict_round_trip_is_identical(self, topology, priority):
        want = _object_path(topology, priority).to_dict()
        got = compile_multitree(topology, priority).to_dict()
        assert got == want

    def test_simulation_is_identical(self, topology, priority):
        ref = _object_path(topology, priority)
        fast = compile_multitree(topology, priority)
        for size in (64 * 1024, 3 * MiB):
            a = ref.simulate(size, MessageBased())
            b = fast.simulate(size, MessageBased())
            assert a.time == b.time
            assert a.bandwidth == b.bandwidth


class TestCompileForest:
    def test_release_drops_forest_storage(self):
        topo = Torus2D(4, 4)
        forest = build_forest(topo)
        keep = compile_forest(forest, topo)
        released = build_forest(topo)
        got = compile_forest(released, topo, release=True)
        assert got.to_dict() == keep.to_dict()
        assert released.edge_parent is None
        assert released.orders is None

    def test_columns_are_arrays_not_lists(self):
        compiled = compile_multitree(Torus2D(4, 4))
        for name in ("srcs", "dsts", "steps", "route_off", "route_val",
                     "dep_off", "dep_val"):
            col = getattr(compiled, name)
            assert not isinstance(col, list), name
            assert np.asarray(col).ndim == 1, name

    def test_broadcast_fractions_share_storage(self):
        compiled = compile_multitree(Torus2D(4, 4))
        assert np.asarray(compiled.frac_num).strides == (0,)
        assert np.asarray(compiled.frac_den).strides == (0,)
        # ... and still round-trip to the exact per-op lists.
        data = compiled.to_dict()
        assert data["frac_num"] == [1] * len(compiled)
        assert data["frac_den"] == [16] * len(compiled)

    def test_heterogeneous_bandwidth_ser_profile(self):
        # A non-uniform link bandwidth forces the chunked first-occurrence
        # scan (the homogeneous fast path cannot apply); the object path
        # remains the oracle.
        import dataclasses

        topo = Torus2D(4, 4)
        key = next(iter(topo.links))
        for k in (key, (key[1], key[0])):
            spec = topo._links[k]
            topo._links[k] = dataclasses.replace(
                spec, bandwidth=spec.bandwidth * 2
            )
        want = _object_path(topo, "root-id").to_dict()
        got = compile_multitree(topo, "root-id").to_dict()
        assert got == want
        # The premise of the test: more than one serialization bandwidth.
        assert len(set(want["ser_bandwidth"])) > 1


#: 64-node fabrics the sweep and serve compile sites route through
#: :func:`compile_algorithm`: switched, oversubscribed, direct and railed.
ROUTED_FABRICS = [
    "fattree-8x8",
    "bigraph-4x8",
    "bigraph-4x8@oversub=4",
    "torus-8x8",
    "torus-8x8@rails=2:0.5",
]
SWEEP_SIZES = (32 * KiB, 512 * KiB, 8 * MiB)


@pytest.fixture(scope="module")
def object_compiled():
    """``compile_schedule(build_schedule(...))`` per spec, built once."""
    memo = {}

    def compiled(spec, algorithm="multitree"):
        if (spec, algorithm) not in memo:
            memo[spec, algorithm] = compile_schedule(
                build_schedule(algorithm, parse_topology_spec(spec))
            )
        return memo[spec, algorithm]

    return compiled


class TestCompileAlgorithm:
    """The one compile entry point of the sweep and serve sites."""

    @pytest.mark.parametrize("spec", ROUTED_FABRICS)
    @pytest.mark.parametrize("variant", ["multitree", "multitree-msg"])
    def test_cold_vec_run_job_matches_object_path(
        self, spec, variant, object_compiled
    ):
        job = SweepJob(spec, variant, SWEEP_SIZES, engine="lockstep-vec")
        got = run_job(job)
        algorithm, fc, label = job.resolve()
        want = sweep_bandwidth(
            object_compiled(spec, algorithm), SWEEP_SIZES, fc, job.lockstep,
            None, label, "lockstep-vec",
        )
        assert got.points == want.points

    @pytest.mark.parametrize("spec", ["fattree-4x4", "torus-4x4"])
    @pytest.mark.parametrize("algorithm", ["multitree", "ring"])
    def test_compiled_form_matches_object_path(
        self, spec, algorithm, object_compiled
    ):
        got = compile_algorithm(algorithm, parse_topology_spec(spec))
        assert got.to_dict() == object_compiled(spec, algorithm).to_dict()

    def test_object_filled_store_still_hits(self, tmp_path, object_compiled):
        spec = "fattree-4x4"
        ArtifactStore(str(tmp_path)).get_or_compile(
            parse_topology_spec(spec), "multitree", builder=build_schedule
        )
        with collecting() as reg:
            loaded = ArtifactStore(str(tmp_path)).get_or_compile(
                parse_topology_spec(spec), "multitree"
            )
        labels = {"algorithm": "multitree", "topology": "fattree-16n"}
        assert reg.counter_value("schedule.builds", **labels) == 0
        assert loaded.to_dict() == object_compiled(spec).to_dict()

    def test_streamed_store_loads_object_path(self, tmp_path, object_compiled):
        spec = "bigraph-2x8"
        ArtifactStore(str(tmp_path)).get_or_compile(
            parse_topology_spec(spec), "multitree"
        )
        loaded = ArtifactStore(str(tmp_path)).get(
            parse_topology_spec(spec), "multitree"
        )
        assert loaded.to_dict() == object_compiled(spec).to_dict()

    def test_streaming_route_records_schedule_metrics(self):
        # ``repro report`` reads these; the streaming route must emit the
        # same series as build_schedule does on the object route.
        topo = FatTree(4, 4)
        with collecting() as object_reg:
            schedule = build_schedule("multitree", topo)
        with collecting() as reg:
            compiled = compile_algorithm("multitree", topo)
        labels = {"algorithm": "multitree", "topology": topo.name}
        for registry in (object_reg, reg):
            assert registry.counter_value("schedule.builds", **labels) == 1
            assert registry.gauge_value(
                "schedule.steps", **labels
            ) == schedule.num_steps == compiled.num_steps
            assert registry.gauge_value(
                "schedule.ops", **labels
            ) == len(schedule.ops) == len(compiled)
            key = metric_key("schedule.build_time", labels)
            assert registry.histograms[key].count == 1
