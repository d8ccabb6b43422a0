"""Fig. 9: all-reduce bandwidth vs data size on four topology families.

Panels: (a) 4x4 / 8x8 Torus, (b) 4x4 / 8x8 Mesh, (c) 16- and 64-node
Fat-Tree, (d) 32- and 64-node BiGraph.  Bandwidth = data size / simulated
completion time, exactly the paper's §VI-A metric.  MULTITREEMSG is
MULTITREE under message-based flow control.
"""

import pytest
from conftest import emit, run_once

from repro.analysis import format_bandwidth_table, sweep_bandwidth
from repro.collectives import build_schedule
from repro.network import MessageBased, PacketBased
from repro.topology import BiGraph, FatTree, Mesh2D, Torus2D

KiB = 1024
MiB = 1 << 20
SIZES = [32 * KiB, 128 * KiB, 512 * KiB, 2 * MiB, 8 * MiB, 32 * MiB, 64 * MiB]


def _panel(topology, algorithms, cache=None):
    sweeps = []
    for algorithm in algorithms:
        schedule = build_schedule(algorithm, topology)
        sweeps.append(
            sweep_bandwidth(schedule, SIZES, PacketBased(), cache=cache)
        )
    mt = build_schedule("multitree", topology)
    sweeps.append(
        sweep_bandwidth(
            mt, SIZES, MessageBased(), cache=cache, label="multitree-msg"
        )
    )
    return sweeps


def _assert_multitree_dominates(sweeps):
    mt = next(s for s in sweeps if s.algorithm == "multitree")
    others = [s for s in sweeps if s.algorithm not in ("multitree", "multitree-msg")]
    for i, _size in enumerate(SIZES):
        best_other = max(s.points[i].bandwidth for s in others)
        assert mt.points[i].bandwidth >= 0.95 * best_other


class TestFig9aTorus:
    @pytest.mark.parametrize("dims", [(4, 4), (8, 8)], ids=["4x4", "8x8"])
    def test_torus(self, benchmark, dims, prediction_cache):
        topo = Torus2D(*dims)
        sweeps = run_once(
            benchmark,
            lambda: _panel(
                topo, ["ring", "dbtree", "2d-ring", "multitree"], prediction_cache
            ),
        )
        emit(
            "Fig. 9a — All-reduce bandwidth on %s" % topo.name,
            format_bandwidth_table(sweeps),
        )
        _assert_multitree_dominates(sweeps)
        by_name = {s.algorithm: s for s in sweeps}
        # DBTree is worst at large sizes on the torus (§VI-A).
        large = SIZES[-1]
        assert by_name["dbtree"].bandwidth_at(large) <= min(
            by_name["ring"].bandwidth_at(large),
            by_name["2d-ring"].bandwidth_at(large),
        ) * 1.1
        # 2D-Ring beats flat ring on the torus.
        assert by_name["2d-ring"].bandwidth_at(large) > by_name["ring"].bandwidth_at(large)


class TestFig9bMesh:
    @pytest.mark.parametrize("dims", [(4, 4), (8, 8)], ids=["4x4", "8x8"])
    def test_mesh(self, benchmark, dims, prediction_cache):
        topo = Mesh2D(*dims)
        sweeps = run_once(
            benchmark,
            lambda: _panel(
                topo, ["ring", "dbtree", "2d-ring", "multitree"], prediction_cache
            ),
        )
        emit(
            "Fig. 9b — All-reduce bandwidth on %s" % topo.name,
            format_bandwidth_table(sweeps),
        )
        _assert_multitree_dominates(sweeps)
        by_name = {s.algorithm: s for s in sweeps}
        if dims == (8, 8):
            # The §VI-A crossover: 2D-Ring loses to flat Ring on 8x8 Mesh.
            assert (
                by_name["2d-ring"].bandwidth_at(SIZES[-1])
                < by_name["ring"].bandwidth_at(SIZES[-1])
            )


class TestFig9cFatTree:
    @pytest.mark.parametrize(
        "cfg", [(4, 4), (8, 8)], ids=["16n-dgx2", "64n-8ary"]
    )
    def test_fattree(self, benchmark, cfg, prediction_cache):
        topo = FatTree(*cfg)
        sweeps = run_once(
            benchmark,
            lambda: _panel(topo, ["ring", "dbtree", "multitree"], prediction_cache),
        )
        emit(
            "Fig. 9c — All-reduce bandwidth on %s" % topo.name,
            format_bandwidth_table(sweeps),
        )
        by_name = {s.algorithm: s for s in sweeps}
        # Small sizes: multitree's same-switch-first trees beat ring.
        assert by_name["multitree"].bandwidth_at(SIZES[0]) > by_name["ring"].bandwidth_at(SIZES[0])
        # Large sizes: both saturate bandwidth and converge (within 30%).
        ratio = by_name["multitree"].bandwidth_at(SIZES[-1]) / by_name["ring"].bandwidth_at(SIZES[-1])
        assert 0.9 < ratio < 1.35


class TestFig9dBiGraph:
    @pytest.mark.parametrize("cfg", [(2, 8), (2, 16)], ids=["32n", "64n"])
    def test_bigraph(self, benchmark, cfg, prediction_cache):
        topo = BiGraph(*cfg)
        sweeps = run_once(
            benchmark,
            lambda: _panel(
                topo, ["ring", "dbtree", "hdrm", "multitree"], prediction_cache
            ),
        )
        emit(
            "Fig. 9d — All-reduce bandwidth on %s" % topo.name,
            format_bandwidth_table(sweeps),
        )
        by_name = {s.algorithm: s for s in sweeps}
        # HDRM's cross-layer exchanges lose at small sizes (§VI-A)...
        assert by_name["multitree"].bandwidth_at(SIZES[0]) > by_name["hdrm"].bandwidth_at(SIZES[0])
        # ...but saturate at large sizes.
        ratio = by_name["multitree"].bandwidth_at(SIZES[-1]) / by_name["hdrm"].bandwidth_at(SIZES[-1])
        assert 0.7 < ratio < 1.5
