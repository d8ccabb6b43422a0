"""Fig. 10: weak scalability on Torus, 16 -> 256 nodes.

All-reduce size is ``375 * N`` KiB for an N-node system.  Times are
normalized to RING's 16-node performance, exactly as in the paper.  The
paper's summary: all three algorithms scale linearly with different
factors; MULTITREEMSG achieves ~3x over RING and ~1.4x over 2D-RING.
"""

from conftest import emit, run_once

from repro.analysis import sweep_bandwidth
from repro.collectives import build_schedule
from repro.network import MessageBased, PacketBased
from repro.topology import Torus2D

KiB = 1024

SCALES = [(4, 4), (4, 8), (8, 8), (8, 16), (16, 16)]  # 16 .. 256 nodes


def _measure(cache=None):
    rows = []
    for dims in SCALES:
        topo = Torus2D(*dims)
        size = 375 * KiB * topo.num_nodes
        t_ring = sweep_bandwidth(
            build_schedule("ring", topo), [size], PacketBased(), cache=cache
        ).points[0].time
        t_2d = sweep_bandwidth(
            build_schedule("2d-ring", topo), [size], PacketBased(), cache=cache
        ).points[0].time
        t_mtm = sweep_bandwidth(
            build_schedule("multitree", topo), [size], MessageBased(), cache=cache
        ).points[0].time
        rows.append((topo.num_nodes, t_ring, t_2d, t_mtm))
    return rows


def test_fig10_weak_scaling(benchmark, prediction_cache):
    rows = run_once(benchmark, lambda: _measure(prediction_cache))
    base = rows[0][1]  # RING at 16 nodes
    lines = ["%6s %12s %12s %15s   (times normalized to 16-node RING)"
             % ("nodes", "ring", "2d-ring", "multitree-msg")]
    for n, t_ring, t_2d, t_mtm in rows:
        lines.append(
            "%6d %12.2f %12.2f %15.2f" % (n, t_ring / base, t_2d / base, t_mtm / base)
        )
    n256 = rows[-1]
    lines.append(
        "speedup at 256 nodes: multitree-msg vs ring %.2fx, vs 2d-ring %.2fx"
        % (n256[1] / n256[3], n256[2] / n256[3])
    )
    emit("Fig. 10 — Weak scalability on Torus (375*N KiB)", "\n".join(lines))

    for n, t_ring, t_2d, t_mtm in rows:
        assert t_mtm < t_2d < t_ring
    # Paper summary: ~3x over RING, ~1.4x over 2D-RING at scale.
    assert n256[1] / n256[3] > 2.5
    assert 1.1 < n256[2] / n256[3] < 2.5
