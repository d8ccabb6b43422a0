"""Input determinism and compatibility checks for the benchmark itself.

Run from the repository root::

    python -m pytest perfbench/test_perfbench.py -q
"""

from __future__ import annotations

import itertools
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from repro.collectives import build_schedule  # noqa: E402
from repro.collectives.variants import variant_names  # noqa: E402
from repro.scenario import Scenario  # noqa: E402
from repro.topology.specs import parse_topology_spec  # noqa: E402

SMALL = {"torus": "torus-4x4", "mesh": "mesh-4x4", "fattree": "fattree-4x4",
         "bigraph": "bigraph-2x4"}


def first(ops, n):
    return [op.key() for op in itertools.islice(ops, n)]


@pytest.mark.parametrize("make", [workloads.cold_ops, workloads.warm_ops])
def test_sweep_sequence_is_a_function_of_the_seed(make):
    assert first(make(7), 40) == first(make(7), 40)
    assert first(make(7), 40) != first(make(8), 40)


def test_serve_trace_is_a_function_of_the_seed():
    def targets(seed):
        return [(r.kind, r.target) for r in workloads.serve_requests(seed, 400)]

    assert targets(3) == targets(3)
    assert targets(3) != targets(4)


def test_every_block_visits_the_whole_universe():
    keys = [(op.topology, op.algorithm)
            for op in itertools.islice(workloads.cold_ops(1), 3 * len(workloads.UNIVERSE))]
    size = len(workloads.UNIVERSE)
    for block in range(3):
        chunk = keys[block * size:(block + 1) * size]
        assert sorted(chunk) == sorted((p.topology, p.algorithm)
                                       for p in workloads.UNIVERSE)


def test_cold_blocks_cover_every_pair_engine_once():
    cycle = len(workloads.UNIVERSE) * len(workloads.ENGINES)
    ops = list(itertools.islice(workloads.cold_ops(2), 2 * cycle))
    for part in (ops[:cycle], ops[cycle:]):
        assert len({(op.topology, op.algorithm, op.engine) for op in part}) == cycle


def test_warm_ladders_never_repeat():
    ops = list(itertools.islice(workloads.warm_ops(5), 600))
    assert len({op.key() for op in ops}) == len(ops)
    assert all(op.engine == "lockstep-vec" and len(op.sizes) == 4 for op in ops)


def test_universe_outnumbers_the_artifact_memo():
    from repro.sweep.artifacts import DEFAULT_MEMO_CAP

    artifacts = {(p.topology, Scenario(p.topology, p.algorithm, 1).resolve().builder)
                 for p in workloads.UNIVERSE}
    assert len(artifacts) > DEFAULT_MEMO_CAP


@pytest.mark.parametrize("family", sorted(workloads.COMPATIBLE))
def test_compatibility_table_matches_the_builders(family):
    """Listed variants build, unlisted ones raise: the universe and the
    serve mix never pair a variant with a fabric it cannot run on."""
    topology = parse_topology_spec(SMALL[family])
    for name in variant_names():
        builder = Scenario(SMALL[family], name, 1).resolve().builder
        if name in workloads.COMPATIBLE[family]:
            assert build_schedule(builder, topology).ops
        else:
            with pytest.raises((TypeError, ValueError)):
                build_schedule(builder, topology)


def test_serve_mix_shares_and_cold_reasks():
    requests = workloads.serve_requests(11, 1000)
    kinds = [r.kind for r in requests]
    assert kinds.count("plan") == 20
    assert kinds.count("cold") == 30
    assert kinds.count("again") == 27          # block 0 has nothing to re-ask
    cold = [r.target for r in requests if r.kind == "cold"]
    assert len(set(cold)) == len(cold)
    assert {r.target for r in requests if r.kind == "again"} <= set(cold)
    warm = {workloads.predict_target(*p) for p in workloads.warm_pool()}
    assert not set(cold) & warm
    for index, request in enumerate(requests):
        if request.kind == "again":
            assert any(r.target == request.target for r in requests[:index])


def test_digest_hashes_exact_floats():
    assert checks.digest([[0.1 + 0.2]]) != checks.digest([[0.3]])
    assert checks.digest([["a", 1.5]]) == checks.digest([["a", 1.5]])


def test_handler_median_from_power_of_two_buckets():
    text = "\n".join([
        'repro_serve_request_time_bucket{endpoint="/predict",le="0.00048828125"} 10',
        'repro_serve_request_time_bucket{endpoint="/predict",le="0.0009765625"} 30',
        'repro_serve_request_time_bucket{endpoint="/predict",le="+Inf"} 30',
    ])
    # The 15th of 30 samples sits a quarter into (0.488, 0.977] ms,
    # interpolated geometrically.
    assert run.handler_p50_ms(text) == pytest.approx(0.48828125 * 2 ** 0.25)


def test_generated_pairs_are_compatible():
    assert all(workloads.compatible(p.topology, p.algorithm)
               for p in workloads.UNIVERSE)
    assert all(workloads.compatible(t, a) for t, a, _s in workloads.warm_pool())
