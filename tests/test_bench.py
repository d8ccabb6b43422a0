"""repro.bench: harness structure, report I/O, and baseline comparison."""

import json
import os
import tempfile

import pytest

import repro.cli
from repro.bench import harness
from repro.bench import (
    BENCH_SCHEMA_VERSION,
    BenchResult,
    bench_construction,
    bench_end_to_end,
    bench_simulate,
    compare_to_baseline,
    default_report_path,
    load_report,
    write_report,
)
from repro.bench.harness import (
    FIG9_SIZES,
    bench_batch,
    bench_construction_switched,
    bench_engine,
    bench_hetero,
    bench_scaleout,
    bench_scaleout_xl,
    bench_serve,
    format_report,
)

KiB = 1024
BASELINE = os.path.join(
    os.path.dirname(__file__), "..", "benchmarks", "BENCH_baseline.json"
)

#: Every case at its smallest shape (each runs in well under a second,
#: except the fixed fattree-8x8 of ``construction_switched``).
SMALL_CASES = {
    "construction": lambda: bench_construction((4, 4)),
    "construction_switched": lambda: bench_construction_switched(),
    "simulate": lambda: bench_simulate((4, 4), 256 * KiB, repeat=1),
    "end_to_end": lambda: bench_end_to_end((4, 4), FIG9_SIZES[:2]),
    "engine": lambda: bench_engine((4, 4), 256 * KiB, repeat=1),
    "scaleout": lambda: bench_scaleout((4, 4), ("ring",)),
    "serve": lambda: bench_serve(
        (4, 4), ("ring",), sizes=(32 * KiB, 64 * KiB), warm_passes=1,
        repeat=1,
    ),
    "batch": lambda: bench_batch((4, 4), ("ring",), num_sizes=3),
    "scaleout_xl": lambda: bench_scaleout_xl("torus3d-4x4x4"),
    "hetero": lambda: bench_hetero("fattree-4x4@oversub=4", 256 * KiB, 1),
}


def _tiny_report():
    """A structurally complete report from very small benchmark configs."""
    results = [
        bench_construction((4, 4), repeat=1),
        bench_simulate((4, 4), data_bytes=256 * KiB, repeat=1),
        bench_end_to_end((4, 4), sizes=FIG9_SIZES[:2], repeat=1),
    ]
    return {
        "schema": BENCH_SCHEMA_VERSION,
        "date": "2026-01-01",
        "quick": True,
        "python": "x",
        "platform": "y",
        "results": {r.name: r.to_dict() for r in results},
    }


class TestBenchmarks:
    def test_report_shape_and_cross_checks(self):
        # Each bench_* checks that the timed runs' optimized and reference
        # outputs are ==; a divergence raises instead of producing a bogus
        # speedup.
        report = _tiny_report()
        assert set(report["results"]) == {"construction", "simulate", "end_to_end"}
        for entry in report["results"].values():
            assert entry["optimized_s"] > 0
            assert entry["reference_s"] > 0
            assert entry["speedup"] > 0
        assert report["results"]["construction"]["meta"]["nodes"] == 16

    def test_format_report_mentions_every_benchmark(self):
        text = format_report(_tiny_report())
        for name in ("construction", "simulate", "end_to_end"):
            assert name in text

    def test_bench_batch_cross_checks_and_records_engine(self):
        # The batch benchmark enforces zero fallbacks on every run and
        # exact equality against the seed loop.
        result = bench_batch((4, 4), algorithms=("ring",), num_sizes=3)
        assert result.name == "batch"
        assert result.meta["engine"] == "lockstep-vec"
        assert result.meta["reference_engine"] == "seed"
        assert result.meta["fallbacks"] == 0
        assert len(result.meta["sizes"]) == 3
        assert result.optimized_s > 0 and result.reference_s > 0


    def test_bench_construction_switched_cross_checks(self):
        # The forests of the timed runs are compared with ==.
        result = bench_construction_switched(repeat=1)
        assert result.name == "construction_switched"
        assert result.meta == {"topology": "fattree-8x8", "nodes": 64, "tot_t": 63}
        assert result.optimized_s > 0 and result.reference_s > 0
        assert "construction_switched" in format_report(
            {"results": {result.name: result.to_dict()}}
        )


    @pytest.mark.parametrize("name", sorted(SMALL_CASES))
    def test_every_case_runs_and_keeps_its_meta_keys(self, name):
        # Each case passes its cross-check and reports exactly the meta
        # keys of its committed baseline entry, so old reports compare.
        with open(BASELINE) as fh:
            baseline = json.load(fh)["results"]
        result = SMALL_CASES[name]()
        assert result.name == name
        assert result.optimized_s > 0 and result.reference_s > 0
        assert set(result.meta) == set(baseline[name]["meta"])

    def test_cases_remove_their_temporary_stores(self, tmp_path, monkeypatch):
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        for name in ("scaleout", "serve", "batch", "scaleout_xl"):
            SMALL_CASES[name]()
        # Also when a check raises: on 2x2x2 lockstep-vec falls back.
        with pytest.raises(RuntimeError, match="vectorized path"):
            bench_scaleout_xl("torus3d-2x2x2")
        assert os.listdir(tmp_path) == []

    def test_a_perturbed_live_side_fails_the_check(self):
        seed = [1.0, 2.0]
        with pytest.raises(RuntimeError, match="probe"):
            harness._run_case(
                "probe", live=lambda: [1.0, 2.0 + 1e-12], seed=lambda: seed,
                meta={}, repeat=2,
            )

    def test_a_perturbed_forest_fails_the_construction_case(self, monkeypatch):
        build_trees = harness.build_trees

        def perturbed(topology):
            trees, tot_t = build_trees(topology)
            trees[-1].order.reverse()
            return trees, tot_t

        monkeypatch.setattr(harness, "build_trees", perturbed)
        with pytest.raises(RuntimeError, match="construction"):
            bench_construction((4, 4))


class TestReportIO:
    def test_write_load_roundtrip(self, tmp_path):
        report = _tiny_report()
        path = str(tmp_path / "BENCH_test.json")
        write_report(report, path)
        assert load_report(path) == json.loads(json.dumps(report))

    @pytest.mark.parametrize(
        "text,message",
        [(None, "No such file"), ("{bad", "Expecting"),
         ('{"hello": 1}', "is not a bench report")],
    )
    def test_bad_baseline_fails_before_the_run(
        self, tmp_path, monkeypatch, text, message
    ):
        def run_bench(**_kwargs):
            raise AssertionError("the baseline must be read before the run")

        monkeypatch.setattr(repro.cli, "run_bench", run_bench)
        path = tmp_path / "BENCH_base.json"
        if text is not None:
            path.write_text(text)
        with pytest.raises(SystemExit, match=message):
            repro.cli.main(["bench", "--quick", "--baseline", str(path)])

    def test_default_path_uses_date(self):
        report = {"date": "2026-08-05"}
        assert default_report_path(report).endswith("BENCH_2026-08-05.json")


def _report_with_speedups(**speedups):
    return {
        "schema": BENCH_SCHEMA_VERSION,
        "quick": True,
        "results": {
            name: {
                "optimized_s": 1.0,
                "reference_s": value,
                "speedup": value,
                "meta": {},
            }
            for name, value in speedups.items()
        },
    }


class TestBaselineComparison:
    def test_pass_when_within_budget(self):
        base = _report_with_speedups(end_to_end=3.0)
        cur = _report_with_speedups(end_to_end=2.5)  # floor is 2.25
        assert compare_to_baseline(cur, base, max_regression=0.25) == []

    def test_fail_on_regression(self):
        base = _report_with_speedups(end_to_end=3.0)
        cur = _report_with_speedups(end_to_end=2.0)
        failures = compare_to_baseline(cur, base, max_regression=0.25)
        assert len(failures) == 1
        assert "end_to_end" in failures[0]

    def test_improvement_always_passes(self):
        base = _report_with_speedups(end_to_end=3.0, simulate=1.5)
        cur = _report_with_speedups(end_to_end=4.0, simulate=1.5)
        assert compare_to_baseline(cur, base) == []

    def test_missing_benchmark_fails(self):
        base = _report_with_speedups(end_to_end=3.0, simulate=1.5)
        cur = _report_with_speedups(end_to_end=3.0)
        failures = compare_to_baseline(cur, base)
        assert any("simulate" in f for f in failures)

    def test_schema_and_mode_mismatch_rejected(self):
        base = _report_with_speedups(end_to_end=3.0)
        cur = _report_with_speedups(end_to_end=3.0)
        cur["schema"] = BENCH_SCHEMA_VERSION + 1
        assert compare_to_baseline(cur, base)
        cur["schema"] = BENCH_SCHEMA_VERSION
        cur["quick"] = False
        assert compare_to_baseline(cur, base)


class TestBenchResult:
    def test_speedup_math(self):
        r = BenchResult(name="x", optimized_s=0.5, reference_s=2.0)
        assert r.speedup == pytest.approx(4.0)
        assert BenchResult(name="y", optimized_s=0.0, reference_s=1.0).speedup \
            == float("inf")
