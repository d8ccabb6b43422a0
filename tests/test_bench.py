"""repro.bench: harness structure, report I/O, and baseline comparison."""

import json

import pytest

import repro.cli
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
    format_report,
)

KiB = 1024


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
        # Each bench_* verifies optimized == reference before timing; a
        # divergence raises instead of producing a bogus speedup.
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
        # The batch benchmark enforces zero fallbacks and exact equality
        # against the scalar engine before timing anything.
        result = bench_batch((4, 4), algorithms=("ring",), num_sizes=3)
        assert result.name == "batch"
        assert result.meta["engine"] == "lockstep-vec"
        assert result.meta["reference_engine"] == "seed"
        assert result.meta["fallbacks"] == 0
        assert len(result.meta["sizes"]) == 3
        assert result.optimized_s > 0 and result.reference_s > 0


    def test_bench_construction_switched_cross_checks(self):
        # The forests are compared with == before either side is timed.
        result = bench_construction_switched(repeat=1)
        assert result.name == "construction_switched"
        assert result.meta == {"topology": "fattree-8x8", "nodes": 64, "tot_t": 63}
        assert result.optimized_s > 0 and result.reference_s > 0
        assert "construction_switched" in format_report(
            {"results": {result.name: result.to_dict()}}
        )


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
