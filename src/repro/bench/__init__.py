"""Micro-benchmark harness and preserved seed reference implementations.

``repro bench`` (see :mod:`repro.cli`) runs the harness and writes a
``BENCH_<date>.json`` report so the performance trajectory is tracked in
the repository from the fast-path overhaul onward.
"""

from .harness import (
    BENCH_SCHEMA_VERSION,
    FIG9_SIZES,
    BenchResult,
    bench_construction,
    bench_end_to_end,
    bench_engine,
    bench_hetero,
    bench_scaleout,
    bench_serve,
    bench_simulate,
    compare_to_baseline,
    default_report_path,
    format_report,
    load_report,
    run_bench,
    write_report,
)
from .reference import (
    reference_all_reduce,
    reference_build_messages,
    reference_build_schedule,
    reference_build_trees,
    reference_compile_schedule,
    reference_dep_structure,
    reference_dependency_lists,
    reference_multitree_schedule,
    reference_run,
    reference_simulate_allreduce,
    reference_step_estimates,
    reference_step_gates,
)

__all__ = [
    "BENCH_SCHEMA_VERSION",
    "FIG9_SIZES",
    "BenchResult",
    "bench_construction",
    "bench_end_to_end",
    "bench_engine",
    "bench_hetero",
    "bench_scaleout",
    "bench_serve",
    "bench_simulate",
    "compare_to_baseline",
    "default_report_path",
    "format_report",
    "load_report",
    "reference_all_reduce",
    "reference_build_messages",
    "reference_build_schedule",
    "reference_build_trees",
    "reference_compile_schedule",
    "reference_dep_structure",
    "reference_dependency_lists",
    "reference_multitree_schedule",
    "reference_run",
    "reference_simulate_allreduce",
    "reference_step_estimates",
    "reference_step_gates",
    "run_bench",
    "write_report",
]
