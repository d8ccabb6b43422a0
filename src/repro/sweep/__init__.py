"""Parallel sweep runner with a persistent on-disk prediction cache.

``repro sweep --jobs N --cache PATH`` (see :mod:`repro.cli`) and the
``benchmarks/`` figure scripts use this package to parallelize and
memoize figure-scale prediction grids.
"""

from .artifacts import ARTIFACT_SCHEMA_VERSION, ArtifactStore
from .cache import PredictionCache
from .runner import (
    SweepJob,
    SweepStats,
    jobs_from_scenarios,
    predict_cached,
    run_job,
    run_sweep,
    sweep_bandwidth_cached,
)

__all__ = [
    "ARTIFACT_SCHEMA_VERSION",
    "ArtifactStore",
    "PredictionCache",
    "SweepJob",
    "SweepStats",
    "jobs_from_scenarios",
    "predict_cached",
    "run_job",
    "run_sweep",
    "sweep_bandwidth_cached",
]
