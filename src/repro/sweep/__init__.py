"""Parallel sweep runner with a persistent on-disk prediction cache.

``repro sweep --jobs N --cache PATH`` (see :mod:`repro.cli`), ``repro
plan`` and ``repro serve`` use this package to parallelize and memoize
prediction grids.  :func:`run_job` is the one path from scenarios to
predictions; it evaluates each series with
:func:`repro.analysis.sweep_bandwidth`, which also takes this package's
:class:`PredictionCache` directly.
"""

from .artifacts import ARTIFACT_SCHEMA_VERSION, ArtifactStore
from .cache import PredictionCache
from .runner import (
    SweepJob,
    SweepStats,
    jobs_from_scenarios,
    run_job,
    run_sweep,
)

__all__ = [
    "ARTIFACT_SCHEMA_VERSION",
    "ArtifactStore",
    "PredictionCache",
    "SweepJob",
    "SweepStats",
    "jobs_from_scenarios",
    "run_job",
    "run_sweep",
]
