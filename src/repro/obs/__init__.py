"""End-to-end observability: the one instrumentation model.

Every instrumented site emits one record — a span or an event — carrying
the values it computed.  The records answer *what happened to this unit
of work* (one span tree per request or sweep series, correlated across
the serve worker pool and sweep worker processes), and folded by
:mod:`repro.metrics.fold` they are the metrics ``/metrics``, manifests
and ``repro report`` read.

There is one switch: :func:`span` and :func:`event` are no-ops until a
recorder is installed with :func:`observing` (``--obs PATH``) or, for
metrics only, :func:`repro.metrics.collecting`::

    with observing(stream_path="obs.jsonl") as rec:
        service.predict(scenario, block=True)
    # obs.jsonl now holds one span tree for the prediction

Metric-only attributes are computed while :func:`metering`, cross-layer
identities while :func:`tracing`.  Sites never alter results; ``repro
obs overhead`` gates the enable-cost below 3% on the quick suite.
"""

from __future__ import annotations

from contextlib import contextmanager, nullcontext
from typing import Iterator, Optional

from .schema import (
    OBS_RECORD_SCHEMA,
    OBS_SCHEMA_VERSION,
    load_stream,
    read_jsonl,
    validate_record,
    validate_stream,
)
from .spans import (
    NULL_SPAN,
    ObsRecorder,
    Span,
    attached,
    current_carrier,
    new_id,
)

# -- ambient recorder (the opt-in switch) -----------------------------------
_ACTIVE: Optional[ObsRecorder] = None

_NULL_CONTEXT = nullcontext(NULL_SPAN)


def get_obs() -> Optional[ObsRecorder]:
    """The process-wide active recorder, or ``None`` (collection off)."""
    return _ACTIVE


def set_obs(recorder: Optional[ObsRecorder]) -> Optional[ObsRecorder]:
    """Install ``recorder`` as the ambient collector; returns the previous."""
    global _ACTIVE
    previous = _ACTIVE
    _ACTIVE = recorder
    return previous


@contextmanager
def observing(
    recorder: Optional[ObsRecorder] = None,
    stream_path: Optional[str] = None,
    capacity: Optional[int] = None,
) -> Iterator[ObsRecorder]:
    """Enable span collection for a ``with`` block; yields the recorder.

    The recorder inherits the replaced one's folds for the block, so an
    enclosing :func:`repro.metrics.collecting` keeps counting.  A
    recorder created here is closed on exit; a caller-owned one is left
    open.
    """
    owned = recorder is None
    if recorder is None:
        kwargs = {"stream_path": stream_path}
        if capacity is not None:
            kwargs["capacity"] = capacity
        recorder = ObsRecorder(**kwargs)
    previous = set_obs(recorder)
    inherited = [
        fold for fold in (previous.folds if previous is not None else ())
        if fold not in recorder.folds
    ]
    for fold in inherited:
        recorder.add_fold(fold)
    try:
        yield recorder
    finally:
        set_obs(previous)
        for fold in inherited:
            recorder.remove_fold(fold)
        if owned:
            recorder.close()
        else:
            recorder.flush()


def metering() -> bool:
    """Whether sites should attach their metric-only attributes."""
    recorder = _ACTIVE
    return recorder is not None and recorder.metered


def tracing() -> bool:
    """Whether the active recorder keeps correlated span records."""
    recorder = _ACTIVE
    return recorder is not None and recorder.traced


def span(name: str, **attrs: object):
    """Ambient span: records under the active recorder, no-op otherwise
    (yielding a shared null span, so sites set attributes regardless)."""
    recorder = _ACTIVE
    if recorder is None:
        return _NULL_CONTEXT
    return Span(recorder, name, attrs)


def event(name: str, **fields: object) -> None:
    """Ambient structured log record; dropped when collection is off."""
    recorder = _ACTIVE
    if recorder is not None:
        recorder.event(name, **fields)


__all__ = [
    "NULL_SPAN",
    "OBS_RECORD_SCHEMA",
    "OBS_SCHEMA_VERSION",
    "ObsRecorder",
    "Span",
    "attached",
    "current_carrier",
    "event",
    "get_obs",
    "load_stream",
    "metering",
    "new_id",
    "observing",
    "read_jsonl",
    "set_obs",
    "span",
    "tracing",
    "validate_record",
    "validate_stream",
]
