"""Simulation observability: event tracing, Perfetto export, diagnosis.

The simulator layers report *what happened* (``finish_time``, busy times,
queue delays); this package records *why*.  Pass a :class:`Trace` as the
``recorder`` argument of :meth:`repro.network.NetworkSimulator.run`,
:func:`repro.ni.simulate_allreduce`, :meth:`repro.runtime.Communicator.trace`
or the training iteration models, then:

* export it for the Perfetto UI (:func:`write_chrome_trace`, written by
  :mod:`repro.obs.export`, the one Chrome trace-event writer),
* extract the critical path and its exact wire / latency / queueing /
  lockstep-stall decomposition (:func:`extract_critical_path`),
* rank contention hotspots and render the per-step link-utilization
  heatmap (:func:`link_hotspots`, :func:`utilization_heatmap`), or
* print everything at once (:func:`format_trace_report`).

Every recorded run plays a message list, tagged with the schedule's ops,
on the event engine (trace metadata ``engine: event``): the heap order
of :func:`repro.network.lockstep_engine.run_indexed` calls the
recorder's ``hop`` and ``message_done`` hooks in processing order.
Tracing is strictly opt-in: with no recorder the hooks reduce to one
``is not None`` test per event and produce bit-identical simulation
results.
"""

from ..obs.export import to_chrome_trace, write_chrome_trace
from .critical_path import (
    COMPONENTS,
    CriticalPath,
    PathSegment,
    extract_critical_path,
)
from .events import HopEvent, MessageEvent, SpanEvent, StepGateEvent, TraceRecorder
from .hotspots import LinkHotspot, format_hotspots, link_hotspots, utilization_heatmap
from .recorder import Trace
from .report import format_trace_report

__all__ = [
    "COMPONENTS",
    "CriticalPath",
    "HopEvent",
    "LinkHotspot",
    "MessageEvent",
    "PathSegment",
    "SpanEvent",
    "StepGateEvent",
    "Trace",
    "TraceRecorder",
    "extract_critical_path",
    "format_hotspots",
    "format_trace_report",
    "link_hotspots",
    "to_chrome_trace",
    "utilization_heatmap",
    "write_chrome_trace",
]
