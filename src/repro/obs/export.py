"""Chrome trace-event / Perfetto export: the one writer of that format.

Both telemetry records serialize to the Chrome trace-event JSON format,
which https://ui.perfetto.dev (and ``chrome://tracing``) load directly;
they share the track metadata records, the document envelope and the
write path.  Timestamps are exported in microseconds (the format's
native unit); recorded timestamps are seconds.

:func:`to_chrome_trace` lays out one simulated run (a
:class:`repro.trace.Trace`):

* process ``links`` — one thread per (link, channel); every channel hold
  becomes a complete ("X") slice, so contention shows up as back-to-back
  slices and the queue wait of each grant is in the slice args,
* process ``messages`` — per-destination-node threads carrying one async
  ("b"/"e") span per message from ready to deliver,
* process ``host`` — compute/comm phase spans from the training layer,
* lockstep step gates — global instant ("i") events.

:func:`to_chrome_spans` lays out an obs record stream: one Perfetto
process per recording process (the serve parent, each sweep worker), one
thread track per recording thread — so a ``--jobs 4`` sweep renders as
four worker lanes under the parent, and a serve request's handler/worker
hand-off is visible as parallel tracks sharing one trace id (carried in
every slice's args).
"""

from __future__ import annotations

import json
from typing import TYPE_CHECKING, Dict, List, Sequence, Tuple

from ..topology.base import LinkKey

if TYPE_CHECKING:  # repro.trace imports this module
    from ..trace.recorder import Trace

_US = 1e6

_PID_LINKS = 1
_PID_MESSAGES = 2
_PID_HOST = 3


def process_meta(pid: int, name: str) -> Dict[str, object]:
    """Chrome trace-event process-name metadata record."""
    return {
        "ph": "M",
        "name": "process_name",
        "pid": pid,
        "tid": 0,
        "args": {"name": name},
    }


def thread_meta(pid: int, tid: int, name: str) -> Dict[str, object]:
    """Chrome trace-event thread-name metadata record."""
    return {
        "ph": "M",
        "name": "thread_name",
        "pid": pid,
        "tid": tid,
        "args": {"name": name},
    }


def _document(
    events: List[Dict[str, object]], other: Dict[str, str]
) -> Dict[str, object]:
    return {"traceEvents": events, "displayTimeUnit": "ms", "otherData": other}


def _write(document: Dict[str, object], path: str) -> None:
    with open(path, "w") as handle:
        json.dump(document, handle, indent=1)


def to_chrome_trace(trace: Trace) -> Dict[str, object]:
    """The trace as a Chrome trace-event ``dict`` (Perfetto-loadable)."""
    events: List[Dict[str, object]] = [
        process_meta(_PID_LINKS, "links"),
        process_meta(_PID_MESSAGES, "messages"),
        process_meta(_PID_HOST, "host"),
    ]

    # -- link channel occupancy ------------------------------------------------
    channel_tids: Dict[Tuple[LinkKey, int], int] = {}
    for link, occupancy in sorted(trace.link_occupancy().items()):
        for event in occupancy:
            channel = (link, event.channel)
            tid = channel_tids.get(channel)
            if tid is None:
                tid = len(channel_tids)
                channel_tids[channel] = tid
                events.append(
                    thread_meta(
                        _PID_LINKS, tid, "link %d->%d ch%d" % (link + (event.channel,))
                    )
                )
            message = trace.messages.get(event.message)
            events.append(
                {
                    "ph": "X",
                    "name": message.label if message else "m%d" % event.message,
                    "cat": "link",
                    "pid": _PID_LINKS,
                    "tid": tid,
                    "ts": event.grant * _US,
                    "dur": event.serialization * _US,
                    "args": {
                        "message": event.message,
                        "queue_wait_us": event.queue_wait * _US,
                    },
                }
            )

    # -- message lifetimes (async spans per destination node) ------------------
    seen_nodes = set()
    for message in sorted(trace.messages.values(), key=lambda ev: ev.index):
        if message.dst not in seen_nodes:
            seen_nodes.add(message.dst)
            events.append(
                thread_meta(_PID_MESSAGES, message.dst, "to node %d" % message.dst)
            )
        common = {
            "cat": "message",
            "id": message.index,
            "pid": _PID_MESSAGES,
            "tid": message.dst,
            "name": message.label,
        }
        events.append(dict(common, ph="b", ts=message.ready * _US))
        events.append(
            dict(
                common,
                ph="e",
                ts=message.deliver * _US,
                args={
                    "src": message.src,
                    "dst": message.dst,
                    "payload_bytes": message.payload_bytes,
                    "inject_us": message.inject * _US,
                    "queue_delay_us": message.queue_delay * _US,
                    "deps": list(message.deps),
                },
            )
        )

    # -- compute/comm phase spans ---------------------------------------------
    span_tids: Dict[str, int] = {}
    for span in trace.spans:
        tid = span_tids.get(span.track)
        if tid is None:
            tid = len(span_tids)
            span_tids[span.track] = tid
            events.append(thread_meta(_PID_HOST, tid, span.track))
        events.append(
            {
                "ph": "X",
                "name": span.name,
                "cat": span.track,
                "pid": _PID_HOST,
                "tid": tid,
                "ts": span.start * _US,
                "dur": span.duration * _US,
            }
        )

    # -- lockstep gates ---------------------------------------------------------
    for gate in trace.gates:
        events.append(
            {
                "ph": "i",
                "name": "step %d gate" % gate.step,
                "cat": "lockstep",
                "pid": _PID_LINKS,
                "tid": 0,
                "ts": gate.time * _US,
                "s": "g",
            }
        )

    return _document(
        events, {str(k): str(v) for k, v in trace.metadata.items()}
    )


def write_chrome_trace(trace: Trace, path: str) -> None:
    """Write the Perfetto-loadable JSON trace to ``path``."""
    _write(to_chrome_trace(trace), path)


def to_chrome_spans(records: Sequence[Dict[str, object]]) -> Dict[str, object]:
    """An obs record stream as a Chrome trace-event ``dict``."""
    events: List[Dict[str, object]] = []
    pids: Dict[str, int] = {}
    tids: Dict[Tuple[int, str], int] = {}

    def track(record: Dict[str, object]) -> Tuple[int, int]:
        proc = str(record.get("proc") or "repro")
        pid = pids.get(proc)
        if pid is None:
            pid = pids[proc] = len(pids) + 1
            events.append(process_meta(pid, proc))
        thread = str(record.get("thread") or "main")
        key = (pid, thread)
        tid = tids.get(key)
        if tid is None:
            tid = tids[key] = sum(1 for p, _t in tids if p == pid) + 1
            events.append(thread_meta(pid, tid, thread))
        return pid, tid

    spans = 0
    for record in records:
        kind = record.get("kind")
        if kind == "span":
            pid, tid = track(record)
            start = float(record.get("start", 0.0))
            end = float(record.get("end", start))
            args: Dict[str, object] = {
                "trace": record.get("trace"),
                "span": record.get("span"),
                "parent": record.get("parent"),
            }
            attrs = record.get("attrs")
            if isinstance(attrs, dict):
                args.update(attrs)
            events.append(
                {
                    "ph": "X",
                    "name": str(record.get("name")),
                    "cat": "obs",
                    "pid": pid,
                    "tid": tid,
                    "ts": start * _US,
                    "dur": max(0.0, end - start) * _US,
                    "args": args,
                }
            )
            spans += 1
        elif kind == "event":
            pid, tid = track(record)
            args = {"trace": record.get("trace"), "span": record.get("span")}
            fields = record.get("fields")
            if isinstance(fields, dict):
                args.update(fields)
            events.append(
                {
                    "ph": "i",
                    "name": str(record.get("name")),
                    "cat": "obs",
                    "pid": pid,
                    "tid": tid,
                    "ts": float(record.get("time", 0.0)) * _US,
                    "s": "t",
                    "args": args,
                }
            )
    return _document(
        events, {"spans": str(spans), "processes": str(len(pids))}
    )


def write_chrome_spans(
    records: Sequence[Dict[str, object]], path: str
) -> None:
    """Write the Perfetto-loadable JSON of an obs stream to ``path``."""
    _write(to_chrome_spans(records), path)
