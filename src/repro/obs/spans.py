"""Span recorder: correlation-id context, ring buffer, JSONL flush, folds.

One :class:`ObsRecorder` per process.  Spans nest through a thread-local
context stack, so each serve request thread and each sweep worker builds
its own parent chain without any caller threading ids around; crossing a
process or thread-pool boundary serializes the current context into a
tiny *carrier* dict (:func:`current_carrier`) that the far side installs
with :func:`attached` — the remote span then parent-links to the origin
and the whole unit of work shares one trace id.

Finished records land in a bounded ring buffer (``deque(maxlen=...)``,
oldest evicted first), in a JSONL stream when a ``stream_path`` is set
(whole-line batches, so a tail or a crash post-mortem always sees valid
JSON lines and a hot loop never pays one syscall per span), and in the
recorder's *folds* (:class:`repro.metrics.fold.MetricsFold`).  Worker
processes return :meth:`ObsRecorder.snapshot` to the parent, which
replays them with :meth:`ObsRecorder.merge` (parent links intact).
"""

from __future__ import annotations

import json
import os
import threading
import time
from collections import deque
from contextlib import contextmanager
from typing import Callable, Deque, Dict, Iterator, List, Optional, Tuple

from .schema import OBS_SCHEMA_VERSION

#: Default ring-buffer capacity (records kept in memory).
DEFAULT_CAPACITY = 8192

#: Stream write batching: hold lines at most this long (seconds) and at
#: most this many before writing them out.  Whole lines only — a reader
#: mid-run sees fewer records than exist, never a torn one.
FLUSH_INTERVAL_S = 0.5
FLUSH_MAX_PENDING = 256

_local = threading.local()

def _line_encoder() -> Callable[[Dict[str, object]], str]:
    """One reusable record encoder: sorted keys, no cycle check (records
    never hold reference cycles).

    ``JSONEncoder.encode`` builds a fresh C encoder on every call; this
    builds it once, which roughly halves the per-record cost.  The
    output is the same string; interpreters without the C accelerator
    use ``encode`` itself.
    """
    standard = json.JSONEncoder(sort_keys=True, check_circular=False)
    make = getattr(json.encoder, "c_make_encoder", None)
    if make is None:
        return standard.encode
    try:
        chunks = make(
            None, standard.default, json.encoder.encode_basestring_ascii,
            None, standard.key_separator, standard.item_separator,
            standard.sort_keys, standard.skipkeys, standard.allow_nan,
        )
    except TypeError:  # a C encoder with another signature
        return standard.encode
    return lambda record: "".join(chunks(record, 0))


_encode = _line_encoder()


def _stack() -> List[Tuple[str, str]]:
    stack = getattr(_local, "stack", None)
    if stack is None:
        stack = _local.stack = []
    return stack


def new_id() -> str:
    """A fresh 16-hex correlation id (collision-safe across processes)."""
    return os.urandom(8).hex()


def current_carrier() -> Optional[Dict[str, str]]:
    """The calling thread's span context as a picklable carrier dict.

    ``None`` when no span is open — the far side then starts fresh
    traces instead of parent-linking.
    """
    stack = getattr(_local, "stack", None)
    if not stack:
        return None
    trace_id, span_id = stack[-1]
    return {"trace": trace_id, "span": span_id}


@contextmanager
def attached(carrier: Optional[Dict[str, str]]) -> Iterator[None]:
    """Install a remote span context for a ``with`` block.

    Spans opened inside parent-link to ``carrier["span"]`` and share
    ``carrier["trace"]``.  A falsy carrier makes this a no-op, so call
    sites need no branching.
    """
    if not carrier:
        yield
        return
    stack = _stack()
    stack.append((carrier["trace"], carrier["span"]))
    try:
        yield
    finally:
        stack.pop()


class Span:
    """One span; ``set`` adds attributes until the ``with`` exits."""

    __slots__ = ("name", "trace_id", "span_id", "parent_id", "start", "attrs",
                 "_recorder")

    def __init__(self, recorder: "ObsRecorder", name: str,
                 attrs: Dict[str, object]) -> None:
        self._recorder = recorder
        self.name = name
        if None in attrs.values():
            attrs = {k: v for k, v in attrs.items() if v is not None}
        self.attrs = attrs

    def set(self, key: str, value: object) -> None:
        if value is not None:
            self.attrs[key] = value

    def __enter__(self) -> "Span":
        if self._recorder.traced:
            stack = _stack()
            if stack:
                self.trace_id, self.parent_id = stack[-1]
            else:
                self.trace_id, self.parent_id = new_id(), None
            self.span_id = new_id()
            stack.append((self.trace_id, self.span_id))
        else:
            self.trace_id = self.span_id = self.parent_id = None
        self.start = time.time()
        return self

    def __exit__(self, exc_type, error, _tb) -> None:
        if error is not None:
            self.attrs.setdefault(
                "error", "%s: %s" % (exc_type.__name__, error)
            )
        recorder = self._recorder
        record = {"kind": "span", "name": self.name, "start": self.start,
                  "end": time.time(), "attrs": self.attrs}
        if recorder.traced:
            _local.stack.pop()
            record["trace"] = self.trace_id
            record["span"] = self.span_id
            record["parent"] = self.parent_id
            recorder._stamp(record)
        recorder._emit(record)


class _NullSpan:
    """What :func:`repro.obs.span` yields when collection is off."""

    __slots__ = ()
    name = None
    trace_id = None
    span_id = None
    parent_id = None

    def set(self, key: str, value: object) -> None:
        pass


NULL_SPAN = _NullSpan()


class ObsRecorder:
    """Span/event recorder for one process.

    ``capacity`` bounds the in-memory ring (``None``: unbounded, ``0``:
    keep nothing); ``stream_path`` additionally flushes records to a
    JSONL stream.  ``proc`` names this process in records.  ``traced``
    (default: records are kept or streamed) mints correlation ids and
    stamps records with them and their origin — untraced records carry
    only kind, name, times and attributes; ``metered`` (implied by any
    fold) asks sites for metric attributes.
    """

    def __init__(
        self,
        capacity: Optional[int] = DEFAULT_CAPACITY,
        stream_path: Optional[str] = None,
        proc: Optional[str] = None,
        traced: Optional[bool] = None,
        metered: bool = False,
    ) -> None:
        self.capacity = None if capacity is None else max(0, int(capacity))
        self.records: Deque[Dict[str, object]] = deque(maxlen=self.capacity)
        self.emitted = 0
        self.stream_path = stream_path
        self.proc = proc or ("repro-%d" % os.getpid())
        self.traced = (
            traced if traced is not None
            else self.capacity != 0 or bool(stream_path)
        )
        self._metered = metered
        #: Record consumers: a tuple, replaced under the lock.
        self.folds: Tuple[Callable[[Dict[str, object]], None], ...] = ()
        self._lock = threading.Lock()
        self._fh = None
        self._pending: List[str] = []
        self._last_write = 0.0
        if stream_path:
            directory = os.path.dirname(os.path.abspath(stream_path))
            os.makedirs(directory, exist_ok=True)
            self._fh = open(stream_path, "a")

    @property
    def metered(self) -> bool:
        return self._metered or bool(self.folds)

    @property
    def dropped(self) -> int:
        """Records evicted from the ring (still on the stream, if any)."""
        return max(0, self.emitted - len(self.records))

    def add_fold(self, fold: Callable[[Dict[str, object]], None]) -> None:
        with self._lock:
            self.folds += (fold,)

    def remove_fold(self, fold: Callable[[Dict[str, object]], None]) -> None:
        with self._lock:
            self.folds = tuple(f for f in self.folds if f is not fold)

    def _emit(self, record: Dict[str, object]) -> None:
        with self._lock:
            self.emitted += 1
            if self.capacity != 0:
                self.records.append(record)
            if self._fh is not None:
                self._pending.append(_encode(record) + "\n")
                now = time.time()
                if (
                    now - self._last_write >= FLUSH_INTERVAL_S
                    or len(self._pending) >= FLUSH_MAX_PENDING
                ):
                    self._drain(now)
            for fold in self.folds:
                fold(record)

    def _drain(self, now: float) -> None:
        """Write pending lines out (caller holds the lock)."""
        if self._pending and self._fh is not None:
            self._fh.write("".join(self._pending))
            self._fh.flush()
            del self._pending[:]
        self._last_write = now

    def span(self, name: str, **attrs: object) -> Span:
        """A span for a ``with`` block; emits on exit.

        A traced recorder nests it under the thread's current span (or
        starts a fresh trace); an untraced one leaves every id ``None``.
        An escaping exception is recorded as ``error`` and re-raised.
        """
        return Span(self, name, attrs)

    def event(self, name: str, **fields: object) -> None:
        """Emit one structured log record under the current span."""
        record = {"kind": "event", "name": name, "time": time.time(),
                  "fields": {k: v for k, v in fields.items() if v is not None}}
        if self.traced:
            stack = getattr(_local, "stack", None)
            record["trace"], record["span"] = (
                stack[-1] if stack else (None, None)
            )
            self._stamp(record)
        self._emit(record)

    def _stamp(self, record: Dict[str, object]) -> None:
        """Add what every traced record carries: schema and origin."""
        record["schema"] = OBS_SCHEMA_VERSION
        record["pid"] = os.getpid()
        record["proc"] = self.proc
        record["thread"] = threading.current_thread().name

    def snapshot(self) -> List[Dict[str, object]]:
        """The ring's records as a picklable list (workers return this)."""
        with self._lock:
            return list(self.records)

    def merge(self, records: List[Dict[str, object]]) -> None:
        """Replay records from another recorder (e.g. a worker process).

        Records keep their original ids, process and thread names, so
        parent links across the process boundary resolve.
        """
        for record in records:
            self._emit(dict(record))

    def flush(self) -> None:
        with self._lock:
            self._drain(time.time())

    def close(self) -> None:
        with self._lock:
            self._drain(time.time())
            if self._fh is not None:
                self._fh.close()
                self._fh = None
