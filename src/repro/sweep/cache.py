"""Persistent on-disk cache of all-reduce latency predictions.

A prediction is a pure function of (topology, algorithm, flow control,
data size, lockstep) — the simulator is deterministic — so its result can
be reused across processes and sessions.  Figure sweeps that re-simulate
the same points (repeated benchmark runs, incremental figure edits) then
cost one dictionary lookup per warm point.

Keys are scenario point keys (:func:`repro.scenario.point_key`), which
embed:

* a **topology fingerprint** — name, node/switch counts, and a digest of
  every link's ``(src, dst, bandwidth, latency, capacity)`` — so two
  topologies that merely share a name cannot collide;
* the resolved builder algorithm, the flow-control ``repr`` (which
  carries framing parameters like packet payload size), the data size,
  the lockstep flag and any SystemConfig overrides;
* :data:`repro.scenario.FINGERPRINT_SCHEMA_VERSION` — the invalidation
  key.  Bump it whenever a change alters predicted timings (simulator
  semantics, flow-control wire math, lockstep gating); every previously
  cached entry then misses and fresh values are appended.

The simulation engine is not in the key: every engine returns ``==``
numbers, so a point cached by one engine is served to all of them.

The file is an append-only JSONL journal, one
``{"key", "time", "bandwidth", "max_queue_delay"}`` object per line, with
floats written by ``repr`` so values reload exactly.  A save appends only
the entries put since the previous save, in one ``O_APPEND`` write, so
concurrent writers — serve threads, sweep worker processes — interleave
whole lines and lose nothing.  There is no compaction step: an entry is a
pure function of its key, so duplicate lines (only racing writers make
them) are ``==`` and the last one read wins harmlessly.
"""

from __future__ import annotations

import json
import os
import threading
import warnings
from typing import Dict, Optional, Tuple

__all__ = ["PredictionCache"]

_FIELDS = ("time", "bandwidth", "max_queue_delay")


def _entry(line: bytes) -> Optional[Tuple[str, Dict[str, float]]]:
    """``(key, entry)`` from one journal line, or ``None`` if it is not one."""
    try:
        record = json.loads(line)
    except ValueError:
        return None
    if not isinstance(record, dict) or not isinstance(record.get("key"), str):
        return None
    entry = {name: record.get(name) for name in _FIELDS}
    if not all(
        isinstance(value, (int, float)) and not isinstance(value, bool)
        for value in entry.values()
    ):
        return None
    return record["key"], entry


class PredictionCache:
    """JSONL-journaled key -> prediction store with hit/miss accounting."""

    def __init__(self, path: str) -> None:
        self.path = path
        self.hits = 0
        self.misses = 0
        self._entries: Dict[str, Dict[str, float]] = self._read(path)
        # Entries put since the last save; the lock orders puts and
        # appends across the threads that share one cache.
        self._unsaved: Dict[str, Dict[str, float]] = {}
        self._lock = threading.Lock()

    @staticmethod
    def _read(path: str) -> Dict[str, Dict[str, float]]:
        """Entries on disk; a missing file is the normal cold start, while
        lines that are corrupt or truncated are skipped *with a warning* —
        the cache must never take the process down, only cost
        re-simulation."""
        try:
            with open(path, "rb") as fh:
                lines = fh.read().splitlines()
        except OSError:
            return {}
        entries: Dict[str, Dict[str, float]] = {}
        skipped = 0
        for line in lines:
            if not line.strip():
                continue
            parsed = _entry(line)
            if parsed is None:
                skipped += 1
            else:
                entries[parsed[0]] = parsed[1]
        if skipped:
            warnings.warn(
                "prediction cache %s has %d corrupt or truncated line(s); "
                "skipped them and kept the other %d entries"
                % (path, skipped, len(entries)),
                RuntimeWarning,
                stacklevel=3,
            )
        return entries

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: str) -> bool:
        return key in self._entries

    def get(self, key: str) -> Optional[Dict[str, float]]:
        entry = self._entries.get(key)
        if entry is None:
            self.misses += 1
        else:
            self.hits += 1
        return entry

    def put(self, key: str, time: float, bandwidth: float,
            max_queue_delay: float) -> None:
        entry = {
            "time": time,
            "bandwidth": bandwidth,
            "max_queue_delay": max_queue_delay,
        }
        with self._lock:
            self._entries[key] = entry
            self._unsaved[key] = entry

    @property
    def entries(self) -> Dict[str, Dict[str, float]]:
        return dict(self._entries)

    def save(self) -> None:
        """Append the entries put since the last save; none, no write."""
        with self._lock:
            if not self._unsaved:
                return
            data = "".join(
                json.dumps(dict(key=key, **entry)) + "\n"
                for key, entry in self._unsaved.items()
            ).encode()
            directory = os.path.dirname(os.path.abspath(self.path))
            os.makedirs(directory, exist_ok=True)
            fd = os.open(self.path, os.O_RDWR | os.O_APPEND | os.O_CREAT, 0o644)
            try:
                # A crash mid-append leaves a torn last line; start on a
                # fresh line so the torn one stays the only loss.
                size = os.fstat(fd).st_size
                if size and os.pread(fd, 1, size - 1) != b"\n":
                    data = b"\n" + data
                view = memoryview(data)
                while view:
                    view = view[os.write(fd, view):]
            finally:
                os.close(fd)
            self._unsaved.clear()
