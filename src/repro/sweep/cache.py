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
  cached entry then misses and the file is repopulated with fresh values.

The simulation engine is not in the key: every engine returns ``==``
numbers, so a point cached by one engine is served to all of them.

Entries store ``time``, ``bandwidth``, and ``max_queue_delay``.  The file
is plain JSON; writes are atomic (temp file + ``os.replace``) and merge
with on-disk state so concurrent writers lose nothing but duplicated work.
"""

from __future__ import annotations

import json
import os
import tempfile
import threading
import warnings
from contextlib import contextmanager
from typing import Dict, Optional

from ..scenario import FINGERPRINT_SCHEMA_VERSION

__all__ = ["PredictionCache"]


class PredictionCache:
    """JSON-backed key -> prediction store with hit/miss accounting."""

    def __init__(self, path: str) -> None:
        self.path = path
        self.hits = 0
        self.misses = 0
        self._entries: Dict[str, Dict[str, float]] = self._read(path)
        self._dirty = False
        # Batching state is per-thread: serve workers share one cache,
        # and one worker's open batch must not swallow another's save.
        self._batch = threading.local()

    @staticmethod
    def _read(path: str) -> Dict[str, Dict[str, float]]:
        """Entries on disk; a missing file is the normal cold start, while
        a corrupt or truncated one starts empty *with a warning* — the
        cache must never take the process down, only cost re-simulation."""
        try:
            with open(path) as fh:
                payload = json.load(fh)
        except OSError:
            return {}
        except ValueError:
            warnings.warn(
                "prediction cache %s is corrupt or truncated; starting "
                "empty (the next save rewrites it atomically)" % path,
                RuntimeWarning,
                stacklevel=3,
            )
            return {}
        entries = (
            payload.get("entries") if isinstance(payload, dict) else None
        )
        if not isinstance(entries, dict):
            warnings.warn(
                "prediction cache %s has an unexpected layout; starting "
                "empty (the next save rewrites it atomically)" % path,
                RuntimeWarning,
                stacklevel=3,
            )
            return {}
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
        self._entries[key] = {
            "time": time,
            "bandwidth": bandwidth,
            "max_queue_delay": max_queue_delay,
        }
        self._dirty = True

    def merge(self, entries: Dict[str, Dict[str, float]]) -> None:
        """Adopt entries computed elsewhere (e.g. a worker process)."""
        if entries:
            self._entries.update(entries)
            self._dirty = True

    @property
    def entries(self) -> Dict[str, Dict[str, float]]:
        return dict(self._entries)

    @contextmanager
    def batched(self):
        """Coalesce saves: ``save()`` calls inside defer to block exit.

        A multi-point fill — the sweep runner's one-pass size series, a
        serve warm-up draining a whole plan bucket — otherwise pays one
        read-merge-replace of the JSON file per point.  Inside a
        ``batched()`` block those saves are recorded and performed once,
        atomically, when the outermost block exits (also on error, so
        whatever was computed before a failure still persists).
        Re-entrant, and scoped to the calling thread.
        """
        depth = getattr(self._batch, "depth", 0)
        self._batch.depth = depth + 1
        try:
            yield self
        finally:
            self._batch.depth = depth
            if depth == 0 and getattr(self._batch, "deferred", False):
                self._batch.deferred = False
                self.save()

    def save(self) -> None:
        """Atomically persist, merging with whatever is on disk now."""
        if getattr(self._batch, "depth", 0):
            self._batch.deferred = True
            return
        if not self._dirty:
            return
        on_disk = self._read(self.path)
        on_disk.update(self._entries)
        self._entries = on_disk
        payload = {"schema": FINGERPRINT_SCHEMA_VERSION, "entries": self._entries}
        directory = os.path.dirname(os.path.abspath(self.path))
        os.makedirs(directory, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
        try:
            with os.fdopen(fd, "w") as fh:
                json.dump(payload, fh, sort_keys=True)
            os.replace(tmp, self.path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        self._dirty = False
