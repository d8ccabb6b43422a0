"""On-disk store of compiled schedule artifacts.

A compiled schedule (:mod:`repro.collectives.compiled`) is payload
independent: one artifact per (topology, algorithm) serves every data
point of a bandwidth sweep and every worker process.  This store
persists them under a root directory with the same discipline as the
prediction cache (:mod:`repro.sweep.cache`): content-addressed keys that
embed a topology fingerprint, atomic writes (temp file + ``os.replace``),
and a schema version whose bump turns every existing artifact into a
miss.

**Sharded binary format (v2).**  An artifact is a small JSON *header* —
``sha256(key)[:24].json`` — plus binary column shards next to it
(``<digest>.core.npz`` for the op/route columns, ``<digest>.deps.npz``
for the dependency CSR).  The header carries per-shard SHA-256
checksums, verified by streaming on load; columns are loaded *lazily*
from the uncompressed npz members, so a warm consumer that only runs the
vectorized engine never materializes the columns it does not touch
(``srcs``/``dsts`` stay on disk).  At 8k-node scale the JSON encoding of
a 134M-op schedule would be tens of GiB of text; the shards are the raw
little-endian arrays.

This is the store's only format.  Any unreadable, truncated,
checksum-mismatched, wrong-format (an old single-file JSON artifact
included) or wrong-topology artifact counts as a **miss with a reason**
(the ``sim.fallbacks``-style ``artifact`` engine counter) — never an
exception: the store is a cache, not a source of truth.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
import threading
from collections import OrderedDict
from typing import Dict, Optional

import numpy as np

from .. import obs
from ..collectives.compiled import (
    COMPILED_FORMAT,
    CompiledSchedule,
    ScheduleColumns,
    compile_schedule,
)

# The artifact identity scheme lives in the scenario layer so predictions,
# artifacts and manifests all derive from one place.
from ..scenario import ARTIFACT_SCHEMA_VERSION, artifact_fingerprint
from ..topology.base import Topology, topology_fingerprint

#: Header marker of the sharded format; anything else is a miss.
ARTIFACT_FORMAT = "repro-artifact-sharded-v2"

#: Default in-process memo capacity, in artifacts whose columns stay
#: resident.
DEFAULT_MEMO_CAP = 8

#: Columns per shard, in storage order.
_CORE_COLUMNS = ("srcs", "dsts", "steps", "frac_num", "frac_den",
                 "route_off", "route_val")
_DEP_COLUMNS = ("dep_off", "dep_val")


def _file_sha256(path: str) -> str:
    """Streamed SHA-256 of a file (constant memory at any shard size)."""
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


class _ShardColumn:
    """One compiled column, materialized lazily from an npz shard member.

    Behaves like the stored array for every consumer of
    :class:`CompiledSchedule` columns — ``len`` (free: the length comes
    from the header), indexing, iteration, ``tolist`` and ``__array__``
    — but only touches the shard bytes on first real access, so loading
    an artifact costs a checksum pass and a zip directory read, not a
    multi-GiB materialization.

    The memo shares one column among every schedule it hands out, so
    the first touch is locked (concurrent first readers get the one
    array) and the array is read-only: a caller that writes into it
    raises instead of corrupting the next caller's schedule.
    """

    __slots__ = ("_npz", "_name", "_length", "_arr", "_lock")

    def __init__(self, npz, name: str, length: int) -> None:
        self._npz = npz
        self._name = name
        self._length = length
        self._arr: Optional[np.ndarray] = None
        self._lock = threading.Lock()

    @property
    def loaded(self) -> bool:
        """Whether the column bytes have been pulled off disk yet."""
        return self._arr is not None

    def _load(self) -> np.ndarray:
        arr = self._arr
        if arr is None:
            with self._lock:
                arr = self._arr
                if arr is None:
                    arr = self._npz[self._name]
                    arr.flags.writeable = False
                    self._arr = arr
        return arr

    def __array__(self, dtype=None, copy=None):
        arr = self._load()
        if dtype is not None and dtype != arr.dtype:
            return arr.astype(dtype)
        if copy:
            return arr.copy()
        return arr

    def __len__(self) -> int:
        return self._length

    def __getitem__(self, index):
        return self._load()[index]

    def __iter__(self):
        return iter(self._load())

    def tolist(self):
        return self._load().tolist()


def _constant_pair(num: np.ndarray, den: np.ndarray):
    """``(n, d)`` when every op carries the same fraction, else ``None``."""
    if not len(num):
        return None
    if num.strides == (0,) and den.strides == (0,):
        return int(num[0]), int(den[0])
    if bool((num == num[0]).all()) and bool((den == den[0]).all()):
        return int(num[0]), int(den[0])
    return None


class ArtifactStore:
    """Directory of compiled schedules with hit/miss accounting.

    Successfully loaded artifacts are additionally memoized in-process,
    keyed by the artifact fingerprint alone, so any caller whose
    topology has the same structural fingerprint — a freshly parsed
    topology per sweep job included — skips the header parse, the
    checksum pass and the shard reads (a ``memo-hit``).  The memo keeps
    only what the store owns: the verified header fields and the lazily
    loaded, read-only shard columns (:class:`ScheduleColumns`), never a
    :class:`Topology` or a schedule's engine state.  Every ``get``, memo
    hit or disk load, returns a new :class:`CompiledSchedule` over those
    columns bound to the caller's topology, so the engine caches (step
    bounds, dependency structure, remapped routes, vectorization plan)
    are freed with the caller's schedule.  The memo is **LRU-bounded**
    (``memo_capacity``, default :data:`DEFAULT_MEMO_CAP`, counts the
    artifacts whose columns stay resident): a long-lived process
    sweeping hundreds of topologies must not pin every multi-GiB
    schedule it ever touched.  ``put`` never populates the memo: the
    store stays a cache over the on-disk truth, and a corrupted file
    must read as a miss.
    """

    def __init__(self, root: str, memo_capacity: int = DEFAULT_MEMO_CAP) -> None:
        self.root = root
        self.hits = 0
        self.misses = 0
        self.memo_capacity = max(0, memo_capacity)
        self._memo: "OrderedDict[str, ScheduleColumns]" = OrderedDict()
        # Serve threads share one store: LRU updates are check-then-act.
        self._memo_lock = threading.Lock()

    def _base(self, key: str) -> str:
        digest = hashlib.sha256(key.encode()).hexdigest()[:24]
        return os.path.join(self.root, digest)

    def _path(self, key: str) -> str:
        return self._base(key) + ".json"

    def _memoized(self, key: str) -> Optional[ScheduleColumns]:
        with self._memo_lock:
            columns = self._memo.get(key)
            if columns is not None:
                self._memo.move_to_end(key)
            return columns

    def _memoize(self, key: str, columns: ScheduleColumns) -> None:
        if self.memo_capacity <= 0:
            return
        with self._memo_lock:
            memo = self._memo
            memo[key] = columns
            memo.move_to_end(key)
            while len(memo) > self.memo_capacity:
                memo.popitem(last=False)

    # -- load --------------------------------------------------------------

    def get(
        self, topology: Topology, algorithm: str
    ) -> Optional[CompiledSchedule]:
        """The stored artifact for ``(topology, algorithm)``, or ``None``.

        A new :class:`CompiledSchedule` bound to ``topology`` on every
        call; a memo hit (outcome ``memo-hit``) shares the columns of an
        earlier load and reads no disk.  Unreadable, schema-mismatched,
        truncated, checksum-failed, or wrong-topology artifacts count as
        misses with a reason — the store is a cache, never a source of
        truth.
        """
        with obs.span(
            "artifact.get", topology=topology.name, algorithm=algorithm
        ) as span:
            key = artifact_fingerprint(topology, algorithm)
            columns = self._memoized(key)
            if columns is not None:
                span.set("outcome", "memo-hit")
                self.hits += 1
                return columns.bind(topology)
            columns, reason = self._load(key, topology)
            if columns is None:
                span.set("outcome", "miss")
                span.set("reason", reason)
                self.misses += 1
                return None
            span.set("outcome", "hit")
            self.hits += 1
            self._memoize(key, columns)
            return columns.bind(topology)

    def _load(self, key: str, topology: Topology):
        """``(columns, miss_reason)`` for one on-disk artifact."""
        try:
            with open(self._path(key)) as fh:
                payload = json.load(fh)
        except OSError:
            return None, "absent"
        except ValueError:
            return None, "header-corrupt"
        if not isinstance(payload, dict) or payload.get("key") != key:
            return None, "key-mismatch"
        if payload.get("format") != ARTIFACT_FORMAT:
            return None, "format-mismatch"
        try:
            columns = self._load_sharded(payload, topology)
        except _ShardError as exc:
            return None, exc.reason
        except (ValueError, KeyError, TypeError, IndexError, OSError):
            return None, "decode-error"
        return columns, None

    def _load_sharded(
        self, header: Dict[str, object], topology: Topology
    ) -> ScheduleColumns:
        if header.get("compiled_format") != COMPILED_FORMAT:
            raise _ShardError("format-mismatch")
        if header["topology"] != topology_fingerprint(topology):
            raise _ShardError("topology-mismatch")
        npz: Dict[str, object] = {}
        for shard, entry in header["shards"].items():
            path = os.path.join(self.root, entry["file"])
            try:
                if _file_sha256(path) != entry["sha256"]:
                    raise _ShardError("checksum-mismatch")
                npz[shard] = np.load(path)
            except _ShardError:
                raise
            except OSError:
                raise _ShardError("shard-missing")
            except Exception:
                raise _ShardError("shard-corrupt")
        columns: Dict[str, object] = {}
        for name, spec in header["columns"].items():
            columns[name] = _ShardColumn(
                npz[spec["shard"]], name, int(spec["length"])
            )
        num_ops = int(header["num_ops"])
        frac_const = header.get("frac_const")
        if frac_const is not None:
            columns["frac_num"] = np.broadcast_to(
                np.int64(frac_const[0]), (num_ops,)
            )
            columns["frac_den"] = np.broadcast_to(
                np.int64(frac_const[1]), (num_ops,)
            )
        ser_profile = [
            (step, bw, frac)
            for step, bw, frac in zip(
                header["ser_steps"], header["ser_bandwidth"],
                header["ser_fraction"],
            )
        ]
        return ScheduleColumns(
            algorithm=header["algorithm"],
            num_steps=int(header["num_steps"]),
            links=[(pair[0], pair[1]) for pair in header["links"]],
            ser_profile=ser_profile,
            metadata=dict(header.get("metadata", {})),
            **columns,
        )

    # -- store -------------------------------------------------------------

    def put(self, compiled: CompiledSchedule) -> str:
        """Atomically persist ``compiled`` as header + binary shards.

        Shards land first (temp file + ``os.replace`` each), the header
        referencing their checksums last, so a reader never sees a header
        whose shards are missing — at worst a checksum mismatch, which is
        a counted miss.  Returns the header path.
        """
        with obs.span(
            "artifact.put", topology=compiled.topology.name,
            algorithm=compiled.algorithm,
        ) as span:
            key = artifact_fingerprint(compiled.topology, compiled.algorithm)
            base = self._base(key)
            os.makedirs(self.root, exist_ok=True)

            arrays = {
                name: np.asarray(getattr(compiled, name))
                for name in _CORE_COLUMNS + _DEP_COLUMNS
            }
            frac_const = _constant_pair(
                arrays["frac_num"], arrays["frac_den"]
            )
            core_cols = list(_CORE_COLUMNS)
            if frac_const is not None:
                core_cols.remove("frac_num")
                core_cols.remove("frac_den")
            shard_cols = {"core": core_cols, "deps": list(_DEP_COLUMNS)}
            shards: Dict[str, Dict[str, object]] = {}
            columns: Dict[str, Dict[str, object]] = {}
            for shard, names in shard_cols.items():
                filename = os.path.basename(base) + "." + shard + ".npz"
                path = os.path.join(self.root, filename)
                self._write_shard(
                    path, {name: arrays[name] for name in names}
                )
                shards[shard] = {
                    "file": filename,
                    "sha256": _file_sha256(path),
                    "bytes": os.path.getsize(path),
                }
                for name in names:
                    columns[name] = {
                        "shard": shard, "length": len(arrays[name])
                    }
            header = {
                "schema": ARTIFACT_SCHEMA_VERSION,
                "key": key,
                "format": ARTIFACT_FORMAT,
                "compiled_format": COMPILED_FORMAT,
                "topology": topology_fingerprint(compiled.topology),
                "topology_name": compiled.topology.name,
                "algorithm": compiled.algorithm,
                "num_steps": compiled.num_steps,
                "num_ops": len(compiled),
                "frac_const": (
                    list(frac_const) if frac_const is not None else None
                ),
                "links": [[k[0], k[1]] for k in compiled.links],
                "ser_steps": [e[0] for e in compiled.ser_profile],
                "ser_bandwidth": [e[1] for e in compiled.ser_profile],
                "ser_fraction": [e[2] for e in compiled.ser_profile],
                "metadata": {
                    k: v for k, v in compiled.metadata.items()
                    if isinstance(v, (str, int, float, bool, list))
                },
                "columns": columns,
                "shards": shards,
            }
            path = base + ".json"
            fd, tmp = tempfile.mkstemp(dir=self.root, suffix=".tmp")
            try:
                with os.fdopen(fd, "w") as fh:
                    json.dump(header, fh)
                os.replace(tmp, path)
            except BaseException:
                try:
                    os.unlink(tmp)
                except OSError:
                    pass
                raise
            span.set("ops", len(compiled))
            return path

    def _write_shard(self, path: str, arrays: Dict[str, np.ndarray]) -> None:
        fd, tmp = tempfile.mkstemp(dir=self.root, suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as fh:
                # Uncompressed: members are raw .npy images, so lazy
                # reads are straight byte copies (mmap-friendly layout).
                np.savez(fh, **arrays)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise

    def get_or_compile(
        self, topology: Topology, algorithm: str, builder=None
    ) -> CompiledSchedule:
        """Load the artifact, or build + compile + persist it on a miss.

        ``builder`` maps ``(algorithm, topology) -> Schedule``; without
        one the miss compiles through
        :func:`repro.collectives.compile_algorithm`.
        """
        compiled = self.get(topology, algorithm)
        if compiled is not None:
            return compiled
        if builder is None:
            from ..collectives import compile_algorithm

            compiled = compile_algorithm(algorithm, topology)
        else:
            compiled = compile_schedule(builder(algorithm, topology))
        self.put(compiled)
        return compiled


class _ShardError(Exception):
    """Internal: a sharded artifact failed validation (reason carried)."""

    def __init__(self, reason: str) -> None:
        super().__init__(reason)
        self.reason = reason
