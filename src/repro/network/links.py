"""Flat-array inputs and outputs shared by every simulation engine.

The event and scalar lockstep engines
(:mod:`repro.network.lockstep_engine`) and the vectorized engine
(:mod:`repro.network.lockstep_vec`) all need the same per-link data —
bandwidth, latency, channel capacity — in a form cheaper than tuple-keyed
dictionary lookups: :class:`LinkTable`.  Topologies are immutable once
built, so :func:`link_table` memoizes the snapshot on the topology
instance.

The scalar engines also share the dependents graph of a dependency CSR
(:func:`dep_structure`), and every engine reports per-message timings
through one list-compatible view over its arrays (:class:`LazyTimings`).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..topology.base import LinkKey, Topology

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids an import cycle
    from .simulator import MessageTiming


class LinkTable:
    """Integer-indexed snapshot of a topology's links.

    Maps every :data:`LinkKey` to a dense id so hot loops can use list
    indexing instead of tuple-keyed dictionary lookups.  The scalar
    engines index the plain-list columns (Python ``float``/``int``
    elements keep scalar arithmetic fast); the vectorized engine gathers
    from the ndarray promotions returned by :meth:`arrays`, built lazily
    so topologies used only by scalar engines never pay for the copy.
    """

    __slots__ = ("keys", "id_of", "bandwidth", "latency", "capacity", "_arrays")

    def __init__(self, topology: Topology) -> None:
        links = topology.links
        self.keys: List[LinkKey] = list(links)
        self.id_of: Dict[LinkKey, int] = {
            key: i for i, key in enumerate(self.keys)
        }
        specs = [links[key] for key in self.keys]
        self.bandwidth: List[float] = [spec.bandwidth for spec in specs]
        self.latency: List[float] = [spec.latency for spec in specs]
        self.capacity: List[int] = [spec.capacity for spec in specs]
        self._arrays: Optional[Tuple[object, object, object]] = None

    def arrays(self):
        """``(bandwidth, latency, capacity)`` as float64/float64/int64 ndarrays.

        Conversion from the Python-float columns is exact (the columns
        are already binary64 values), so engines gathering from these
        arrays see bit-identical link parameters.
        """
        if self._arrays is None:
            self._arrays = (
                np.asarray(self.bandwidth, dtype=np.float64),
                np.asarray(self.latency, dtype=np.float64),
                np.asarray(self.capacity, dtype=np.int64),
            )
        return self._arrays


def link_table(topology: Topology) -> LinkTable:
    """The memoized :class:`LinkTable` of ``topology``."""
    table = topology.__dict__.get("_link_table")
    if table is None:
        table = topology.__dict__["_link_table"] = LinkTable(topology)
    return table


#: ``(dependents_off, dependents_val, dep_counts)`` — CSR adjacency of
#: "who waits on message i" plus the per-message unresolved-dependency
#: counts, as int64 arrays.  See :func:`dep_structure`.
DepStructure = Tuple[np.ndarray, np.ndarray, np.ndarray]


def dep_structure(dep_off: Sequence[int], dep_val: Sequence[int]) -> DepStructure:
    """Dependents-CSR + dependency counts for a CSR dependency list.

    ``dependents_val[dependents_off[i]:dependents_off[i+1]]`` lists the
    messages waiting on message ``i``, in message-index order — the order
    the event engine wakes them in.  Everything here depends only on the
    lowering, not the payload, so the compiled artifact path memoizes the
    triple across simulations (see
    :meth:`repro.collectives.compiled.CompiledSchedule.simulate`).  The
    counts are never mutated by the engines; they copy them per run.

    Built with array ops: a stable sort of the dependency values keeps
    each dependency's waiters in message-index order (a repeated
    dependency keeps both entries), so the triple ``==`` the seed's
    per-entry loop (``bench/reference.py:reference_dep_structure``).
    All three are int64 arrays, the form the C kernel reads; 8 bytes an
    entry is also less than a list's pointer plus its ``int``.
    """
    off = np.asarray(dep_off, dtype=np.int64)
    val = np.asarray(dep_val, dtype=np.int64)
    n = len(off) - 1
    counts = np.diff(off)
    dd_off = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(val, minlength=n), out=dd_off[1:])
    owners = np.repeat(np.arange(n, dtype=np.int64), counts)
    return dd_off, owners[np.argsort(val, kind="stable")], counts


class LazyTimings:
    """List-compatible view over the engines' parallel timing arrays.

    Materializing one :class:`MessageTiming` per message costs seconds at
    million-message scale and most callers (sweeps, benchmarks) only read
    ``finish_time`` — so the arrays are kept as-is and the object list is
    built on first access, then cached.  Equality, iteration, indexing,
    and ``len`` all behave like a plain list of timings.  The columns may
    be lists or float64 arrays; every float read out is a Python
    ``float``.
    """

    __slots__ = ("_ready", "_inject", "_deliver", "_ideal", "_list")

    def __init__(self, ready, inject, deliver, ideal) -> None:
        self._ready = ready
        self._inject = inject
        self._deliver = deliver
        self._ideal = ideal
        self._list: Optional[List["MessageTiming"]] = None

    def _materialize(self) -> List["MessageTiming"]:
        result = self._list
        if result is None:
            from .simulator import MessageTiming

            columns = (
                column.tolist() if isinstance(column, np.ndarray) else column
                for column in (
                    self._ready, self._inject, self._deliver, self._ideal
                )
            )
            result = self._list = [
                MessageTiming(r, i, d, l) for r, i, d, l in zip(*columns)
            ]
        return result

    def __len__(self) -> int:
        return len(self._ready)

    def queue_delays(self) -> List[float]:
        """Per-message ``deliver - ideal``, without the objects.

        The same IEEE subtract per message, as one float64 pass.
        """
        deliver = np.asarray(self._deliver, dtype=np.float64)
        ideal = np.asarray(self._ideal, dtype=np.float64)
        return (deliver - ideal).tolist()

    def max_queue_delay(self) -> float:
        """``max(t.queue_delay for t in self)`` as one float64 pass.

        The same IEEE subtract per message, then a max; ``0.0`` for no
        messages.  Returns a Python ``float`` — cache entries and serve
        bodies compare by ``repr``.
        """
        if not len(self._deliver):
            return 0.0
        deliver = np.asarray(self._deliver, dtype=np.float64)
        ideal = np.asarray(self._ideal, dtype=np.float64)
        return float(np.max(deliver - ideal))

    def __getitem__(self, index):
        return self._materialize()[index]

    def __iter__(self):
        return iter(self._materialize())

    def __eq__(self, other) -> bool:
        if isinstance(other, LazyTimings):
            other = other._materialize()
        if isinstance(other, list):
            return self._materialize() == other
        return NotImplemented

    def __ne__(self, other) -> bool:
        result = self.__eq__(other)
        if result is NotImplemented:
            return result
        return not result

    def __repr__(self) -> str:
        return repr(self._materialize())
