"""Intermediate representation for all-reduce communication schedules.

Every all-reduce algorithm in this package (ring, double binary tree,
2D-ring, halving-doubling/HDRM, MultiTree) lowers to the same IR: a list of
:class:`CommOp` records.  Each op moves an exact sub-range of the gradient
vector between two nodes at a given *time step*, in one of two semantic
modes mirroring the schedule-table opcodes of Fig. 5:

* ``REDUCE`` — the payload is a partial sum that the destination aggregates
  (reduce-scatter direction, leaves toward roots), and
* ``GATHER`` — the payload is a fully-reduced value the destination copies
  (all-gather/broadcast direction, roots toward leaves).

Data ranges are exact :class:`fractions.Fraction` intervals over the unit
gradient vector so schedule algebra (volume accounting, overlap-based
dependencies, correctness execution) is exact.  Bulk derivations read
them once, as integer unit spans (:meth:`Schedule.op_columns`), rather
than doing ``Fraction`` arithmetic per op.
"""

from __future__ import annotations

import enum
import math
from collections import defaultdict
from dataclasses import dataclass, field
from fractions import Fraction
from operator import attrgetter
from typing import Dict, Iterable, List, NamedTuple, Optional, Tuple

import numpy as np

from ..topology.base import LinkKey, Topology

#: Bound on ``num_nodes * granularity``: packed ``(node, unit)`` keys
#: ``node * granularity + unit`` must stay inside int64.
UNIT_KEY_LIMIT = 2 ** 62


class OpKind(enum.Enum):
    REDUCE = "reduce"
    GATHER = "gather"


@dataclass(frozen=True)
class ChunkRange:
    """A half-open sub-interval ``[lo, hi)`` of the unit gradient vector."""

    lo: Fraction
    hi: Fraction

    def __post_init__(self) -> None:
        if not (0 <= self.lo < self.hi <= 1):
            raise ValueError("invalid chunk range [%s, %s)" % (self.lo, self.hi))

    @property
    def fraction(self) -> Fraction:
        return self.hi - self.lo

    def bytes_of(self, total_bytes: float) -> float:
        # float(Fraction) is exact-to-nearest and the range is immutable,
        # so memoize it: the Fraction subtraction/conversion dominates the
        # per-op cost of volume accounting and schedule tables otherwise.
        frac = self.__dict__.get("_float_fraction")
        if frac is None:
            frac = float(self.fraction)
            object.__setattr__(self, "_float_fraction", frac)
        return frac * total_bytes

    def overlaps(self, other: "ChunkRange") -> bool:
        return self.lo < other.hi and other.lo < self.hi

    def contains(self, other: "ChunkRange") -> bool:
        return self.lo <= other.lo and other.hi <= self.hi

    def unit_span(self, granularity: int) -> Tuple[int, int]:
        """Integer unit indices ``[start, stop)`` at the given granularity."""
        start = self.lo * granularity
        stop = self.hi * granularity
        if start.denominator != 1 or stop.denominator != 1:
            raise ValueError(
                "range [%s, %s) not aligned to granularity %d"
                % (self.lo, self.hi, granularity)
            )
        return int(start), int(stop)

    @staticmethod
    def nth_of(index: int, count: int) -> "ChunkRange":
        """The ``index``-th of ``count`` equal chunks."""
        return ChunkRange(Fraction(index, count), Fraction(index + 1, count))


@dataclass(frozen=True, slots=True)
class CommOp:
    """One scheduled point-to-point transfer.

    Declared with ``slots=True``: large schedules hold millions of ops, so
    the per-instance ``__dict__`` is measurable overhead (guarded by a
    bit-identical-results test in ``tests/test_slots.py``).  ChunkRange
    deliberately keeps its ``__dict__`` — it memoizes ``_float_fraction``
    there (see :meth:`ChunkRange.bytes_of`).
    """

    kind: OpKind
    src: int
    dst: int
    chunk: ChunkRange
    step: int
    flow: int = 0
    #: Pre-allocated route (MultiTree on indirect networks allocates switch
    #: capacity during construction); ``None`` means topology routing.
    route: Optional[Tuple[LinkKey, ...]] = None

    def __post_init__(self) -> None:
        if self.src == self.dst:
            raise ValueError("op sends to itself at node %d" % self.src)
        if self.step < 1:
            raise ValueError("steps are 1-based, got %d" % self.step)


class OpColumns(NamedTuple):
    """Integer columns of a schedule's ops (see :meth:`Schedule.op_columns`).

    Per-op columns are aligned with ``Schedule.ops``; ``chunk`` indexes
    the per-chunk tables, one row per distinct :class:`ChunkRange` object.
    """

    srcs: np.ndarray
    dsts: np.ndarray
    steps: np.ndarray
    #: Per-op index into the per-chunk tables below.
    chunk: np.ndarray
    #: Smallest unit count aligning every range: lcm of the denominators.
    granularity: int
    #: Per-chunk unit span ``[unit_lo, unit_hi)`` at ``granularity``.
    unit_lo: np.ndarray
    unit_hi: np.ndarray
    #: Per-chunk size ``frac_num / frac_den`` in lowest terms.
    frac_num: np.ndarray
    frac_den: np.ndarray


def _int_column(values, count: int) -> np.ndarray:
    return np.fromiter(values, dtype=np.int64, count=count)


@dataclass
class Schedule:
    """A complete all-reduce schedule over a topology."""

    topology: Topology
    ops: List[CommOp]
    algorithm: str
    metadata: Dict[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.ops = sorted(self.ops, key=lambda op: (op.step, op.src, op.dst, op.chunk.lo))

    # -- shape queries --------------------------------------------------------

    @property
    def num_steps(self) -> int:
        return max((op.step for op in self.ops), default=0)

    @property
    def granularity(self) -> int:
        """Smallest unit count that aligns every op's range to integers."""
        return self.op_columns().granularity

    def ops_at_step(self, step: int) -> List[CommOp]:
        return [op for op in self.ops if op.step == step]

    def steps(self) -> Iterable[Tuple[int, List[CommOp]]]:
        by_step: Dict[int, List[CommOp]] = defaultdict(list)
        for op in self.ops:
            by_step[op.step].append(op)
        for step in sorted(by_step):
            yield step, by_step[step]

    def ops_from(self, node: int) -> List[CommOp]:
        return [op for op in self.ops if op.src == node]

    def ops_to(self, node: int) -> List[CommOp]:
        return [op for op in self.ops if op.dst == node]

    # -- volume accounting ------------------------------------------------------

    def bytes_sent_per_node(self, data_bytes: float) -> Dict[int, float]:
        sent: Dict[int, float] = defaultdict(float)
        for op in self.ops:
            sent[op.src] += op.chunk.bytes_of(data_bytes)
        return dict(sent)

    def total_data_fraction(self) -> Fraction:
        """Total transferred data as a multiple of the gradient size."""
        return sum((op.chunk.fraction for op in self.ops), Fraction(0))

    def route_of(self, op: CommOp) -> List[LinkKey]:
        if op.route is not None:
            return list(op.route)
        return self.topology.route(op.src, op.dst)

    # -- memoized bulk views -------------------------------------------------
    #
    # Ops and topology routing are immutable after construction, so these
    # derivations are computed once and cached on the schedule.  Callers
    # must not mutate the results.

    def op_columns(self) -> OpColumns:
        """The ops as integer columns, read in one pass and memoized.

        Each op's endpoints and step, and each distinct chunk's
        numerators and denominators, are read once; unit spans and
        reduced chunk sizes then follow by integer arithmetic.  Raises
        ``ValueError`` when ``num_nodes * granularity`` reaches
        :data:`UNIT_KEY_LIMIT`, the packed ``(node, unit)`` key domain.
        """
        cached = self.__dict__.get("_op_columns")
        if cached is not None:
            return cached
        ops = self.ops
        count = len(ops)
        chunk_of = list(map(attrgetter("chunk"), ops))
        # Builders share ChunkRange objects between ops, so the
        # per-chunk Fraction reads run once per distinct object.
        ids = _int_column(map(id, chunk_of), count)
        _, first, chunk = np.unique(ids, return_index=True, return_inverse=True)
        chunks = [chunk_of[i] for i in first.tolist()]
        bounds = [(c.lo.numerator, c.lo.denominator,
                   c.hi.numerator, c.hi.denominator) for c in chunks]
        grain = math.lcm(*(b[1] for b in bounds), *(b[3] for b in bounds))
        if self.topology.num_nodes * grain >= UNIT_KEY_LIMIT:
            raise ValueError(
                "schedule %r on %s: %d nodes x granularity %d overflows "
                "the int64 (node, unit) key domain"
                % (self.algorithm, self.topology.name,
                   self.topology.num_nodes, grain)
            )
        unit_lo = np.asarray(
            [ln * (grain // ld) for ln, ld, _, _ in bounds], dtype=np.int64
        )
        unit_hi = np.asarray(
            [hn * (grain // hd) for _, _, hn, hd in bounds], dtype=np.int64
        )
        span = unit_hi - unit_lo
        common = np.gcd(span, grain)
        cached = OpColumns(
            srcs=_int_column(map(attrgetter("src"), ops), count),
            dsts=_int_column(map(attrgetter("dst"), ops), count),
            steps=_int_column(map(attrgetter("step"), ops), count),
            chunk=chunk,
            granularity=grain,
            unit_lo=unit_lo,
            unit_hi=unit_hi,
            frac_num=span // common,
            frac_den=grain // common,
        )
        self.__dict__["_op_columns"] = cached
        return cached

    def route_table(self) -> Tuple[List[List[LinkKey]], np.ndarray]:
        """``(routes, index)``: distinct routes and each op's entry.

        ``routes`` holds one list per distinct ``(src, dst)`` pair of the
        topology-routed ops, plus each pre-allocated route, in order of
        first use; ``topology.route`` runs once per pair.  ``index[i]``
        is op ``i``'s position in ``routes``.
        """
        cached = self.__dict__.get("_route_table")
        if cached is None:
            route = self.topology.route
            routes: List[List[LinkKey]] = []
            by_pair: Dict[Tuple[int, int], int] = {}
            index: List[int] = []
            for op in self.ops:
                if op.route is not None:
                    index.append(len(routes))
                    routes.append(list(op.route))
                    continue
                pair = (op.src, op.dst)
                entry = by_pair.get(pair)
                if entry is None:
                    entry = by_pair[pair] = len(routes)
                    routes.append(route(op.src, op.dst))
                index.append(entry)
            cached = (routes, np.asarray(index, dtype=np.intp))
            self.__dict__["_route_table"] = cached
        return cached

    # -- structural checks --------------------------------------------------------

    def check_endpoints(self) -> None:
        """Every op endpoint must be a compute node of the topology."""
        n = self.topology.num_nodes
        for op in self.ops:
            if not (0 <= op.src < n and 0 <= op.dst < n):
                raise ValueError("op endpoint outside node range: %s" % (op,))

    def per_step_link_loads(self) -> Dict[int, Dict[LinkKey, int]]:
        """How many ops use each link in each step (contention witness)."""
        loads: Dict[int, Dict[LinkKey, int]] = defaultdict(lambda: defaultdict(int))
        for op in self.ops:
            for key in self.route_of(op):
                loads[op.step][key] += 1
        return {step: dict(links) for step, links in loads.items()}

    def max_step_link_overlap(self) -> int:
        """Max ops sharing one link within a step, normalized by capacity.

        1 means contention-free under lockstep execution (every link carries
        at most ``capacity`` concurrent transfers per step).
        """
        worst = 0
        for step, links in self.per_step_link_loads().items():
            for key, count in links.items():
                capacity = self.topology.link(*key).capacity
                worst = max(worst, -(-count // capacity))
        return worst
