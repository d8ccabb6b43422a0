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

The Θ(n²)-op baselines (ring, 2D-Ring, hierarchical, double binary
tree) build integer op tables instead of ``CommOp`` lists
(:meth:`Schedule.from_columns`); their ``ops`` exist only once read.
"""

from __future__ import annotations

import enum
import math
from collections import defaultdict
from dataclasses import dataclass
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


#: Kind codes of a builder's op table (:meth:`Schedule.from_columns`).
OP_KINDS = (OpKind.REDUCE, OpKind.GATHER)


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


def _op_order(op: CommOp) -> Tuple[int, int, int, Fraction]:
    return op.step, op.src, op.dst, op.chunk.lo


class Schedule:
    """A complete all-reduce schedule over a topology.

    It comes in two forms with one behaviour.
    ``Schedule(topology, ops, algorithm, metadata)`` holds the given
    :class:`CommOp` list, sorted by ``(step, src, dst, chunk.lo)``.
    :meth:`from_columns` holds an array-native builder's integer op
    table instead: :meth:`op_columns`, :meth:`route_table`,
    :attr:`num_steps`, :attr:`granularity` and :attr:`num_ops` read the
    table, and the ``ops`` list is built from it on first read (by
    ``validate``, trace op tags, ``ni.machine``) in the same order and
    with the same field values, one :class:`ChunkRange` per distinct
    chunk.  Compiling a column-backed schedule creates no ``CommOp``.
    """

    def __init__(
        self,
        topology: Topology,
        ops: Iterable[CommOp],
        algorithm: str,
        metadata: Optional[Dict[str, object]] = None,
    ) -> None:
        self.topology = topology
        self.algorithm = algorithm
        self.metadata = {} if metadata is None else metadata
        self._ops: Optional[List[CommOp]] = sorted(ops, key=_op_order)
        self._table: Optional[np.ndarray] = None

    @classmethod
    def from_columns(
        cls,
        topology: Topology,
        table: np.ndarray,
        granularity: int,
        algorithm: str,
        metadata: Dict[str, object],
    ) -> "Schedule":
        """A column-backed schedule from a builder's ``(7, ops)`` table.

        The table's rows are ``src, dst, step, kind, flow, lo, hi``:
        each op's endpoints, 1-based step, kind (an index into
        :data:`OP_KINDS`), flow and chunk unit span ``[lo, hi)`` at
        ``granularity`` units.  Ops may
        come in any order: a stable sort on ``(step, src, dst, lo)``
        puts them in ``ops`` order, and the granularity is reduced to
        the smallest one that aligns every span.
        """
        table = np.asarray(table, dtype=np.int64)
        srcs, dsts, steps, _, _, lo, hi = table
        if len(steps) and (min(srcs.min(), dsts.min(), lo.min()) < 0
                           or steps.min() < 1 or (srcs == dsts).any()
                           or (lo >= hi).any() or hi.max() > granularity):
            raise ValueError(
                "invalid op table for %r: negative ids, self-sends, steps "
                "below 1, or spans empty or outside [0, %d]"
                % (algorithm, granularity)
            )
        width = int(max(srcs.max(), dsts.max())) + 1 if len(steps) else 1
        last = int(steps.max()) if len(steps) else 0
        if (last + 1) * width * width * (granularity + 1) >= 2 ** 63:
            raise ValueError(
                "op table for %r overflows the int64 (step, src, dst, lo) "
                "sort key" % algorithm
            )
        # One packed key sorts ~15x faster than a four-key lexsort.
        table = table[:, np.argsort(
            ((steps * width + srcs) * width + dsts) * (granularity + 1) + lo,
            kind="stable",
        )]
        common = math.gcd(granularity, int(np.gcd.reduce(table[5:], axis=None)))
        table[5:] //= common
        schedule = cls.__new__(cls)
        schedule.topology = topology
        schedule.algorithm = algorithm
        schedule.metadata = metadata
        schedule._ops = None
        schedule._table = table
        schedule._granularity = granularity // common
        return schedule

    @property
    def ops(self) -> List[CommOp]:
        """The ops in ``(step, src, dst, chunk.lo)`` order.

        A column-backed schedule builds them here on first read.
        """
        ops = self._ops
        if ops is None:
            cols = self.op_columns()
            grain = cols.granularity
            chunks = [
                ChunkRange(Fraction(lo, grain), Fraction(hi, grain))
                for lo, hi in zip(cols.unit_lo.tolist(), cols.unit_hi.tolist())
            ]
            srcs, dsts, steps, kinds, flows, _, _ = self._table.tolist()
            ops = self._ops = list(map(
                CommOp,
                map(OP_KINDS.__getitem__, kinds),
                srcs,
                dsts,
                map(chunks.__getitem__, cols.chunk.tolist()),
                steps,
                flows,
            ))
        return ops

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.topology, self.ops, self.algorithm, self.metadata) == (
            other.topology, other.ops, other.algorithm, other.metadata
        )

    def __repr__(self) -> str:
        return "Schedule(%r on %s, %d ops)" % (
            self.algorithm, self.topology.name, self.num_ops
        )

    # -- shape queries --------------------------------------------------------

    @property
    def num_ops(self) -> int:
        if self._table is not None:
            return self._table.shape[1]
        return len(self._ops)

    @property
    def num_steps(self) -> int:
        if self._table is not None:
            return int(self._table[2, -1]) if self.num_ops else 0
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
        if self._table is not None:
            srcs, dsts, steps, _, _, lo, hi = self._table
            grain = self._granularity
            # Distinct (lo, hi) spans, packed below (grain + 1) ** 2.
            self._check_key_domain(grain, (grain + 1) ** 2)
            spans, chunk = np.unique(lo * (grain + 1) + hi, return_inverse=True)
            unit_lo, unit_hi = np.divmod(spans, grain + 1)
        else:
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
            self._check_key_domain(grain)
            unit_lo = np.asarray(
                [ln * (grain // ld) for ln, ld, _, _ in bounds], dtype=np.int64
            )
            unit_hi = np.asarray(
                [hn * (grain // hd) for _, _, hn, hd in bounds], dtype=np.int64
            )
            srcs = _int_column(map(attrgetter("src"), ops), count)
            dsts = _int_column(map(attrgetter("dst"), ops), count)
            steps = _int_column(map(attrgetter("step"), ops), count)
        span = unit_hi - unit_lo
        common = np.gcd(span, grain)
        cached = OpColumns(
            srcs=srcs,
            dsts=dsts,
            steps=steps,
            chunk=chunk,
            granularity=grain,
            unit_lo=unit_lo,
            unit_hi=unit_hi,
            frac_num=span // common,
            frac_den=grain // common,
        )
        self.__dict__["_op_columns"] = cached
        return cached

    def _check_key_domain(self, grain: int, packed: int = 0) -> None:
        if max(self.topology.num_nodes * grain, packed) >= UNIT_KEY_LIMIT:
            raise ValueError(
                "schedule %r on %s: %d nodes x granularity %d overflows "
                "the int64 (node, unit) key domain"
                % (self.algorithm, self.topology.name,
                   self.topology.num_nodes, grain)
            )

    def route_table(self) -> Tuple[List[List[LinkKey]], np.ndarray]:
        """``(routes, index)``: distinct routes and each op's entry.

        ``routes`` holds one list per distinct ``(src, dst)`` pair of the
        topology-routed ops, plus each pre-allocated route, in order of
        first use; ``topology.route`` runs once per pair.  ``index[i]``
        is op ``i``'s position in ``routes``.  Without pre-allocated
        routes (every column-backed schedule) the pairs are found with
        numpy on :meth:`op_columns`.
        """
        cached = self.__dict__.get("_route_table")
        if cached is not None:
            return cached
        route = self.topology.route
        if self._table is not None or all(op.route is None for op in self.ops):
            cols = self.op_columns()
            width = int(cols.dsts.max()) + 1 if len(cols.dsts) else 1
            pairs, first, inverse = np.unique(
                cols.srcs * width + cols.dsts,
                return_index=True, return_inverse=True,
            )
            by_use = np.argsort(first)
            rank = np.empty(len(by_use), dtype=np.intp)
            rank[by_use] = np.arange(len(by_use))
            routes = [route(pair // width, pair % width)
                      for pair in pairs[by_use].tolist()]
            cached = (routes, rank[inverse])
        else:
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
