"""Vectorized lockstep engine: numpy array ops over the CSR arrays.

The scalar engine in :mod:`repro.network.lockstep_engine` already walks
lockstep-gated message sets step by step over flat CSR arrays, but still
visits every message (and every hop) in a Python loop.  This engine
resolves each step's per-link FIFO pass with array operations instead:
one numpy call sequence per *hop position* per step, vectorized over the
step's messages — and, in batched mode, over a trailing **size axis**, so
one compiled schedule is evaluated for an entire ``LO..HI`` doubling
range of payload sizes in a single pass (:func:`run_batch`).

**Exactness contract.**  The scalar lockstep engine is the oracle: when
this engine accepts a run, every computed time is produced by the same
sequence of IEEE-754 operations and the results are exactly ``==`` —
bit-identical, not merely close.  That is possible because of three
structural facts, each *verified* (not assumed) per run:

* **Link-disjoint steps.**  When every link carries at most one message
  per step, the per-link FIFO state (``avail``/``busy``) has disjoint
  read/write sets within the step, so the scalar engine's within-step
  processing order cannot influence any computed value and the hop pass
  vectorizes safely.  The check is payload-independent, so the compiled
  path pays it once per schedule (memoized in the :class:`VecPlan`).
* **Clean gate boundaries.**  The scalar engine orders each step by the
  event heap's ``(ready, push_seq)`` key and declines when a step's
  earliest message sorts before the previous step's latest.  This engine
  checks ``min(ready)`` of each step against ``max(ready)`` of the
  previous one — per size column — and conservatively declines ties too
  (the scalar engine would consult push sequence numbers; replaying
  those is exactly the per-message loop being eliminated).
* **Exact wire totals.**  ``total_wire_bytes`` is a float accumulation
  in processing order.  Both stock flow-control models put an integral
  number of bytes on the wire, and summing nonnegative integers in
  float64 is order-independent while the total stays below 2**53 — so
  the engine computes the exact integer total and declines sizes where
  that argument does not hold (non-integral wire sizes, overflow).

When any check fails the engine declines that size: :func:`run_batch`
runs it on the scalar ladder instead and records the decline with its
reason (an ``engine.fallback`` event, folded into
``sim.fallbacks{engine="lockstep-vec",reason=...}``); results
are never silently approximate.  Like the scalar lockstep engine, this
one runs only on compiled schedules; message lists
(:class:`~repro.network.simulator.Message`) always run on the event
engine, the array heap.  Multi-channel links (``capacity > 1``) also
decline: their argmin channel selection is inherently order-dependent,
and the scalar ladder handles them exactly.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from .. import obs
from .links import LinkTable, link_table
from .lockstep_engine import LazyTimings
from .simulator import SimulationResult

#: Largest float64 integer range where ``a + b`` is exact for nonnegative
#: integer-valued operands — the bound for order-independent wire totals.
_MAX_EXACT = float(2 ** 53)


def _gather_segments(
    off: np.ndarray, val: np.ndarray, idx: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Concatenate CSR segments ``val[off[i]:off[i+1]]`` for ``i in idx``.

    Returns ``(owner, values)`` where ``owner[k]`` is the position in
    ``idx`` whose segment produced ``values[k]``; segment order follows
    ``idx`` and order within each segment is preserved.
    """
    starts = off[idx]
    counts = off[idx + 1] - starts
    total = int(counts.sum())
    if total == 0:
        return (np.empty(0, dtype=np.intp), np.empty(0, dtype=val.dtype))
    owner = np.repeat(np.arange(len(idx), dtype=np.intp), counts)
    ends = np.cumsum(counts)
    within = np.arange(total, dtype=np.intp) - np.repeat(ends - counts, counts)
    return owner, val[np.repeat(starts, counts) + within]


class _StepPlan:
    """One lockstep group, pre-resolved to hop-position gather indices."""

    __slots__ = ("idx", "hops", "dep_src_pos", "dep_dst")

    def __init__(self, idx, hops, dep_src_pos, dep_dst) -> None:
        self.idx = idx            # (m,) message indices of the step
        self.hops = hops          # [(sel, li)] per hop position
        self.dep_src_pos = dep_src_pos  # positions into idx, per dep edge
        self.dep_dst = dep_dst    # waiting message index, per dep edge


class VecPlan:
    """Payload-independent vectorization plan for one grouped message set.

    Built once from the CSR arrays (and memoized by the compiled-schedule
    path); ``ok`` is False when some step is not link-disjoint or touches
    a multi-channel link, in which case the vectorized engine must
    decline the whole run.
    """

    __slots__ = ("ok", "reason", "steps", "num_messages", "num_links",
                 "route_len")

    def __init__(
        self,
        groups: Sequence[Sequence[int]],
        route_off: np.ndarray,
        route_val: np.ndarray,
        dd_off: np.ndarray,
        dd_val: np.ndarray,
        capacity: np.ndarray,
    ) -> None:
        n = len(route_off) - 1
        self.num_messages = n
        self.num_links = len(capacity)
        self.route_len = route_off[1:] - route_off[:-1]
        self.steps: List[_StepPlan] = []
        self.ok = True
        #: The validation gate that failed when ``ok`` is False — the
        #: structured fallback reason reported instead of a bare count.
        self.reason: Optional[str] = None
        for group in groups:
            if not len(group):
                continue
            idx = np.asarray(group, dtype=np.intp)
            rlen = self.route_len[idx]
            starts = route_off[idx]
            hops = []
            seen = 0
            for h in range(int(rlen.max()) if len(rlen) else 0):
                sel = np.flatnonzero(rlen > h)
                li = route_val[starts[sel] + h]
                hops.append((sel, li))
                seen += len(li)
            # Link-disjointness across the whole step (all hop positions
            # of all messages): any repeated dense link id means FIFO
            # state interacts within the step and order matters.
            if hops:
                cat = np.concatenate([li for _sel, li in hops])
                if len(np.unique(cat)) != seen:
                    self.ok = False
                    self.reason = "link-disjointness"
                    return
                if (capacity[cat] != 1).any():
                    self.ok = False  # argmin channel pools: scalar only
                    self.reason = "multi-channel"
                    return
            dep_src_pos, dep_dst = _gather_segments(dd_off, dd_val, idx)
            self.steps.append(_StepPlan(idx, hops, dep_src_pos, dep_dst))

    def class_hops(self, frac_idx: np.ndarray, num_classes: int) -> np.ndarray:
        """Total hop count per wire class."""
        if getattr(frac_idx, "strides", None) == (0,):
            out = np.zeros(num_classes, dtype=np.float64)
            out[int(frac_idx[0])] = float(np.sum(self.route_len))
            return out
        return np.bincount(
            frac_idx, weights=self.route_len, minlength=num_classes
        )


def build_plan(
    groups: Sequence[Sequence[int]],
    route_off: Sequence[int],
    route_val: Sequence[int],
    dep_struct,
    table: LinkTable,
) -> VecPlan:
    """Build a :class:`VecPlan` from the scalar engines' CSR inputs."""
    dd_off, dd_val, _counts = dep_struct
    _bw, _lat, capacity = table.arrays()
    return VecPlan(
        groups,
        np.asarray(route_off, dtype=np.intp),
        np.asarray(route_val, dtype=np.intp),
        np.asarray(dd_off, dtype=np.intp),
        np.asarray(dd_val, dtype=np.intp),
        capacity,
    )


def run_plan(
    plan: VecPlan,
    table: LinkTable,
    wire_table: np.ndarray,
    wire_idx: np.ndarray,
    ready: np.ndarray,
    overhead: np.ndarray,
    keep_timings: bool,
):
    """The vectorized step loop over a prepared plan.

    ``wire_table`` is the ``(num_wire_classes, num_sizes)`` float64 table
    of on-wire byte counts and ``wire_idx`` maps each message to its row
    (messages sharing a chunk fraction share a row).  ``ready`` is the
    ``(num_messages, num_sizes)`` gate matrix — mutated in place into the
    final per-message ready times.  ``overhead`` is the per-message
    receive overhead.

    Returns ``(valid, finish, busy, qmax, timings)`` where ``valid`` is
    the per-size acceptance mask (sizes failing a gate-boundary check
    carry garbage in the other outputs and must fall back to the scalar
    engine), ``busy`` is the ``(num_links, num_sizes)`` per-link busy
    matrix, ``qmax`` the per-size max queueing delay, and ``timings`` the
    ``(inject, deliver, ideal)`` matrices when ``keep_timings`` else
    ``None``.
    """
    n, num_sizes = ready.shape
    bw, lat, _cap = table.arrays()
    avail = np.zeros((plan.num_links, num_sizes), dtype=np.float64)
    busy = np.zeros((plan.num_links, num_sizes), dtype=np.float64)
    finish = np.zeros(num_sizes, dtype=np.float64)
    qmax = np.full(num_sizes, -np.inf, dtype=np.float64)
    valid = np.ones(num_sizes, dtype=bool)
    prev_max = np.full(num_sizes, -np.inf, dtype=np.float64)
    if keep_timings:
        inject_m = np.zeros((n, num_sizes), dtype=np.float64)
        deliver_m = np.zeros((n, num_sizes), dtype=np.float64)
        ideal_m = np.zeros((n, num_sizes), dtype=np.float64)

    for step in plan.steps:
        idx = step.idx
        rd = ready[idx]
        # Gate-boundary verification, per size: the scalar engine declines
        # when a step's earliest (ready, push_seq) sorts at or before the
        # previous step's latest; without push sequences, ties decline too.
        valid &= rd.min(axis=0) > prev_max
        prev_max = rd.max(axis=0)

        m = len(idx)
        head = rd.copy()
        inject = rd.copy()          # zero-hop messages inject at ready
        cur_ser = np.zeros((m, num_sizes), dtype=np.float64)
        max_ser = np.zeros((m, num_sizes), dtype=np.float64)
        lat_sum = np.zeros(m, dtype=np.float64)  # payload-independent
        wire_step = wire_table[wire_idx[idx]]
        for h, (sel, li) in enumerate(step.hops):
            ser = wire_step[sel] / bw[li][:, None]
            grant = np.maximum(head[sel], avail[li])
            avail[li] = grant + ser
            busy[li] += ser
            if h == 0:
                inject[sel] = grant
            head[sel] = grant + lat[li][:, None]
            lat_sum[sel] += lat[li]
            max_ser[sel] = np.maximum(max_ser[sel], ser)
            cur_ser[sel] = ser
        deliver = head + cur_ser
        ideal = rd + lat_sum[:, None] + max_ser

        finish = np.maximum(finish, deliver.max(axis=0))
        qmax = np.maximum(qmax, (deliver - ideal).max(axis=0))
        if keep_timings:
            inject_m[idx] = inject
            deliver_m[idx] = deliver
            ideal_m[idx] = ideal
        if len(step.dep_dst):
            wake = deliver[step.dep_src_pos] + overhead[step.dep_dst][:, None]
            np.maximum.at(ready, step.dep_dst, wake)

    timings = (inject_m, deliver_m, ideal_m) if keep_timings else None
    return valid, finish, busy, qmax, timings


class RangePlan:
    """Zero-copy vectorization plan for streaming-compiled schedules.

    A streaming-compiled :class:`CompiledSchedule` stores its ops sorted
    by step in numpy columns, so each lockstep group is a *contiguous
    index range* and every per-step input of the vectorized engine is a
    **view** of the compiled columns — no per-step index/selector/dep
    arrays are materialized, which is what keeps an 8k-node schedule
    (134M ops) inside the scale-out memory envelope where
    :class:`VecPlan`'s gathered arrays alone would cost several GiB.

    Restricted to single-hop routes (direct networks) with dependencies
    that point strictly backward across the step ranges; anything else
    declines with a reason and the caller falls back to the generic
    plan or the scalar ladder, exactly like :class:`VecPlan`.
    """

    __slots__ = ("ok", "reason", "ranges", "num_messages", "num_links",
                 "link_ids", "dep_off", "dep_val")

    def __init__(self, compiled, table: LinkTable) -> None:
        steps = np.asarray(compiled.steps)
        n = len(steps)
        self.num_messages = n
        self.num_links = len(table.keys)
        self.ok = False
        self.reason: Optional[str] = None
        self.ranges: List[Tuple[int, int, int]] = []
        self.link_ids = None
        self.dep_off = None
        self.dep_val = None
        try:
            remap = np.asarray(
                [table.id_of[key] for key in compiled.links], dtype=np.intp
            )
        except KeyError:
            self.reason = "unknown-link"
            return
        link_ids = remap[np.asarray(compiled.route_val)]
        dep_off = np.asarray(compiled.dep_off)
        dep_val = np.asarray(compiled.dep_val)
        _bw, _lat, capacity = table.arrays()
        # Contiguous step ranges over the sorted steps column.
        bounds = np.searchsorted(
            steps, np.arange(1, compiled.num_steps + 2), side="left"
        )
        for step in range(1, compiled.num_steps + 1):
            lo = int(bounds[step - 1])
            hi = int(bounds[step])
            if lo == hi:
                continue
            li = link_ids[lo:hi]
            if len(np.unique(li)) != hi - lo:
                self.reason = "link-disjointness"
                return
            if (capacity[li] != 1).any():
                self.reason = "multi-channel"
                return
            dv = dep_val[dep_off[lo]:dep_off[hi]]
            if len(dv) and int(dv.max()) >= lo:
                # A dependency inside (or ahead of) its own step: the
                # pull-model wake below would read a not-yet-delivered
                # row, so this layout is not range-plannable.
                self.reason = "step-overlap"
                return
            self.ranges.append((step, lo, hi))
        self.link_ids = link_ids
        self.dep_off = dep_off
        self.dep_val = dep_val
        self.ok = True

    def class_hops(self, frac_idx: np.ndarray, num_classes: int) -> np.ndarray:
        """Total hop count per wire class (every route has one hop)."""
        if getattr(frac_idx, "strides", None) == (0,):
            out = np.zeros(num_classes, dtype=np.float64)
            out[int(frac_idx[0])] = float(self.num_messages)
            return out
        return np.bincount(
            frac_idx, minlength=num_classes
        ).astype(np.float64)


def run_range_plan(
    plan: RangePlan,
    table: LinkTable,
    wire_table: np.ndarray,
    wire_idx: np.ndarray,
    ready: np.ndarray,
    overhead: np.ndarray,
    keep_timings: bool,
):
    """:func:`run_plan` over contiguous step ranges, in column views.

    Bit-identical outcomes: the arithmetic per step is the same ops in
    the same order; the only difference is *pull*-model dependency
    wake-up (each step gathers its own deps' delivery times via a
    segmented maximum) instead of run_plan's push-model scatter, which
    computes the identical maxima because every dependency points to a
    strictly earlier range.  With ``keep_timings`` off, one
    ``(num_messages, sizes)`` matrix carries ready-then-delivery values
    in place — the dominant allocation at 8k-node scale.
    """
    n, num_sizes = ready.shape
    bw, lat, _cap = table.arrays()
    avail = np.zeros((plan.num_links, num_sizes), dtype=np.float64)
    busy = np.zeros_like(avail)
    finish = np.zeros(num_sizes, dtype=np.float64)
    qmax = np.full(num_sizes, -np.inf, dtype=np.float64)
    valid = np.ones(num_sizes, dtype=bool)
    prev_max = np.full(num_sizes, -np.inf, dtype=np.float64)
    dep_off = plan.dep_off
    dep_val = plan.dep_val
    link_ids = plan.link_ids
    if keep_timings:
        deliver_all = np.zeros((n, num_sizes), dtype=np.float64)
        inject_m = np.zeros((n, num_sizes), dtype=np.float64)
        ideal_m = np.zeros((n, num_sizes), dtype=np.float64)
    else:
        deliver_all = ready  # rows become delivery times once processed

    for _step, lo, hi in plan.ranges:
        # Dependency wake-up (pull model): row i's ready time is the max
        # of its gate and its deps' delivery times plus overhead.
        d0 = int(dep_off[lo])
        d1 = int(dep_off[hi])
        if d1 > d0:
            seg = dep_off[lo:hi].astype(np.intp) - d0
            counts = np.diff(np.append(seg, d1 - d0))
            gathered = deliver_all[dep_val[d0:d1]]
            has = counts > 0
            red = np.maximum.reduceat(
                gathered, np.minimum(seg, d1 - d0 - 1)
            )
            rows = lo + np.flatnonzero(has)
            wake = red[has] + overhead[lo:hi][has][:, None]
            ready[rows] = np.maximum(ready[rows], wake)
        rd = ready[lo:hi]
        valid &= rd.min(axis=0) > prev_max
        prev_max = rd.max(axis=0)

        li = link_ids[lo:hi]
        ser = wire_table[wire_idx[lo:hi]] / bw[li][:, None]
        grant = np.maximum(rd, avail[li])
        avail[li] = grant + ser
        busy[li] += ser
        head = grant + lat[li][:, None]
        deliver = head + ser
        ideal = rd + lat[li][:, None] + ser
        finish = np.maximum(finish, deliver.max(axis=0))
        qmax = np.maximum(qmax, (deliver - ideal).max(axis=0))
        if keep_timings:
            inject_m[lo:hi] = grant
            deliver_all[lo:hi] = deliver
            ideal_m[lo:hi] = ideal
        else:
            deliver_all[lo:hi] = deliver

    timings = (
        (inject_m, deliver_all, ideal_m) if keep_timings else None
    )
    return valid, finish, busy, qmax, timings


def wire_classes(
    flow_control, payload_table: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """On-wire byte counts for a ``(classes, sizes)`` payload table.

    Returns ``(wire, exact)``: the float64 wire table and a per-size
    boolean mask marking sizes whose wire counts are all integral (the
    precondition of the order-independent total, see module docstring).
    """
    wire_bytes = flow_control.wire_bytes
    classes, num_sizes = payload_table.shape
    wire = np.empty((classes, num_sizes), dtype=np.float64)
    exact = np.ones(num_sizes, dtype=bool)
    for f in range(classes):
        for j in range(num_sizes):
            w = wire_bytes(float(payload_table[f, j]))
            wire[f, j] = w
            if not float(w).is_integer():
                exact[j] = False
    return wire, exact


def exact_wire_totals(
    wire: np.ndarray, exact: np.ndarray, hops_per_class: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Per-size ``total_wire_bytes`` via exact integer arithmetic.

    Sizes whose total reaches 2**53 (where float accumulation order
    would start to matter) are marked inexact; callers fall back.
    """
    classes, num_sizes = wire.shape
    totals = np.zeros(num_sizes, dtype=np.float64)
    ok = exact.copy()
    hops = [int(h) for h in hops_per_class]
    for j in range(num_sizes):
        if not ok[j]:
            continue
        total = 0
        for f in range(classes):
            total += int(wire[f, j]) * hops[f]
        if total >= _MAX_EXACT:
            ok[j] = False
        else:
            totals[j] = float(total)
    return totals, ok


def _column_result(
    table: LinkTable,
    ready: np.ndarray,
    timings,
    finish: np.ndarray,
    busy: np.ndarray,
    totals: np.ndarray,
    j: int,
) -> SimulationResult:
    """Materialize one size column as a scalar-identical result."""
    inject_m, deliver_m, ideal_m = timings
    keys = table.keys
    col = busy[:, j]
    link_busy = {keys[li]: col[li].item() for li in np.flatnonzero(col != 0.0)}
    return SimulationResult(
        finish_time=finish[j].item(),
        timings=LazyTimings(
            ready[:, j].tolist(),
            inject_m[:, j].tolist(),
            deliver_m[:, j].tolist(),
            ideal_m[:, j].tolist(),
        ),
        link_busy=link_busy,
        total_wire_bytes=totals[j].item(),
    )


class BatchPoint:
    """One size's outcome of a batched evaluation."""

    __slots__ = ("data_bytes", "time", "bandwidth", "max_queue_delay",
                 "engine", "reason")

    def __init__(self, data_bytes, time, bandwidth, max_queue_delay, engine,
                 reason=None):
        self.data_bytes = data_bytes
        self.time = time
        self.bandwidth = bandwidth
        self.max_queue_delay = max_queue_delay
        #: ``"lockstep-vec"`` or the scalar engine this size fell back to.
        self.engine = engine
        #: The validation gate that declined this size (``None`` when the
        #: vectorized engine produced the point).
        self.reason = reason


class BatchResult:
    """Outcome of :func:`run_batch`: per-size points plus fallback count."""

    __slots__ = ("sizes", "points", "fallbacks", "results")

    def __init__(self, sizes, points, fallbacks, results=None):
        self.sizes = tuple(sizes)
        self.points = points
        #: Number of sizes that fell back to the scalar lockstep ladder.
        self.fallbacks = fallbacks
        #: Per-size :class:`repro.ni.injector.AllReduceResult` objects
        #: when the batch ran with ``keep_timings`` (else ``None``).
        self.results = results


def run_batch(
    compiled,
    sizes: Sequence[int],
    flow_control=None,
    lockstep: bool = True,
    scheduling_overhead: float = 0.0,
    keep_timings: bool = False,
) -> BatchResult:
    """Evaluate one compiled schedule at every payload size in one pass.

    The batched counterpart of
    :meth:`repro.collectives.compiled.CompiledSchedule.simulate`: the
    step/route/dependency structure is shared across sizes, so the
    vectorized engine carries a trailing size axis through the grant/
    injection/delivery arithmetic instead of re-walking the schedule per
    size.  Sizes the vectorized engine cannot prove exact fall back to
    the scalar engine ladder individually — each :class:`BatchPoint`
    records the engine that produced it, the count lands in
    ``BatchResult.fallbacks`` and the reasoned ``sim.fallbacks``
    metric, and every returned number is bit-identical to a scalar
    ``simulate(size, engine="lockstep")`` call either way.
    """
    with obs.span(
        "sim.batch",
        topology=compiled.topology.name,
        algorithm=getattr(compiled, "algorithm", None),
        sizes=len(tuple(sizes)),
    ) as sim_span:
        result = _run_batch(
            compiled, sizes, flow_control, lockstep, scheduling_overhead,
            keep_timings,
        )
        sim_span.set("fallbacks", result.fallbacks)
        return result


def _run_batch(
    compiled,
    sizes: Sequence[int],
    flow_control,
    lockstep: bool,
    scheduling_overhead: float,
    keep_timings: bool,
) -> BatchResult:
    from ..network.flowcontrol import DEFAULT_FLOW_CONTROL
    from ..ni.injector import AllReduceResult

    if flow_control is None:
        flow_control = DEFAULT_FLOW_CONTROL
    sizes = tuple(sizes)
    if not sizes:
        raise ValueError("run_batch needs at least one payload size")
    if any(size <= 0 for size in sizes):
        raise ValueError("data_bytes must be positive")

    plan = None
    if lockstep:
        plan = _compiled_plan(compiled)
    num_sizes = len(sizes)
    valid = np.zeros(num_sizes, dtype=bool)
    gate_valid = exact_mask = None
    finish = busy = qmax = totals = ready = timings = None
    table = link_table(compiled.topology)

    # Why every size (or some sizes) left the vectorized engine: a
    # whole-batch decline reason, or per-size gate/wire masks below.
    if not lockstep:
        decline_reason: Optional[str] = "not-lockstep-gated"
    elif plan is None:
        decline_reason = "unknown-link"
    elif not plan.ok:
        decline_reason = plan.reason or "plan"
    else:
        decline_reason = None

    if plan is not None and plan.ok:
        frac_uniq, frac_idx = _compiled_wire_classes(compiled)
        sizes_arr = np.asarray(sizes, dtype=np.float64)
        # frac * data_bytes: the same IEEE multiply the scalar path does.
        payload_table = frac_uniq[:, None] * sizes_arr[None, :]
        wire, exact = wire_classes(flow_control, payload_table)
        hops_per_class = plan.class_hops(frac_idx, len(frac_uniq))
        totals, exact = exact_wire_totals(wire, exact, hops_per_class)
        # Per-size lockstep gates, by the same scalar arithmetic the
        # injector uses; assembled into the (num_messages, sizes) matrix.
        gate_mat = np.zeros((compiled.num_steps + 1, num_sizes))
        for j, size in enumerate(sizes):
            for step, gate in compiled.step_gates(size, flow_control).items():
                gate_mat[step, j] = gate
        steps_arr = np.asarray(compiled.steps)
        ready = gate_mat[steps_arr]
        # Read-only broadcast: at 8k-node scale a materialized per-op
        # overhead vector is pure waste (the value is one scalar).
        overhead = np.broadcast_to(
            np.float64(scheduling_overhead), (plan.num_messages,)
        )
        runner = run_range_plan if isinstance(plan, RangePlan) else run_plan
        valid, finish, busy, qmax, timings = runner(
            plan, table, wire, frac_idx, ready, overhead,
            keep_timings=keep_timings,
        )
        gate_valid = valid.copy()
        exact_mask = exact
        valid = valid & exact

    points: List[Optional[BatchPoint]] = []
    results: List[object] = []
    fallbacks = 0
    topo = compiled.topology.name
    for j, size in enumerate(sizes):
        if valid[j]:
            time = finish[j].item()
            point = BatchPoint(
                data_bytes=size,
                time=time,
                bandwidth=size / time if time > 0 else float("inf"),
                max_queue_delay=(
                    qmax[j].item() if np.isfinite(qmax[j]) else 0.0
                ),
                engine="lockstep-vec",
            )
            if keep_timings:
                results.append(AllReduceResult(
                    compiled, size,
                    _column_result(table, ready, timings, finish, busy,
                                   totals, j),
                ))
        else:
            fallbacks += 1
            if decline_reason is not None:
                reason = decline_reason
            elif gate_valid is not None and not gate_valid[j]:
                reason = "gate-boundary"
            elif exact_mask is not None and not exact_mask[j]:
                reason = "wire-total"
            else:
                reason = "plan"
            obs.event(
                "engine.fallback", engine="lockstep-vec", reason=reason,
                topology=topo, size=size,
            )
            # An ordinary scalar run: its own ``sim.run`` span records
            # the engine that produced this point.
            outcome = compiled.simulate(
                size, flow_control, lockstep, scheduling_overhead
            )
            point = BatchPoint(
                data_bytes=size,
                time=outcome.time,
                bandwidth=outcome.bandwidth,
                max_queue_delay=outcome.max_queue_delay(),
                engine="lockstep",
                reason=reason,
            )
            if keep_timings:
                results.append(outcome)
        points.append(point)
    return BatchResult(
        sizes, points, fallbacks, results if keep_timings else None
    )


def _is_array_column(col) -> bool:
    """Column stored as (or lazily materializing to) a numpy array."""
    return not isinstance(col, list) and (
        isinstance(col, np.ndarray) or hasattr(col, "__array__")
    )


def _try_range_plan(compiled, table: LinkTable) -> Optional[RangePlan]:
    """A :class:`RangePlan` when the schedule has the streaming layout.

    Qualification is structural — numpy columns, single-hop routes, ops
    sorted by step — so it holds for streaming-compiled and
    artifact-loaded schedules without any metadata marker (metadata must
    stay dict-equal to the object-path compiler).  ``None`` means the
    layout does not qualify and the generic :class:`VecPlan` path should
    be used instead; a returned plan with ``ok=False`` is a genuine
    decline (the scalar ladder takes over, which is always exact).
    """
    cols = (compiled.steps, compiled.route_off, compiled.route_val,
            compiled.dep_off, compiled.dep_val)
    if not all(_is_array_column(col) for col in cols):
        return None
    steps = np.asarray(compiled.steps)
    if not len(steps):
        return None
    route_off = np.asarray(compiled.route_off)
    if int(route_off[-1]) != len(steps):
        return None  # multi-hop routes: the generic plan gathers those
    if (np.diff(steps) < 0).any():
        return None
    return RangePlan(compiled, table)


def _compiled_plan(compiled):
    """The memoized vectorization plan of a compiled schedule.

    A :class:`RangePlan` for streaming-layout schedules, a
    :class:`VecPlan` otherwise.  Returns ``None`` (and memoizes the
    decline) when a route uses a link the topology does not declare.
    """
    plan = compiled._vec_plan
    if plan is None:
        table = link_table(compiled.topology)
        plan = _try_range_plan(compiled, table)
        if plan is None:
            try:
                route_val = compiled._table_route_val(table)
            except KeyError:
                compiled._vec_plan = False
                return None
            plan = build_plan(
                compiled._step_groups(), compiled.route_off, route_val,
                compiled._dep_structure(), table,
            )
        compiled._vec_plan = plan
    return plan if plan is not False else None


def _compiled_wire_classes(compiled) -> Tuple[np.ndarray, np.ndarray]:
    """Unique chunk fractions and each message's class index, memoized."""
    return compiled.frac_classes()
