"""Vectorized lockstep engine: numpy array ops over the step ranges.

The scalar engine in :mod:`repro.network.lockstep_engine` already walks
lockstep-gated schedules step by step over flat CSR arrays, but still
visits every message (and every hop) in a Python loop.  This engine
resolves each step's per-link FIFO pass with array operations instead,
vectorized over the step's messages — and over a trailing **size
axis**, so one compiled schedule is evaluated for an entire ``LO..HI``
doubling range of payload sizes in a single pass (:func:`run_batch`).

Both engines read one step layout.  A compiled schedule stores its ops
sorted by step, so step ``s`` is the contiguous row range
``step_bounds[s - 1]:step_bounds[s]``
(:attr:`~repro.collectives.compiled.CompiledSchedule.step_bounds`),
whatever backs the columns: plain lists from the object compiler, numpy
arrays from the streaming compiler, lazy shards from an artifact.  One
:class:`BatchPlan` per schedule resolves each step once: single-hop
steps as views of one remapped link column, multi-hop steps (switched
fabrics) as per-hop-position selectors.  :func:`run_plan` walks the
ranges and wakes dependencies pull-style from the dependency CSR.

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
  path pays it once per schedule (memoized in the :class:`BatchPlan`).
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
from .links import LazyTimings, LinkTable, link_table
from .simulator import SimulationResult

#: Largest float64 integer range where ``a + b`` is exact for nonnegative
#: integer-valued operands — the bound for order-independent wire totals.
_MAX_EXACT = float(2 ** 53)


class BatchPlan:
    """Payload-independent plan of one compiled schedule's lockstep steps.

    Built once per schedule (memoized by :func:`_compiled_plan`) over
    its step ranges
    (:attr:`~repro.collectives.compiled.CompiledSchedule.step_bounds`).
    ``steps`` holds one ``(lo, hi, hops)`` entry per non-empty step,
    covering rows ``lo:hi``.  When every route of the step is one link
    (direct networks), ``hops`` is the step's dense link ids as a view of
    the one remapped route column — no per-step arrays, which keeps an
    8k-node schedule (134M ops) inside its memory envelope.  Otherwise
    (switched fabrics) ``hops`` lists ``(sel, li)`` per hop position:
    the step rows ``sel`` with a hop there and the links they take.

    ``ok`` is False when the schedule cannot run vectorized; ``reason``
    then names the check that failed: a route names a link the topology
    lacks (``unknown-link``), some step is not link-disjoint
    (``link-disjointness``) or touches a multi-channel link
    (``multi-channel``), or a dependency does not point to an earlier
    step (``step-overlap``, which the pull-model wake-up of
    :func:`run_plan` requires).
    """

    __slots__ = ("ok", "reason", "steps", "dep_off", "dep_val", "class_hops")

    def __init__(self, compiled, table: LinkTable) -> None:
        bounds = compiled.step_bounds
        self.ok = False
        self.reason: Optional[str] = None
        self.steps: List[Tuple[int, int, object]] = []
        try:
            remap = np.asarray(
                [table.id_of[key] for key in compiled.links], dtype=np.intp
            )
        except KeyError:
            self.reason = "unknown-link"
            return
        route_off = np.asarray(compiled.route_off)
        link_ids = remap[np.asarray(compiled.route_val)]
        dep_off = np.asarray(compiled.dep_off)
        dep_val = np.asarray(compiled.dep_val)
        _bw, _lat, capacity = table.arrays()
        for lo, hi in zip(bounds[:-1].tolist(), bounds[1:].tolist()):
            if lo == hi:
                continue
            rlen = np.diff(route_off[lo:hi + 1])
            if (rlen == 1).all():
                hops = used = link_ids[int(route_off[lo]):int(route_off[hi])]
            else:
                starts = route_off[lo:hi]
                hops = []
                for h in range(int(rlen.max())):
                    sel = np.flatnonzero(rlen > h)
                    hops.append((sel, link_ids[starts[sel] + h]))
                used = (np.concatenate([li for _sel, li in hops])
                        if hops else link_ids[:0])
            # Any repeated link within the step means FIFO state interacts
            # within the step, and then processing order matters.
            if len(np.unique(used)) != len(used):
                self.reason = "link-disjointness"
                return
            if (capacity[used] != 1).any():
                self.reason = "multi-channel"  # argmin channel pools
                return
            dv = dep_val[dep_off[lo]:dep_off[hi]]
            if len(dv) and int(dv.max()) >= lo:
                self.reason = "step-overlap"
                return
            self.steps.append((lo, hi, hops))
        # Total hop count per wire class: the weights of the wire total.
        uniq, frac_idx = compiled.frac_classes()
        if getattr(frac_idx, "strides", None) == (0,):
            self.class_hops = np.zeros(len(uniq), dtype=np.float64)
            self.class_hops[int(frac_idx[0])] = float(
                route_off[-1] - route_off[0]
            )
        else:
            self.class_hops = np.bincount(
                frac_idx, weights=np.diff(route_off), minlength=len(uniq)
            )
        self.dep_off = dep_off
        self.dep_val = dep_val
        self.ok = True


def run_plan(
    plan: BatchPlan,
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
    ``(num_messages, num_sizes)`` gate matrix.  ``overhead`` is the
    per-message receive overhead.

    Each step first wakes its rows *pull*-style: a row's ready time is
    the max of its gate and its dependencies' delivery times plus its
    overhead, one segmented ``np.maximum.reduceat`` over the dependency
    CSR.  That equals the scalar engine's per-edge
    ``max(ready, deliver + overhead)`` exactly, because ``fl(x + c)`` is
    monotone in ``x``, and every dependency points to an earlier step.
    With ``keep_timings`` off, ``ready`` itself carries ready-then-
    delivery values in place — the dominant allocation at 8k-node scale.

    Returns ``(valid, finish, busy, qmax, timings)`` where ``valid`` is
    the per-size acceptance mask (sizes failing a gate-boundary check
    carry garbage in the other outputs and must fall back to the scalar
    engine), ``busy`` is the ``(num_links, num_sizes)`` per-link busy
    matrix, ``qmax`` the per-size max queueing delay, and ``timings`` the
    ``(inject, deliver, ideal)`` matrices when ``keep_timings`` else
    ``None``; ``ready`` then holds the final per-message ready times.
    """
    n, num_sizes = ready.shape
    bw, lat, _cap = table.arrays()
    avail = np.zeros((len(bw), num_sizes), dtype=np.float64)
    busy = np.zeros_like(avail)
    finish = np.zeros(num_sizes, dtype=np.float64)
    qmax = np.full(num_sizes, -np.inf, dtype=np.float64)
    valid = np.ones(num_sizes, dtype=bool)
    prev_max = np.full(num_sizes, -np.inf, dtype=np.float64)
    dep_off = plan.dep_off
    dep_val = plan.dep_val
    if keep_timings:
        deliver_all = np.zeros((n, num_sizes), dtype=np.float64)
        inject_m = np.zeros((n, num_sizes), dtype=np.float64)
        ideal_m = np.zeros((n, num_sizes), dtype=np.float64)
    else:
        deliver_all = ready  # rows become delivery times once processed

    for lo, hi, hops in plan.steps:
        d0 = int(dep_off[lo])
        d1 = int(dep_off[hi])
        if d1 > d0:
            has = np.diff(dep_off[lo:hi + 1]) > 0
            starts = (dep_off[lo:hi][has] - d0).astype(np.intp)
            red = np.maximum.reduceat(deliver_all[dep_val[d0:d1]], starts)
            rows = lo + np.flatnonzero(has)
            wake = red + overhead[rows][:, None]
            ready[rows] = np.maximum(ready[rows], wake)
        rd = ready[lo:hi]
        # Gate-boundary verification, per size: the scalar engine declines
        # when a step's earliest (ready, push_seq) sorts at or before the
        # previous step's latest; without push sequences, ties decline too.
        valid &= rd.min(axis=0) > prev_max
        prev_max = rd.max(axis=0)

        wire = wire_table[wire_idx[lo:hi]]
        if isinstance(hops, np.ndarray):  # one link per message
            ser = wire / bw[hops][:, None]
            inject = np.maximum(rd, avail[hops])
            avail[hops] = inject + ser
            busy[hops] += ser
            deliver = inject + lat[hops][:, None] + ser
            ideal = rd + lat[hops][:, None] + ser
        else:  # per hop position; zero-hop messages deliver at ready
            head = rd.copy()
            inject = rd.copy()
            cur_ser = np.zeros_like(rd)
            max_ser = np.zeros_like(rd)
            lat_sum = np.zeros(hi - lo, dtype=np.float64)
            for h, (sel, li) in enumerate(hops):
                ser = wire[sel] / bw[li][:, None]
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
            inject_m[lo:hi] = inject
            ideal_m[lo:hi] = ideal
        deliver_all[lo:hi] = deliver

    timings = (inject_m, deliver_all, ideal_m) if keep_timings else None
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

    num_sizes = len(sizes)
    valid = np.zeros(num_sizes, dtype=bool)
    gate_valid = finish = busy = qmax = totals = ready = timings = None
    table = link_table(compiled.topology)

    # Why every size (or some sizes) left the vectorized engine: a
    # whole-batch decline reason, or per-size gate/wire masks below.
    decline_reason: Optional[str] = "not-lockstep-gated"
    if lockstep:
        plan = _compiled_plan(compiled)
        decline_reason = plan.reason

    if decline_reason is None:
        frac_uniq, frac_idx = compiled.frac_classes()
        sizes_arr = np.asarray(sizes, dtype=np.float64)
        # frac * data_bytes: the same IEEE multiply the scalar path does.
        payload_table = frac_uniq[:, None] * sizes_arr[None, :]
        wire, exact = wire_classes(flow_control, payload_table)
        totals, exact = exact_wire_totals(wire, exact, plan.class_hops)
        # Per-size lockstep gates, by the same scalar arithmetic the
        # injector uses, spread over the step ranges into the
        # (num_messages, sizes) matrix.
        gate_mat = np.zeros((compiled.num_steps + 1, num_sizes))
        for j, size in enumerate(sizes):
            for step, gate in compiled.step_gates(size, flow_control).items():
                gate_mat[step, j] = gate
        ready = np.repeat(
            gate_mat[1:], np.diff(compiled.step_bounds), axis=0
        )
        # Read-only broadcast: at 8k-node scale a materialized per-op
        # overhead vector is pure waste (the value is one scalar).
        overhead = np.broadcast_to(
            np.float64(scheduling_overhead), (len(ready),)
        )
        gate_valid, finish, busy, qmax, timings = run_plan(
            plan, table, wire, frac_idx, ready, overhead,
            keep_timings=keep_timings,
        )
        valid = gate_valid & exact

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
            elif not gate_valid[j]:
                reason = "gate-boundary"
            else:
                reason = "wire-total"
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


def _compiled_plan(compiled) -> BatchPlan:
    """The memoized :class:`BatchPlan` of a compiled schedule."""
    plan = compiled._vec_plan
    if plan is None:
        plan = compiled._vec_plan = BatchPlan(
            compiled, link_table(compiled.topology)
        )
    return plan
