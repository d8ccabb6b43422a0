"""The scalar engine: one loop over the array heap, two processing orders.

The engine runs on flat arrays: routes are ``(route_off, route_val)``
offset/value columns of dense link ids, and the dependency graph is the
:func:`~repro.network.links.dep_structure` triple, all int64 arrays
(:class:`EngineColumns`).  Compiled schedules
(:class:`repro.collectives.compiled.CompiledSchedule`) memoize those
columns; :meth:`repro.network.simulator.NetworkSimulator.run` lowers a
:class:`~repro.network.simulator.Message` list to them.  Beyond avoiding
per-hop dictionary lookups, the flat layout matters for sustained
throughput: a 1024-node lowering holds millions of messages, and
representing their routes/dependencies as millions of small lists makes
every cyclic-GC generation scan traverse them all — measured as a
multi-x slowdown on repeated large simulations.  A handful of flat
arrays is invisible to the collector.

The outcome is fully determined by the order in which messages are
*processed*: FIFO channel grants follow it.  The loop — one per-hop
grant, one dependency wake, one deadlock check — has two processing
orders:

* **heap order** (the event engine): a global ``(ready, push_seq)``
  heap pops one message at a time.  It works for any dependency DAG,
  never declines, and is the only order that feeds a trace recorder.
* **step order** (the lockstep engine, §IV-A): compiled schedules store
  their ops sorted by step, so each step is a contiguous row range.  The
  loop walks the steps in gate order and sorts each step's rows by the
  same ``(ready, push_seq)`` key, replaying the heap's push-sequence
  numbering (initial pushes in index order, then wake-ups in processing
  order).  In the Python loop, sorting a few rows per step is cheaper
  than keeping a global heap, which makes it faster at scale; on the C
  kernel the two orders cost about the same.

**Two implementations, one loop.**  ``_engine.c`` is the loop in C,
built on first use and loaded by :mod:`repro.network.native`; it
performs the same IEEE binary64 operations as :func:`run_indexed`, the
loop in Python, in the same order, so the two are bit-identical.
:func:`run_arrays` runs the C kernel whenever it has loaded, the run's
columns passed :func:`~repro.network.native.columns_ok` and no trace
recorder is passed.  :func:`run_indexed` runs recorded runs (its
per-hop callbacks feed the recorder), hosts where the build or load
failed, and columns the kernel must not index; the tests hold the
kernel ``==`` to it.

**Exact equivalence.**  Step order equals heap order whenever two
checks hold at every step start: every dependency of the step's rows has
resolved (so each key is final), and the step's first key does not sort
before the previous step's last.  Then the concatenated step orders are
the heap's pop order, and every computed time — grant, injection,
delivery, idle-network ideal — comes from the identical sequence of
floating-point operations, so the results are bit-identical, not merely
close.

**Fallback.**  When a check fails — deliveries overrun a later step's
gate, or a row depends on one in its own or a later step — the step
order returns ``None``.  :func:`run_arrays` then reruns the arrays in
heap order and counts the decline as
``sim.fallbacks{engine="lockstep",reason="step-overlap"}``.
"""

from __future__ import annotations

import heapq
from typing import (
    TYPE_CHECKING,
    Dict,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np

from .. import obs
from ..topology.base import Topology
from . import native
from .flowcontrol import FlowControl
from .links import DepStructure, LazyTimings, LinkTable, link_table
from .simulator import (
    Message,
    MessageTiming,
    SimulationResult,
    run_metric_attrs,
)

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids an import cycle
    from ..trace.events import TraceRecorder

__all__ = [
    "EngineColumns",
    "LinkTable",
    "engine_columns",
    "link_table",
    "run_arrays",
    "run_indexed",
]


def _drain(heap: List[Tuple[float, int, int]]):
    """Heap order: pop the global heap until it is empty."""
    heappop = heapq.heappop
    while heap:
        yield heappop(heap)


def _step_orders(step_bounds, ready, push_seq, remaining):
    """Step order: each step's rows sorted by ``(ready, push_seq)``.

    Yields ``None`` (and stops) at the first step whose order would
    diverge from the heap's — see the module docstring.
    """
    last = (float("-inf"), -1, -1)
    for lo, hi in zip(step_bounds, step_bounds[1:]):
        if lo == hi:
            continue
        if any(remaining[lo:hi]):
            # A row depends on one in its own or a later step: its key
            # is not final when the step starts.
            yield None
            return
        # Keys are built per step, not kept per row: n live tuples would
        # be rescanned by every cyclic-GC pass (measured ~15% slower).
        rows = [(ready[idx], push_seq[idx], idx) for idx in range(lo, hi)]
        rows.sort()
        if rows[0] < last:
            # A row of this step is ready before the previous step's
            # last: the heap would interleave the two steps.
            yield None
            return
        last = rows[-1]
        yield rows


def run_indexed(
    table: LinkTable,
    flow_control: FlowControl,
    payloads: Sequence[float],
    route_off: Sequence[int],
    route_val: Sequence[int],
    dep_struct: DepStructure,
    not_before: Sequence[float],
    receive_overhead: Sequence[float],
    recorder: Optional["TraceRecorder"] = None,
    messages: Optional[Sequence[Message]] = None,
    step_bounds: Optional[Sequence[int]] = None,
):
    """The scalar engine's Python loop over dense link-indexed lists.

    ``_engine.c`` is this loop in C (see the module docstring); this one
    runs recorded runs and hosts without a kernel build.  Messages are
    processed in ``(ready, push_seq)`` order, and FIFO channel grants
    follow that order — the seed simulator's semantics
    (``bench/reference.py:reference_run``) over CSR link ids and
    payload/dependency arrays, with no per-message objects.  Without
    ``step_bounds`` the order comes from a global heap (the event
    engine); it never declines, so it also backs every declined step
    order.  With ``step_bounds``, step ``s`` is the row range
    ``range(step_bounds[s - 1], step_bounds[s])``, walked in ascending
    gate order (see the module docstring and
    :attr:`repro.collectives.compiled.CompiledSchedule.step_bounds`).

    ``recorder`` (see :mod:`repro.trace`) gets ``hop`` per granted hop
    and ``message_done`` per message, in processing order;
    ``messages`` are the :class:`~repro.network.simulator.Message`
    objects the columns describe, handed to ``message_done``.

    Returns ``(finish, ready, inject, deliver, ideal, busy, total_wire)``
    arrays, or ``None`` when the step order would diverge from the heap
    order — the caller must then rerun without ``step_bounds``.
    """
    n = len(payloads)
    keys = table.keys
    num_links = len(keys)
    recording = recorder is not None
    bandwidth = table.bandwidth
    latency = table.latency
    capacity = table.capacity

    dd_off, dd_val, dep_counts = dep_struct
    remaining = list(dep_counts)
    ready = list(not_before)

    avail = [0.0] * num_links
    pools: Dict[int, List[float]] = {}
    busy = [0.0] * num_links
    inject = [0.0] * n
    deliver = [0.0] * n
    ideal = [0.0] * n
    wire_cache: Dict[float, float] = {}
    wire_bytes = flow_control.wire_bytes
    total_wire = 0.0
    finish = 0.0
    processed = 0

    # ``(ready, push_seq, idx)`` keys: dependency-free messages are pushed
    # in index order, the rest as their last dependency resolves.
    free = [idx for idx in range(n) if remaining[idx] == 0]
    seq = len(free)
    stepped = step_bounds is not None
    if stepped:
        push_seq = [0] * n
        for sq, idx in enumerate(free):
            push_seq[idx] = sq
        orders = _step_orders(step_bounds, ready, push_seq, remaining)
    else:
        heap = [(ready[idx], sq, idx) for sq, idx in enumerate(free)]
        heapq.heapify(heap)
        orders = (_drain(heap),)
    heappush = heapq.heappush

    for order in orders:
        if order is None:
            return None
        for rd, _sq, idx in order:
            payload = payloads[idx]
            wire = wire_cache.get(payload)
            if wire is None:
                wire = wire_bytes(payload)
                wire_cache[payload] = wire
            r0 = route_off[idx]
            r1 = route_off[idx + 1]
            total_wire += wire * (r1 - r0)
            if r0 == r1:  # zero-hop (src == dst) — degenerate, instant
                inj = rd
                dlv = rd
                idl = rd
            else:
                head = rd
                inj = None
                ser = 0.0
                lat_sum = 0.0
                max_ser = 0.0
                for k in range(r0, r1):
                    li = route_val[k]
                    if capacity[li] == 1:
                        ch = 0
                        at = avail[li]
                        ser = wire / bandwidth[li]
                        grant = head if head >= at else at
                        avail[li] = grant + ser
                    else:
                        pool = pools.get(li)
                        if pool is None:
                            pool = pools[li] = [0.0] * capacity[li]
                        ch = min(range(len(pool)), key=pool.__getitem__)
                        at = pool[ch]
                        ser = wire / bandwidth[li]
                        grant = head if head >= at else at
                        pool[ch] = grant + ser
                    busy[li] += ser
                    if recording:
                        recorder.hop(idx, keys[li], ch, head, grant, ser)
                    if inj is None:
                        inj = grant
                    lat = latency[li]
                    head = grant + lat
                    lat_sum += lat
                    if ser > max_ser:
                        max_ser = ser
                dlv = head + ser
                idl = rd + lat_sum + max_ser
            inject[idx] = inj
            deliver[idx] = dlv
            ideal[idx] = idl
            if recording:
                recorder.message_done(
                    idx, messages[idx], MessageTiming(rd, inj, dlv, idl), wire
                )
            if dlv > finish:
                finish = dlv
            processed += 1

            for k in range(dd_off[idx], dd_off[idx + 1]):  # wake dependents
                dep_idx = dd_val[k]
                wake = dlv + receive_overhead[dep_idx]
                if wake > ready[dep_idx]:
                    ready[dep_idx] = wake
                remaining[dep_idx] -= 1
                if remaining[dep_idx] == 0:
                    if stepped:
                        push_seq[dep_idx] = seq
                    else:
                        heappush(heap, (ready[dep_idx], seq, dep_idx))
                    seq += 1

    if processed != n:
        _deadlock([i for i in range(n) if remaining[i] > 0])
    return finish, ready, inject, deliver, ideal, busy, total_wire


class EngineColumns(NamedTuple):
    """One run's payload-independent columns, as the kernel reads them.

    Routes are ``(route_off, route_val)`` over dense link ids and
    ``dep_struct`` is the :func:`~repro.network.links.dep_structure`
    triple, all int64 arrays.  ``native`` is the
    :func:`~repro.network.native.columns_ok` verdict: columns that fail
    it never reach the kernel.  A compiled schedule memoizes its
    columns, so the check runs once per schedule.
    """

    route_off: np.ndarray
    route_val: np.ndarray
    dep_struct: DepStructure
    native: bool


def engine_columns(table: LinkTable, route_off, route_val,
                   dep_struct: DepStructure) -> EngineColumns:
    """Checked :class:`EngineColumns` over ``table``'s links."""
    route_off = np.ascontiguousarray(route_off, dtype=np.int64)
    route_val = np.ascontiguousarray(route_val, dtype=np.int64)
    dd_off, dd_val, _counts = dep_struct
    return EngineColumns(
        route_off, route_val, dep_struct,
        native.columns_ok(table.arrays()[2], route_off, route_val,
                          dd_off, dd_val),
    )


def _run_kernel(kernel, table: LinkTable, flow_control: FlowControl,
                payloads, columns: EngineColumns, not_before,
                receive_overhead, step_bounds):
    """:func:`run_indexed` on the C kernel; the same return values.

    ``payloads`` is a ``(classes, index)`` pair: wire bytes are computed
    once per payload class and gathered per message.  The scalars come
    back as Python floats; the per-message and per-link columns stay
    float64 arrays.
    """
    classes, index = payloads
    wire = np.array(
        [flow_control.wire_bytes(payload) for payload in classes.tolist()],
        dtype=np.float64,
    )[index]
    n = len(wire)
    bandwidth, latency, capacity = table.arrays()
    dd_off, dd_val, counts = columns.dep_struct
    remaining = np.array(counts, dtype=np.int64)
    ready = np.array(not_before, dtype=np.float64)
    overhead = np.ascontiguousarray(receive_overhead, dtype=np.float64)
    inject = np.empty(n)
    deliver = np.empty(n)
    ideal = np.empty(n)
    busy = np.zeros(len(capacity))
    totals = np.zeros(2)
    bounds = np.ascontiguousarray(step_bounds, dtype=np.int64)
    processed = kernel(
        n, len(capacity),
        *(column.ctypes.data for column in (
            bandwidth, latency, capacity, wire, columns.route_off,
            columns.route_val, dd_off, dd_val, overhead,
        )),
        len(bounds), bounds.ctypes.data if len(bounds) else None,
        *(column.ctypes.data for column in (
            remaining, ready, inject, deliver, ideal, busy, totals,
        )),
    )
    if processed == -1:
        return None
    if processed == -2:
        raise MemoryError("engine kernel could not allocate its state")
    if processed != n:
        _deadlock(np.flatnonzero(remaining > 0).tolist())
    finish, total_wire = totals.tolist()
    return finish, ready, inject, deliver, ideal, busy, total_wire


def _deadlock(stuck: List[int]):
    raise RuntimeError(
        "dependency deadlock: %d messages never became ready (first: %s)"
        % (len(stuck), stuck[:5])
    )


def _result_from_arrays(table: LinkTable, raw) -> SimulationResult:
    finish, ready, inject, deliver, ideal, busy, total_wire = raw
    keys = table.keys
    if isinstance(busy, np.ndarray):
        busy = busy.tolist()
    link_busy = {
        keys[li]: busy[li] for li in range(len(keys)) if busy[li] != 0.0
    }
    return SimulationResult(
        finish_time=finish,
        timings=LazyTimings(ready, inject, deliver, ideal),
        link_busy=link_busy,
        total_wire_bytes=total_wire,
    )


def run_arrays(
    topology: Topology,
    flow_control: FlowControl,
    engine: str,
    step_bounds: Sequence[int],
    payloads: Tuple[np.ndarray, np.ndarray],
    columns: EngineColumns,
    not_before: np.ndarray,
    receive_overhead: np.ndarray,
    recorder: Optional["TraceRecorder"] = None,
    messages: Optional[Sequence[Message]] = None,
) -> SimulationResult:
    """The ``event``/``lockstep`` ladder over CSR arrays, with telemetry.

    ``payloads`` is a ``(classes, index)`` pair — the distinct payload
    sizes and each message's class — and ``columns`` the run's
    :class:`EngineColumns`; ``not_before`` and ``receive_overhead`` are
    per-message float64 columns.  The C kernel
    (:mod:`repro.network.native`) runs every order whenever it has
    loaded, the columns passed its check and no ``recorder`` is given;
    otherwise :func:`run_indexed`'s Python loop does, with the same
    results.

    ``engine="event"`` runs heap order, feeding the Python loop
    ``recorder`` and ``messages`` (see :func:`run_indexed`) — the path
    :meth:`repro.network.simulator.NetworkSimulator.run` takes.
    ``engine="lockstep"`` first runs step order over the row ranges
    ``step_bounds`` and, when the step order declines, reruns the
    arrays in heap order.  Only the heap order gets ``recorder``: a
    declined step-order run would otherwise record its hops twice.
    Every run emits one ``sim.run`` span naming the engine that resolved
    it (``resolved``), plus an ``engine.fallback`` event under it for a
    ``lockstep`` decline; while metering, the span also carries the
    :func:`~repro.network.simulator.run_metric_attrs`.  With no obs
    recorder active, the only extra work is one no-op span entry.
    """
    table = link_table(topology)
    topology_name = topology.name
    kernel = None
    if recorder is None and columns.native:
        kernel = native.kernel()
    lists = None

    def run(bounds, recorder=None, messages=None):
        nonlocal lists
        if kernel is not None:
            return _run_kernel(
                kernel, table, flow_control, payloads, columns,
                not_before, receive_overhead, bounds,
            )
        if lists is None:  # the Python loop indexes plain lists
            classes, index = payloads
            lists = (
                classes[index].tolist(),
                columns.route_off.tolist(),
                columns.route_val.tolist(),
                tuple(part.tolist() for part in columns.dep_struct),
                np.asarray(not_before).tolist(),
                np.asarray(receive_overhead).tolist(),
            )
        return run_indexed(
            table, flow_control, *lists, recorder, messages,
            step_bounds=bounds.tolist() if len(bounds) else None,
        )

    with obs.span(
        "sim.run",
        topology=topology_name,
        engine=engine,
        messages=len(payloads[1]),
    ) as run_span:
        raw = None
        resolved = "event"
        if engine == "lockstep":
            raw = run(np.asarray(step_bounds, dtype=np.int64))
            if raw is None:
                obs.event(
                    "engine.fallback", engine="lockstep",
                    reason="step-overlap", topology=topology_name,
                )
            else:
                resolved = "lockstep"
        if raw is None:
            raw = run(np.empty(0, dtype=np.int64), recorder, messages)
        result = _result_from_arrays(table, raw)
        run_span.set("resolved", resolved)
        run_span.set("finish_time", result.finish_time)
        if obs.metering():
            classes, index = payloads
            attrs = run_metric_attrs(
                topology, flow_control,
                zip(classes[index].tolist(),
                    np.diff(columns.route_off).tolist()),
                result,
            )
            for key, value in attrs.items():
                run_span.set(key, value)
        return result
