"""The scalar engine: one loop over the array heap.

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
*processed*: FIFO channel grants follow it.  The loop has one
processing order, the event engine's: a global ``(ready, push_seq)``
heap pops one message at a time, dependency-free messages pushed in
index order and the rest as their last dependency resolves.  It works
for any dependency DAG, never declines, and feeds the trace recorder.
The lockstep NI (§IV-A) reaches the loop only as each message's
``not_before`` gate, so the ``lockstep`` engine name runs this same
loop.  Around the order sit one per-hop grant, one dependency wake and
one deadlock check.  The grant is one branch for every link capacity:
each link keeps a list of channel free times, and a hop takes the
earliest-free channel (the argmin runs only on multi-channel links).
This loop and its C twin (below) are the only places the multi-hop
grant rule is written, besides the frozen seed loop.

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

**A size ladder in one call.**  :func:`run_ladder` runs every size of
a series over one compiled schedule on the kernel's second entry: it
hands the schedule's own dependency CSR (:class:`LadderColumns`), a
wire table per payload class and size and a gate table per step and
size, and gets finish, wire total and max queue delay back per size —
the per-message columns only when a caller reads them.
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
):
    """The scalar engine's Python loop over dense link-indexed lists.

    ``_engine.c`` is this loop in C (see the module docstring); this one
    runs recorded runs and hosts without a kernel build.  Messages are
    popped from a global ``(ready, push_seq)`` heap, and FIFO channel
    grants follow that order — the seed simulator's semantics
    (``bench/reference.py:reference_run``) over CSR link ids and
    payload/dependency arrays, with no per-message objects.

    ``recorder`` (see :mod:`repro.trace`) gets ``hop`` per granted hop
    and ``message_done`` per message, in processing order;
    ``messages`` are the :class:`~repro.network.simulator.Message`
    objects the columns describe, handed to ``message_done``.

    Returns ``(finish, ready, inject, deliver, ideal, busy, total_wire)``.
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

    # One FIFO channel list per link, as in ``_engine.c``.
    chans = [[0.0] * cap for cap in capacity]
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
    heap = [(ready[idx], sq, idx) for sq, idx in enumerate(free)]
    seq = len(heap)
    heapq.heapify(heap)
    heappop = heapq.heappop
    heappush = heapq.heappush

    while heap:
        rd, _sq, idx = heappop(heap)
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
                pool = chans[li]
                ch = 0
                if len(pool) > 1:
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
                heappush(heap, (ready[dep_idx], seq, dep_idx))
                seq += 1

    if processed != n:
        stuck = [i for i in range(n) if remaining[i] > 0]
        _deadlock(len(stuck), stuck[:5])
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
                receive_overhead):
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
    processed = kernel.run_indexed(
        n, len(capacity),
        *(column.ctypes.data for column in (
            bandwidth, latency, capacity, wire, columns.route_off,
            columns.route_val, dd_off, dd_val, overhead,
            remaining, ready, inject, deliver, ideal, busy, totals,
        )),
    )
    if processed == -2:
        raise MemoryError("engine kernel could not allocate its state")
    if processed != n:
        stuck = np.flatnonzero(remaining > 0)
        _deadlock(len(stuck), stuck[:5].tolist())
    finish, total_wire = totals.tolist()
    return finish, ready, inject, deliver, ideal, busy, total_wire


def _deadlock(count: int, first: List[int]):
    raise RuntimeError(
        "dependency deadlock: %d messages never became ready (first: %s)"
        % (count, first)
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
    payloads: Tuple[np.ndarray, np.ndarray],
    columns: EngineColumns,
    not_before: np.ndarray,
    receive_overhead: np.ndarray,
    recorder: Optional["TraceRecorder"] = None,
    messages: Optional[Sequence[Message]] = None,
) -> SimulationResult:
    """One scalar run over CSR arrays, in heap order, with telemetry.

    ``payloads`` is a ``(classes, index)`` pair — the distinct payload
    sizes and each message's class — and ``columns`` the run's
    :class:`EngineColumns`; ``not_before`` and ``receive_overhead`` are
    per-message float64 columns.  The C kernel
    (:mod:`repro.network.native`) runs it whenever it has loaded, the
    columns passed its check and no ``recorder`` is given; otherwise
    :func:`run_indexed`'s Python loop does, with the same results and
    the ``recorder`` and ``messages`` hooks.

    ``engine`` is the engine the caller asked for (``event`` or
    ``lockstep``), recorded on the run's one ``sim.run`` span; both run
    this same loop, so the span's ``resolved`` attribute is always
    ``"event"``.  While metering, the span also carries the
    :func:`~repro.network.simulator.run_metric_attrs`.  With no obs
    recorder active, the only extra work is one no-op span entry.
    """
    table = link_table(topology)
    topology_name = topology.name
    kernel = None
    if recorder is None and columns.native:
        kernel = native.kernel()

    with obs.span(
        "sim.run",
        topology=topology_name,
        engine=engine,
        messages=len(payloads[1]),
    ) as run_span:
        classes, index = payloads
        if kernel is not None:
            raw = _run_kernel(
                kernel, table, flow_control, payloads, columns,
                not_before, receive_overhead,
            )
        else:  # the Python loop indexes plain lists
            raw = run_indexed(
                table, flow_control, classes[index].tolist(),
                columns.route_off.tolist(), columns.route_val.tolist(),
                tuple(part.tolist() for part in columns.dep_struct),
                np.asarray(not_before).tolist(),
                np.asarray(receive_overhead).tolist(),
                recorder, messages,
            )
        result = _result_from_arrays(table, raw)
        run_span.set("resolved", "event")
        run_span.set("finish_time", result.finish_time)
        if obs.metering():
            attrs = run_metric_attrs(
                topology, flow_control,
                zip(classes[index].tolist(),
                    np.diff(columns.route_off).tolist()),
                result,
            )
            for key, value in attrs.items():
                run_span.set(key, value)
        return result


class LadderColumns(NamedTuple):
    """A compiled schedule's columns as the ladder entry reads them.

    Routes as in :class:`EngineColumns`; the dependencies are the
    schedule's own dependency CSR, from which the kernel builds the
    dependents graph itself.  ``native`` is the
    :func:`~repro.network.native.columns_ok` verdict over both CSRs.
    """

    route_off: np.ndarray
    route_val: np.ndarray
    dep_off: np.ndarray
    dep_val: np.ndarray
    native: bool


def ladder_columns(table: LinkTable, route_off, route_val, dep_off,
                   dep_val) -> LadderColumns:
    """Checked :class:`LadderColumns` over ``table``'s links."""
    arrays = [
        np.ascontiguousarray(column, dtype=np.int64)
        for column in (route_off, route_val, dep_off, dep_val)
    ]
    return LadderColumns(
        *arrays, native.columns_ok(table.arrays()[2], *arrays)
    )


def _address(array: Optional[np.ndarray]):
    return None if array is None else array.ctypes.data


def run_ladder(
    kernel,
    topology: Topology,
    flow_control: FlowControl,
    engine: str,
    fractions: Tuple[np.ndarray, np.ndarray],
    columns: LadderColumns,
    sizes: Sequence[float],
    gates,
    scheduling_overhead: float,
    keep_timings: bool = False,
):
    """Every size of a ladder on the kernel's ``run_ladder`` entry.

    ``fractions`` is the ``(classes, index)`` pair of
    :meth:`~repro.collectives.compiled.CompiledSchedule.frac_classes`:
    message payloads are ``classes[index] * size``, and wire bytes are
    computed once per class and size.  ``gates`` is ``None`` (ungated)
    or ``(step_bounds, gate_row)``, where ``gate_row(size)`` returns the
    size's gate per step.  ``columns`` must have passed the kernel's
    check.

    Returns ``(totals, results)``: ``(finish, total_wire,
    max_queue_delay)`` per size as Python floats, and per size the
    :class:`~repro.network.simulator.SimulationResult` when
    ``keep_timings`` or metering asked for per-message columns, else
    ``None`` — the lean mode, which allocates no per-message output.
    The numbers are those of per-size :func:`run_arrays` calls.

    The whole ladder is one C call whether or not obs records: observing
    must not change how the engine runs.  With an obs recorder active,
    each size then gets its one ``sim.run`` span with
    :func:`run_arrays`'s attributes (metric attributes while metering,
    from the per-message columns the call then returns), so records and
    metrics are those of per-size runs; the spans time only the per-size
    result assembly, and the shared call shows in the enclosing span.
    """
    table = link_table(topology)
    bandwidth, latency, capacity = table.arrays()
    classes, index = fractions
    # Read with its stride: one-class schedules pass a zero-stride view.
    index = np.asarray(index, dtype=np.int64)
    n = len(index)
    count = len(sizes)
    num_links = len(capacity)
    metering = obs.metering()
    full = keep_timings or metering
    wire_bytes = flow_control.wire_bytes
    wire = np.array([
        [wire_bytes(payload) for payload in (classes * size).tolist()]
        for size in sizes
    ], dtype=np.float64).reshape(count, len(classes))
    step_bounds = gate_table = None
    num_steps = 0
    if gates is not None:
        step_bounds, gate_row = gates
        step_bounds = np.ascontiguousarray(step_bounds, dtype=np.int64)
        num_steps = len(step_bounds) - 1
        gate_table = np.array(
            [gate_row(size) for size in sizes], dtype=np.float64
        ).reshape(count, num_steps)
    overhead = np.full(1, scheduling_overhead, dtype=np.float64)
    totals = np.zeros((count, 3))
    stuck = np.zeros(6, dtype=np.int64)
    outputs = (None,) * 5  # the lean mode
    if full:
        outputs = [np.empty((count, n)) for _ in range(4)]
        outputs.append(np.empty((count, num_links)))
    status = kernel.run_ladder(
        n, num_links, count,
        *map(_address, (bandwidth, latency, capacity, columns.route_off,
                        columns.route_val, columns.dep_off, columns.dep_val,
                        wire)),
        len(classes), index.ctypes.data, index.strides[0] // 8,
        _address(gate_table), num_steps, _address(step_bounds),
        overhead.ctypes.data, totals.ctypes.data,
        *map(_address, outputs), stuck.ctypes.data,
    )
    if status == -2:
        raise MemoryError("engine kernel could not allocate its state")
    if status == -1:
        stuck_count = int(stuck[0])
        _deadlock(stuck_count, stuck[1:1 + min(stuck_count, 5)].tolist())
    rows = totals.tolist()
    results: List[Optional[SimulationResult]] = [None] * count
    if full:
        ready, inject, deliver, ideal, busy = outputs
        results = [
            _result_from_arrays(table, (
                finish, ready[j], inject[j], deliver[j], ideal[j], busy[j],
                total_wire,
            ))
            for j, (finish, total_wire, _delay) in enumerate(rows)
        ]
    if obs.get_obs() is not None:
        if metering:
            payloads = classes[index]
            hops = np.diff(columns.route_off).tolist()
        for size, row, result in zip(sizes, rows, results):
            with obs.span(
                "sim.run", topology=topology.name, engine=engine, messages=n,
            ) as run_span:
                run_span.set("resolved", "event")
                run_span.set("finish_time", row[0])
                if metering:
                    attrs = run_metric_attrs(
                        topology, flow_control,
                        zip((payloads * size).tolist(), hops), result,
                    )
                    for key, value in attrs.items():
                        run_span.set(key, value)
    return rows, results if keep_timings else [None] * count
