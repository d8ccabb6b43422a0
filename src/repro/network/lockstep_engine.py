"""The event engine (the array heap) and the step-level lockstep engine.

Both engines run on flat arrays: routes are ``(route_off, route_val)``
offset/value lists of dense link ids, and the dependency graph is the
:func:`~repro.network.links.dep_structure` triple.  Compiled schedules
(:class:`repro.collectives.compiled.CompiledSchedule`) hold those
columns already; :meth:`repro.network.simulator.NetworkSimulator.run`
lowers a :class:`~repro.network.simulator.Message` list to them.
Beyond avoiding per-hop dictionary lookups, the flat layout matters for
sustained throughput: a 1024-node lowering holds millions of messages,
and representing their routes/dependencies as millions of small lists
makes every cyclic-GC generation scan traverse them all — measured as a
multi-x slowdown on repeated large simulations.  A handful of flat lists
of ints is invisible to the collector.

:func:`run_indexed` is the event engine: it resolves messages one at a
time off a global ``(ready, push_seq)`` heap, works for any dependency
DAG, and is the only engine that feeds a trace recorder.  For
*lockstep-gated* schedules (§IV-A) that generality is wasted: the
per-step message set is fixed by the schedule, every dependency crosses
a step boundary, and the lockstep gates order the steps in time.
:func:`run_grouped` exploits that structure.  Compiled schedules store
their ops sorted by step, so each step is a contiguous message index
range; it walks the steps in gate order and resolves each step's
messages in one closed-form FIFO pass per link (sorted arrival order
within the step).

**Exact equivalence.**  The event engine's outcome is fully determined by
the order messages are *processed* — the heap pops ``(ready, push_seq)``
pairs, and FIFO channel grants follow that order.  :func:`run_grouped`
reproduces that order exactly: it replays the heap's push-sequence
numbering (initial pushes in message-index order, then wake-ups in
processing order), sorts each step's messages by the same
``(ready, push_seq)`` key, and verifies at every step boundary that the
per-step order is consistent with the global one.  Whenever the
verification holds, every computed time — grant, injection, delivery,
idle-network ideal — is produced by the identical sequence of
floating-point operations, so results are bit-identical to the event
engine, not merely close.

**Fallback.**  When deliveries overrun a later step's gate enough to
reorder processing across steps, :func:`run_grouped` returns ``None``.
:func:`run_arrays` then runs :func:`run_indexed` on the same arrays and
counts the decline as
``sim.fallbacks{engine="lockstep",reason="step-overlap"}``.
"""

from __future__ import annotations

import heapq
from operator import sub
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

from .. import obs
from ..topology.base import Topology
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
    "LinkTable",
    "link_table",
    "run_arrays",
    "run_grouped",
    "run_indexed",
]


def run_grouped(
    table: LinkTable,
    flow_control: FlowControl,
    step_bounds: Sequence[int],
    payloads: Sequence[float],
    route_off: Sequence[int],
    route_val: Sequence[int],
    dep_struct: DepStructure,
    not_before: Sequence[float],
    receive_overhead: Sequence[float],
):
    """Core step-level loop over messages sorted by lockstep step.

    Step ``s`` is the message index range
    ``range(step_bounds[s - 1], step_bounds[s])``, walked in ascending
    gate order; every dependency must resolve in a strictly earlier step
    (the caller guarantees this — see
    :attr:`repro.collectives.compiled.CompiledSchedule.step_bounds`).
    Routes arrive as CSR dense-link-id arrays and the dependency graph as
    a :func:`~repro.network.links.dep_structure` triple — both
    payload-independent, so repeat callers memoize them.

    Returns ``(finish, ready, inject, deliver, ideal, busy, total_wire)``
    arrays, or ``None`` when processing the steps in order would diverge
    from the event engine's global ``(ready, push_seq)`` order — the
    caller must then fall back.
    """
    n = len(payloads)
    num_links = len(table.keys)
    bandwidth = table.bandwidth
    latency = table.latency
    capacity = table.capacity

    # Dependency bookkeeping — identical wake order to the event engine's.
    dd_off, dd_val, dep_counts = dep_struct
    remaining = list(dep_counts)
    ready = list(not_before)

    # Replay of the event heap's push-sequence numbers: dependency-free
    # messages are "pushed" at init in index order, the rest as their last
    # dependency resolves (in processing order, below).
    push_seq = [0] * n
    seq = 0
    for idx in range(n):
        if remaining[idx] == 0:
            push_seq[idx] = seq
            seq += 1

    # Per-link FIFO state: capacity-1 links (the common case) use the flat
    # ``avail`` array; wider links lazily get a channel pool, matching the
    # event engine's argmin channel selection.
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
    last_ready = float("-inf")
    last_seq = -1

    for lo, hi in zip(step_bounds, step_bounds[1:]):
        if lo == hi:
            continue
        entries = [(ready[idx], push_seq[idx], idx) for idx in range(lo, hi)]
        entries.sort()
        first_ready, first_seq, _ = entries[0]
        if first_ready < last_ready or (
            first_ready == last_ready and first_seq < last_seq
        ):
            # A message of this step becomes ready before the previous
            # step finished injecting: the event engine would interleave
            # the two steps, so step-level processing is not exact here.
            return None
        for rd, _sq, idx in entries:
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
                    push_seq[dep_idx] = seq
                    seq += 1
        last_ready, last_seq, _ = entries[-1]

    if processed != n:
        stuck = [i for i in range(n) if remaining[i] > 0]
        raise RuntimeError(
            "dependency deadlock: %d messages never became ready (first: %s)"
            % (len(stuck), stuck[:5])
        )
    return finish, ready, inject, deliver, ideal, busy, total_wire


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
    """The event engine: a global ``(ready, push_seq)`` heap over dense
    link-indexed arrays.

    Messages are processed in readiness order (ties in push order), and
    FIFO channel grants follow that order — the seed simulator's
    semantics (``bench/reference.py:reference_run``), over the same flat
    arrays as :func:`run_grouped`: CSR link ids, payload/dependency
    arrays, no per-message objects.  Exact by construction (it never
    declines), so it also backs the compiled path whenever step-level
    grouping would diverge (see
    :meth:`repro.collectives.compiled.CompiledSchedule.simulate`).

    ``recorder`` (see :mod:`repro.trace`) gets ``hop`` per granted hop
    and ``message_done`` per message, in processing order;
    ``messages`` are the :class:`~repro.network.simulator.Message`
    objects the columns describe, handed to ``message_done``.

    Returns the same tuple as :func:`run_grouped`.
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

    heappush = heapq.heappush
    heappop = heapq.heappop
    heap: List[Tuple[float, int, int]] = []
    seq = 0
    for idx in range(n):
        if remaining[idx] == 0:
            heappush(heap, (ready[idx], seq, idx))
            seq += 1

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
        ready[idx] = rd
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
        raise RuntimeError(
            "dependency deadlock: %d messages never became ready (first: %s)"
            % (len(stuck), stuck[:5])
        )
    return finish, ready, inject, deliver, ideal, busy, total_wire


def _result_from_arrays(table: LinkTable, raw) -> SimulationResult:
    finish, ready, inject, deliver, ideal, busy, total_wire = raw
    keys = table.keys
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
    payloads: Sequence[float],
    route_off: Sequence[int],
    route_val: Sequence[int],
    dep_struct: DepStructure,
    not_before: Sequence[float],
    receive_overhead: Sequence[float],
    recorder: Optional["TraceRecorder"] = None,
    messages: Optional[Sequence[Message]] = None,
) -> SimulationResult:
    """The ``event``/``lockstep`` ladder over CSR arrays, with telemetry.

    ``engine="event"`` runs :func:`run_indexed`, the event engine,
    feeding it ``recorder`` and ``messages`` (see there) — the path
    :meth:`repro.network.simulator.NetworkSimulator.run` takes.
    ``engine="lockstep"`` tries :func:`run_grouped` over the step row
    ranges ``step_bounds`` first and drops to :func:`run_indexed` when
    step-level processing would diverge; it takes no ``recorder``,
    since :func:`run_grouped` has no hooks.  Every run emits one
    ``sim.run`` span naming the engine that resolved it (``resolved``),
    plus an ``engine.fallback`` event under it for a ``lockstep``
    decline; while metering, the span also carries the
    :func:`~repro.network.simulator.run_metric_attrs`.  With no obs
    recorder active, the only extra work is one no-op span entry.
    """
    table = link_table(topology)
    topology_name = topology.name
    with obs.span(
        "sim.run",
        topology=topology_name,
        engine=engine,
        messages=len(payloads),
    ) as run_span:
        raw = None
        resolved = "event"
        if engine == "lockstep":
            raw = run_grouped(
                table, flow_control, step_bounds, payloads, route_off,
                route_val, dep_struct, not_before, receive_overhead,
            )
            if raw is None:
                obs.event(
                    "engine.fallback", engine="lockstep",
                    reason="step-overlap", topology=topology_name,
                )
            else:
                resolved = "lockstep"
        if raw is None:
            raw = run_indexed(
                table, flow_control, payloads, route_off, route_val,
                dep_struct, not_before, receive_overhead,
                recorder, messages,
            )
        result = _result_from_arrays(table, raw)
        run_span.set("resolved", resolved)
        run_span.set("finish_time", result.finish_time)
        if obs.metering():
            attrs = run_metric_attrs(
                topology, flow_control,
                zip(payloads, map(sub, route_off[1:], route_off[:-1])),
                result,
            )
            for key, value in attrs.items():
                run_span.set(key, value)
        return result
