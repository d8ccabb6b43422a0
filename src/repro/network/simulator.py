"""Discrete-event, link-level interconnect simulator.

The simulator plays a set of point-to-point :class:`Message`\\ s over the
topology's links.  Each link is a set of ``capacity`` independently
grantable channels with FIFO arbitration; a message acquires the channels
along its route hop by hop in virtual-cut-through fashion (the head advances
one link latency per hop, each channel is held for the message's wire
serialization time).  Buffers are assumed deep enough to hold a per-step
chunk (the paper configures VC buffers to cover the credit round trip and
uses NI-side staging, Table III and footnote 4), so backpressure is not
modeled; contention appears as FIFO queueing delay at each channel.

Messages carry explicit dependency edges (receive-before-send, produced by
:mod:`repro.ni.injector` from the schedule tables) and an optional earliest
injection time (the lockstep gate of §IV-A).  Events are processed in
global time order so FIFO arbitration between competing messages matches
their actual readiness order.

This object heap is the only engine that plays :class:`Message` lists,
and the only one that feeds a trace recorder; it is the reference side
of every exactness check.  The fast engines (``lockstep`` and
``lockstep-vec``, :mod:`repro.network.lockstep_engine` and
:mod:`repro.network.lockstep_vec`) run only on the compiled CSR arrays
of :class:`repro.collectives.compiled.CompiledSchedule`, which
:func:`repro.ni.injector.simulate_allreduce` routes them through.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
)

from .. import obs
from ..metrics.registry import get_registry
from ..topology.base import LinkKey, Topology
from .flowcontrol import DEFAULT_FLOW_CONTROL, FlowControl
from .links import link_table

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids an import cycle
    from ..trace.events import TraceRecorder

#: Known simulation engines, in fallback-ladder order (most specialized
#: last).  The engine only chooses what runs: every engine returns ``==``
#: numbers, so it is no part of a prediction-cache ``point_key``, and a
#: point cached under one engine is served to all of them.
ENGINES = ("event", "lockstep", "lockstep-vec")


def check_engine(engine: str) -> None:
    """Raise ``ValueError`` naming the choices unless ``engine`` is known."""
    if engine not in ENGINES:
        raise ValueError(
            "unknown engine %r (choose: %s)" % (engine, "/".join(ENGINES))
        )


@dataclass(slots=True)
class Message:
    """One transfer to simulate.

    ``deps`` are indices (into the message list) that must be *delivered*
    before this message may inject; ``not_before`` is an absolute earliest
    injection time (lockstep gate).

    Declared with ``slots=True``: simulations allocate one instance per
    scheduled op, so the per-instance ``__dict__`` is measurable overhead
    (guarded by a bit-identical-results test in ``tests/test_slots.py``).
    """

    src: int
    dst: int
    payload_bytes: float
    route: Sequence[LinkKey]
    deps: Sequence[int] = ()
    not_before: float = 0.0
    #: Extra latency between a dependency's delivery and this message
    #: becoming ready — models software scheduling/synchronization cost when
    #: the co-designed NI hardware (which makes this ~0) is absent (§VII-B).
    receive_overhead: float = 0.0
    tag: object = None


@dataclass(slots=True)
class MessageTiming:
    ready: float = 0.0
    inject: float = 0.0
    deliver: float = 0.0
    #: Delivery time the message would see on an idle network (ready +
    #: per-hop latencies + bottleneck serialization).
    ideal_deliver: float = 0.0

    @property
    def queue_delay(self) -> float:
        """Total time lost to contention anywhere along the path."""
        return self.deliver - self.ideal_deliver


@dataclass
class SimulationResult:
    finish_time: float
    timings: List[MessageTiming]
    link_busy: Dict[LinkKey, float]
    total_wire_bytes: float

    def max_queue_delay(self) -> float:
        # The array engines' LazyTimings answer from their arrays, without
        # materializing one MessageTiming per message.
        fast = getattr(self.timings, "max_queue_delay", None)
        if fast is not None:
            return fast()
        return max((t.queue_delay for t in self.timings), default=0.0)

    def queue_delays(self) -> List[float]:
        """Per-message queueing delay, in message order."""
        fast = getattr(self.timings, "queue_delays", None)
        if fast is not None:
            return fast()
        return [t.queue_delay for t in self.timings]

    def link_utilization(self, topology: Topology) -> Dict[LinkKey, float]:
        """Busy fraction per link over the whole run (per unit channel).

        Every link of ``topology`` appears in the result; links the run
        never touched report 0.0 utilization.  Heterogeneous fabrics need
        no special casing here: busy time is serialization time, which
        already embeds each link's own bandwidth, and the divisor is that
        link's channel capacity — a saturated quarter-rate uplink reads
        1.0 exactly like a saturated full-rate edge link.
        """
        busy_get = self.link_busy.get
        if self.finish_time <= 0:
            return {key: 0.0 for key in topology.links}
        return {
            key: busy_get(key, 0.0) / (self.finish_time * spec.capacity)
            for key, spec in topology.links.items()
        }

    def mean_link_utilization(self, topology: Topology) -> float:
        """Mean utilization over *all* links of the topology (idle included).

        On a heterogeneous fabric each channel's busy fraction is
        weighted by its link's bandwidth, so the mean reports the share
        of the fabric's deliverable bytes/s actually used — an idle
        quarter-rate uplink drags the mean four times less than an idle
        edge link.  Uniform fabrics (every link at one bandwidth) keep
        the historical unweighted formula bit for bit, which the
        weighting degenerates to exactly.
        """
        if self.finish_time <= 0:
            return 0.0
        bandwidths = {spec.bandwidth for spec in topology.links.values()}
        if len(bandwidths) <= 1:
            total_capacity_time = (
                self.finish_time * topology.total_link_capacity()
            )
            if total_capacity_time <= 0:
                return 0.0
            return sum(self.link_busy.values()) / total_capacity_time
        busy_get = self.link_busy.get
        weighted_busy = 0.0
        weighted_capacity = 0.0
        for key, spec in topology.links.items():
            weighted_busy += busy_get(key, 0.0) * spec.bandwidth
            weighted_capacity += spec.capacity * spec.bandwidth
        if weighted_capacity <= 0:
            return 0.0
        return weighted_busy / (self.finish_time * weighted_capacity)


class NetworkSimulator:
    """Plays messages over a topology under a flow-control model."""

    def __init__(
        self,
        topology: Topology,
        flow_control: FlowControl = DEFAULT_FLOW_CONTROL,
    ) -> None:
        self.topology = topology
        self.flow_control = flow_control

    def run(
        self,
        messages: List[Message],
        recorder: Optional["TraceRecorder"] = None,
    ) -> SimulationResult:
        """Simulate ``messages`` on the object heap; optionally report
        events to ``recorder``.

        The recorder observes hop grants and message completions as they
        are computed (see :mod:`repro.trace`); it never alters the
        simulation — results are bit-identical with and without one.

        This is the semantic reference: a global ready-time heap that
        works for any dependency DAG.  The fast engines (``lockstep``,
        ``lockstep-vec``) run only on compiled CSR arrays — see
        :meth:`repro.collectives.compiled.CompiledSchedule.simulate`.
        """
        topology_name = self.topology.name
        with obs.span(
            "sim.run",
            topology=topology_name,
            engine="event",
            messages=len(messages),
        ) as run_span:
            with obs.span("engine.event", topology=topology_name):
                result = self._run_event(messages, recorder)
            run_span.set("resolved", "event")
            run_span.set("finish_time", result.finish_time)
            return result

    def _run_event(
        self,
        messages: List[Message],
        recorder: Optional["TraceRecorder"],
    ) -> SimulationResult:
        """The global ready-time heap — the semantic reference engine.

        Kept beside the array heap (:func:`repro.network.lockstep_engine.
        run_indexed`, the same order and arithmetic over CSR arrays)
        because it is the only engine that feeds a trace recorder and the
        reference side of every exactness check.
        """
        topo = self.topology
        fc = self.flow_control

        # Hot-loop setup: the shared memoized link-spec snapshot (dense
        # integer link ids instead of tuple-keyed dictionary lookups per
        # hop — the same :class:`repro.network.links.LinkTable` the
        # lockstep engines use), per-payload wire-size memoization (an
        # all-reduce has few distinct payload sizes), and local bindings of
        # the attributes the loop touches on every event.
        table = link_table(topo)
        id_of = table.id_of
        bandwidth_col = table.bandwidth
        latency_col = table.latency
        capacity_col = table.capacity
        channels: Dict[int, List[float]] = {}
        wire_cache: Dict[float, float] = {}
        wire_bytes = fc.wire_bytes
        heappush = heapq.heappush
        heappop = heapq.heappop

        # Per-message hot state as parallel arrays (ready/inject/deliver/
        # ideal); MessageTiming objects are materialized once, after the
        # loop, so the hot loop never touches per-message dataclasses.
        n = len(messages)
        inject_arr = [0.0] * n
        deliver_arr = [0.0] * n
        ideal_arr = [0.0] * n
        link_busy: Dict[LinkKey, float] = {}
        busy_get = link_busy.get
        channels_get = channels.get
        total_wire = 0.0

        # Dependency bookkeeping.
        remaining = [0] * len(messages)
        dependents: Dict[int, List[int]] = {}
        for idx, msg in enumerate(messages):
            remaining[idx] = len(msg.deps)
            for dep in msg.deps:
                dependents.setdefault(dep, []).append(idx)
        ready_time = [msg.not_before for msg in messages]

        counter = itertools.count()
        heap: List[Tuple[float, int, int]] = []
        for idx, msg in enumerate(messages):
            if remaining[idx] == 0:
                heappush(heap, (ready_time[idx], next(counter), idx))

        finish = 0.0
        processed = 0
        while heap:
            ready, _seq, idx = heappop(heap)
            msg = messages[idx]

            payload = msg.payload_bytes
            wire = wire_cache.get(payload)
            if wire is None:
                wire = wire_bytes(payload)
                wire_cache[payload] = wire
            route = msg.route
            # Zero-hop (src == dst) messages traverse no links and put no
            # bytes on any wire.
            total_wire += wire * len(route)
            if not route:  # zero-hop (src == dst) — degenerate, instant
                inject = ready
                deliver = ready
                ideal = ready
            else:
                head = ready
                inject = None
                ser = 0.0
                lat_sum = 0.0
                max_ser = 0.0
                for key in route:
                    li = id_of[key]
                    pool = channels_get(li)
                    if pool is None:
                        pool = [0.0] * capacity_col[li]
                        channels[li] = pool
                    # Fast path for the common capacity-1 link: no argmin
                    # scan over channels, the single slot is the channel.
                    if len(pool) == 1:
                        ch = 0
                        avail = pool[0]
                    else:
                        ch = min(range(len(pool)), key=pool.__getitem__)
                        avail = pool[ch]
                    ser = wire / bandwidth_col[li]
                    grant = head if head >= avail else avail
                    pool[ch] = grant + ser
                    link_busy[key] = busy_get(key, 0.0) + ser
                    if recorder is not None:
                        recorder.hop(idx, key, ch, head, grant, ser)
                    if inject is None:
                        inject = grant
                    latency = latency_col[li]
                    head = grant + latency
                    lat_sum += latency
                    if ser > max_ser:
                        max_ser = ser
                # ``ser`` still holds the last hop's serialization time, and
                # lat_sum/max_ser accumulated in route order match the
                # separate sum()/max() passes of the reference loop
                # bit-for-bit.
                deliver = head + ser
                ideal = ready + lat_sum + max_ser
            ready_time[idx] = ready
            inject_arr[idx] = inject
            deliver_arr[idx] = deliver
            ideal_arr[idx] = ideal
            if recorder is not None:
                recorder.message_done(
                    idx, msg, MessageTiming(ready, inject, deliver, ideal), wire
                )
            if deliver > finish:
                finish = deliver
            processed += 1

            for dep_idx in dependents.get(idx, ()):  # wake dependents
                wake = deliver + messages[dep_idx].receive_overhead
                if wake > ready_time[dep_idx]:
                    ready_time[dep_idx] = wake
                remaining[dep_idx] -= 1
                if remaining[dep_idx] == 0:
                    heappush(heap, (ready_time[dep_idx], next(counter), dep_idx))

        if processed != len(messages):
            stuck = [i for i in range(len(messages)) if remaining[i] > 0]
            raise RuntimeError(
                "dependency deadlock: %d messages never became ready (first: %s)"
                % (len(stuck), stuck[:5])
            )
        result = SimulationResult(
            finish_time=finish,
            timings=[
                MessageTiming(
                    ready_time[i], inject_arr[i], deliver_arr[i], ideal_arr[i]
                )
                for i in range(n)
            ],
            link_busy=link_busy,
            total_wire_bytes=total_wire,
        )
        registry = get_registry()
        if registry is not None:
            registry.counter(
                "sim.engine_runs", engine="event", topology=topo.name
            ).inc()
            self._record_metrics(registry, messages, result)
        return result

    def _record_metrics(
        self,
        registry,
        messages: List[Message],
        result: SimulationResult,
    ) -> None:
        record_run_metrics(
            registry,
            self.topology,
            self.flow_control,
            ((msg.payload_bytes, len(msg.route)) for msg in messages),
            result,
        )


def record_run_metrics(
    registry,
    topology: Topology,
    flow_control: FlowControl,
    payload_hops: Iterable[Tuple[float, int]],
    result: SimulationResult,
) -> None:
    """Fold one finished run into the ambient metrics registry.

    ``payload_hops`` yields one ``(payload_bytes, hop count)`` pair per
    message, in message order — from :class:`Message` objects or from
    compiled CSR arrays alike, so both paths record identical values.
    Runs strictly after the engine, on already-computed values, so
    collection cannot perturb simulated timings.
    """
    fc = flow_control
    topology_name = topology.name
    labels = {"topology": topology_name, "flow": fc.name}
    registry.counter("sim.runs", **labels).inc()
    registry.counter("sim.messages", **labels).inc(len(result.timings))
    registry.counter("sim.wire_bytes", **labels).inc(result.total_wire_bytes)
    # Summed in link-table order, not dict order: the object heap fills
    # ``link_busy`` in first-touch order and the array engines in
    # link-table order, and float addition is order-sensitive.
    busy_get = result.link_busy.get
    registry.counter("sim.link_busy_time", **labels).inc(
        sum(busy_get(key, 0.0) for key in link_table(topology).keys)
    )
    registry.gauge("sim.finish_time", **labels).set(result.finish_time)
    queue_hist = registry.histogram("sim.queue_delay", **labels)
    queue_total = 0.0
    for delay in result.queue_delays():
        if delay > 0:
            queue_hist.observe(delay)
            queue_total += delay
    registry.counter("sim.queue_delay_time", **labels).inc(queue_total)
    # Head-flit (framing) overhead actually put on wires: per distinct
    # payload, overhead bytes x the number of hops that carried it.
    hops_by_payload: Dict[float, int] = {}
    for payload, hops in payload_hops:
        if hops:
            hops_by_payload[payload] = hops_by_payload.get(payload, 0) + hops
    overhead = sum(
        fc.overhead_bytes(payload) * hops
        for payload, hops in hops_by_payload.items()
    )
    registry.counter("fc.overhead_bytes", flow=fc.name,
                     topology=topology_name).inc(overhead)
