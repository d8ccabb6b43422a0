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
:mod:`repro.ni.injector` from the schedule IR) and an optional earliest
injection time (the lockstep gate of §IV-A).  Events are processed in
global time order so FIFO arbitration between competing messages matches
their actual readiness order.

There is one scalar engine loop,
:func:`repro.network.lockstep_engine.run_indexed`, over flat CSR arrays;
its one processing order (a global ``(ready, push_seq)`` heap) is the
event engine, and the ``lockstep`` engine runs the same loop.  Every
schedule is lowered to a compiled schedule
(:class:`repro.collectives.compiled.CompiledSchedule`), which hands the
loop its arrays directly, runs a whole size ladder in one kernel call
and alone reaches the vectorized ``lockstep-vec`` engine, which returns
``==`` numbers.
:meth:`NetworkSimulator.run` plays recorded and hand-made
:class:`Message` lists: it lowers them to the same arrays and feeds an
optional trace recorder from its hooks.  The frozen seed loop in
:mod:`repro.bench.reference` is the reference every engine is pinned
against.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate, chain
from typing import (
    TYPE_CHECKING,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np

from ..topology.base import LinkKey, Topology
from .flowcontrol import DEFAULT_FLOW_CONTROL, FlowControl
from .links import dep_structure, link_table

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids an import cycle
    from ..trace.events import TraceRecorder

#: Known simulation engines.  ``event`` and ``lockstep`` run the same
#: scalar loop in heap order (``lockstep`` stays a name because saved
#: scenario strings use it); ``lockstep-vec`` runs the vectorized engine,
#: which falls back to that loop, on schedules of at least
#: ``lockstep_vec.MIN_OPS_PER_STEP`` ops per step and the loop on all
#: others.  The engine only chooses what runs:
#: every engine returns ``==`` numbers, so it is no part of a
#: prediction-cache ``point_key``, and a point cached under one engine is
#: served to all of them.
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
        # Both branches sum in topology link order, not dict order: float
        # addition is order-sensitive.
        busy_get = self.link_busy.get
        if len(bandwidths) <= 1:
            total_capacity_time = (
                self.finish_time * topology.total_link_capacity()
            )
            if total_capacity_time <= 0:
                return 0.0
            busy = sum(busy_get(key, 0.0) for key in topology.links)
            return busy / total_capacity_time
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
        """Simulate ``messages``; optionally report events to ``recorder``.

        Lowers the list to the columns of the array heap — routes as a
        CSR of dense link ids, ``deps`` as a
        :func:`~repro.network.links.dep_structure` triple,
        payload, gate and overhead columns — and plays them with
        :func:`~repro.network.lockstep_engine.run_arrays` on the
        ``event`` engine, which emits the ``sim.run`` span.  A route
        naming a link the topology lacks raises
        ``KeyError``; a dependency index outside the list raises
        ``ValueError``.

        The recorder observes hop grants and message completions as they
        are computed (see :mod:`repro.trace`); it never alters the
        simulation — results are bit-identical with and without one.
        """
        from .lockstep_engine import engine_columns, run_arrays

        n = len(messages)
        table = link_table(self.topology)
        id_of = table.id_of
        routes = [msg.route for msg in messages]
        route_val = list(map(id_of.__getitem__, chain.from_iterable(routes)))
        deps = [msg.deps for msg in messages]
        dep_val = list(chain.from_iterable(deps))
        if dep_val and not 0 <= min(dep_val) <= max(dep_val) < n:
            raise ValueError("message dependency index out of range")
        # Payload classes: wire bytes are computed once per distinct size.
        classes, index = np.unique(
            np.array([msg.payload_bytes for msg in messages], dtype=np.float64),
            return_inverse=True,
        )
        return run_arrays(
            self.topology,
            self.flow_control,
            "event",
            (classes, index),
            engine_columns(
                table,
                [0, *accumulate(map(len, routes))],
                route_val,
                dep_structure([0, *accumulate(map(len, deps))], dep_val),
            ),
            np.array([msg.not_before for msg in messages], dtype=np.float64),
            np.array(
                [msg.receive_overhead for msg in messages], dtype=np.float64
            ),
            recorder=recorder,
            messages=messages,
        )


def run_metric_attrs(topology: Topology, flow_control: FlowControl,
                     payload_hops: Iterable[Tuple[float, int]],
                     result: SimulationResult) -> Dict[str, object]:
    """The metric-only ``sim.run`` attributes of one finished run.

    ``payload_hops`` yields one ``(payload_bytes, hop count)`` pair per
    message, in message order.  Reads already-computed values only, so
    collection cannot perturb simulated timings.
    """
    fc = flow_control
    # Summed in link-table order, not dict order: float addition is
    # order-sensitive.
    busy_get = result.link_busy.get
    # Head-flit (framing) overhead actually put on wires: per distinct
    # payload, overhead bytes x the number of hops that carried it.
    hops_by_payload: Dict[float, int] = {}
    for payload, hops in payload_hops:
        if hops:
            hops_by_payload[payload] = hops_by_payload.get(payload, 0) + hops
    return {
        "flow": fc.name,
        "wire_bytes": result.total_wire_bytes,
        "link_busy_time": sum(
            busy_get(key, 0.0) for key in link_table(topology).keys
        ),
        "queue_delays": [
            delay for delay in result.queue_delays() if delay > 0
        ],
        "overhead_bytes": sum(
            fc.overhead_bytes(payload) * hops
            for payload, hops in hops_by_payload.items()
        ),
    }
