"""Injection engine: turns a schedule into simulated network traffic.

This is the behavioural model of Fig. 6: the head of each node's schedule
table is issued once (a) its dependencies are satisfied — a ``Reduce`` needs
all children's partials, a ``Gather`` needs the parent's broadcast — and
(b) the lockstep counter has reached the entry's step.  Dependencies are
derived generically from the schedule IR: an op depends on every
earlier-step delivery *to its source node* whose data range overlaps the
op's range, which reduces exactly to the Parent/Children fields of the
Fig. 5 tables for tree flows and extends unchanged to the non-tree baselines
(ring rotations, halving-doubling exchanges), to which the paper applies the
same scheduling hardware "for fair comparison" (§V-A).

The derivation is array-native: :func:`dependency_csr` joins integer
``(node, unit)`` keys of the schedule's unit spans in numpy, for the one
lowering of a schedule (:func:`repro.collectives.compiled.lower_schedule`),
which everything here runs or turns into messages.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Optional, Tuple

import numpy as np

from ..collectives.compiled import lower_schedule, segment_arange
from ..collectives.schedule import Schedule
from ..network.flowcontrol import DEFAULT_FLOW_CONTROL, FlowControl
from ..network.simulator import (
    Message,
    NetworkSimulator,
    SimulationResult,
    check_engine,
)

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids an import cycle
    from ..trace.events import TraceRecorder


def dependency_csr(schedule: Schedule) -> Tuple[np.ndarray, np.ndarray]:
    """``(dep_off, dep_val)``: every op's dependencies in CSR form.

    Op ``i`` depends on op ``j`` iff ``j.dst == i.src``, ``j.step < i.step``
    and their data ranges overlap: the sender cannot forward (Gather) or
    aggregate-and-send (Reduce) data it has not yet received.

    Derived by one join on packed ``node * granularity + unit`` keys of
    the integer unit spans (:meth:`Schedule.op_columns`): deliveries to
    each op's ``dst`` against requests from each op's ``src``, keeping
    earlier-step deliveries.  Each op's dependencies come out unique and
    ascending.  Memoized on the schedule; callers must not mutate it.
    """
    cached = schedule.__dict__.get("_dependency_csr")
    if cached is not None:
        return cached
    cols = schedule.op_columns()
    count = len(cols.steps)
    lo = cols.unit_lo[cols.chunk]
    widths = cols.unit_hi[cols.chunk] - lo
    # One row per (op, unit) of the op's range.
    row_op = np.repeat(np.arange(count, dtype=np.int64), widths)
    row_unit = np.repeat(lo, widths) + segment_arange(widths)
    del lo
    row_step = cols.steps[row_op]
    grain = cols.granularity
    rows = len(row_op)
    # Ranks of the delivery keys (to each op's dst) and the request keys
    # (from each op's src), then deliveries ordered by (rank, step):
    # each request's matches are one contiguous run of its key's
    # earlier-step deliveries, empty when nothing reaches its key.  The
    # keys are their own ranks unless packing them with the step could
    # overflow; then they are ranked densely.
    rank = np.concatenate((cols.dsts[row_op] * grain + row_unit,
                           cols.srcs[row_op] * grain + row_unit))
    del row_unit
    span = int(cols.steps.max()) + 1 if count else 1
    if rows and (int(rank.max()) + 1) * span >= 2 ** 63:
        _, rank = np.unique(rank, return_inverse=True)
    packed = rank * span
    del rank
    packed[:rows] += row_step
    order = np.argsort(packed[:rows])
    delivery = packed[:rows][order]
    deliverer = row_op[order]
    del order
    # Sorted queries keep the binary searches cache-local.
    order = np.argsort(packed[rows:])
    wanted = packed[rows:][order]
    del packed
    start = np.searchsorted(delivery, wanted)
    stop = np.searchsorted(delivery, wanted + row_step[order])
    del wanted, delivery
    matches = stop - start
    waiter = np.repeat(row_op[order], matches)
    source = deliverer[np.repeat(start, matches) + segment_arange(matches)]
    # Unique (waiter, source) pairs, sorted: each op's dependencies come
    # out ascending.  Sorting and dropping repeats in place beats
    # np.unique's hash path at million-row scale.
    width = max(count, 1)
    pairs = waiter * width + source
    del waiter, source
    pairs.sort()
    pairs = pairs[np.flatnonzero(np.diff(pairs, prepend=-1))]
    dep_val = pairs % width
    dep_off = np.zeros(count + 1, dtype=np.int64)
    np.cumsum(np.bincount(pairs // width, minlength=count), out=dep_off[1:])
    cached = schedule.__dict__["_dependency_csr"] = (dep_off, dep_val)
    return cached


@dataclass
class AllReduceResult:
    """Timing outcome of one simulated all-reduce."""

    schedule: Schedule
    data_bytes: float
    simulation: SimulationResult

    @property
    def time(self) -> float:
        return self.simulation.finish_time

    @property
    def bandwidth(self) -> float:
        """The paper's all-reduce bandwidth metric: data size / time (§VI-A)."""
        return self.data_bytes / self.time if self.time > 0 else float("inf")

    def max_queue_delay(self) -> float:
        return self.simulation.max_queue_delay()

    def mean_link_utilization(self) -> float:
        return self.simulation.mean_link_utilization(self.schedule.topology)


def build_messages(
    schedule: Schedule,
    data_bytes: float,
    flow_control: FlowControl = DEFAULT_FLOW_CONTROL,
    lockstep: bool = True,
    scheduling_overhead: float = 0.0,
    recorder: Optional["TraceRecorder"] = None,
) -> List[Message]:
    """Lower schedule ops to simulator messages with deps and gates.

    ``scheduling_overhead`` is the per-dependency software latency between
    receiving a message and issuing the next one; the co-designed NI makes
    this effectively zero (hardware dependency clearing, Fig. 6), while a
    software implementation of the same schedules pays it on every hop of
    every dependency chain (§VII-B).

    The messages are those of the compiled form, whose rows keep
    ``schedule.ops`` order, so message ``i``'s ``tag`` is op ``i``: a
    trace recorder can attribute simulator events back to the schedule
    (op kind and lockstep step).  When a ``recorder`` is given, it gets
    the run's metadata and the lockstep gates as step-boundary events.
    """
    return lower_schedule(schedule)._lower_recorded(
        data_bytes, flow_control, lockstep, scheduling_overhead, recorder,
        schedule.ops,
    )


def simulate_allreduce(
    schedule: Schedule,
    data_bytes: float,
    flow_control: FlowControl = DEFAULT_FLOW_CONTROL,
    lockstep: bool = True,
    scheduling_overhead: float = 0.0,
    recorder: Optional["TraceRecorder"] = None,
    engine: str = "event",
) -> AllReduceResult:
    """Simulate one all-reduce of ``data_bytes`` under the given schedule.

    Pass a :class:`repro.trace.Trace` as ``recorder`` to capture the full
    event timeline (hop grants, message lifetimes, lockstep gates) for
    export and critical-path analysis: the :func:`build_messages` list
    plays on the event engine, whatever ``engine`` asks for.  ``None``
    (the default) builds no message: the lowered schedule
    (:meth:`repro.collectives.compiled.CompiledSchedule.simulate`) runs
    on ``engine``, gated or not, with ``==`` results on every engine.
    """
    check_engine(engine)
    if data_bytes <= 0:
        raise ValueError("data_bytes must be positive")
    if recorder is None:
        simulation = lower_schedule(schedule).simulate(
            data_bytes, flow_control, lockstep, scheduling_overhead,
            engine=engine,
        ).simulation
    else:
        messages = build_messages(
            schedule, data_bytes, flow_control, lockstep,
            scheduling_overhead, recorder,
        )
        sim = NetworkSimulator(schedule.topology, flow_control)
        simulation = sim.run(messages, recorder)
    return AllReduceResult(schedule, data_bytes, simulation)
