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
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Set

from ..collectives.schedule import CommOp, Schedule
from ..network.flowcontrol import DEFAULT_FLOW_CONTROL, FlowControl
from ..network.simulator import (
    Message,
    NetworkSimulator,
    SimulationResult,
    check_engine,
)
from .lockstep import step_gates

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids an import cycle
    from ..trace.events import TraceRecorder


def dependency_lists(schedule: Schedule) -> List[List[int]]:
    """For each op (by index), the op indices it must wait for.

    Op ``i`` depends on op ``j`` iff ``j.dst == i.src``, ``j.step < i.step``
    and their data ranges overlap: the sender cannot forward (Gather) or
    aggregate-and-send (Reduce) data it has not yet received.

    The result depends only on the (immutable) op list, so it is computed
    once per schedule and cached — repeated simulations of the same
    schedule at different data sizes (bandwidth sweeps) skip the quadratic
    overlap derivation entirely.  Callers must not mutate the result.
    """
    cached = schedule.__dict__.get("_dependency_lists")
    if cached is not None:
        return cached
    grain = max(schedule.granularity, 1)
    # receives[node][unit] -> list of (step, op index) delivering that unit.
    receives: Dict[int, Dict[int, List]] = {}
    for idx, op in enumerate(schedule.ops):
        lo, hi = op.chunk.unit_span(grain)
        units = receives.setdefault(op.dst, {})
        for unit in range(lo, hi):
            units.setdefault(unit, []).append((op.step, idx))

    deps: List[List[int]] = []
    for op in schedule.ops:
        found: Set[int] = set()
        units = receives.get(op.src)
        if units:
            lo, hi = op.chunk.unit_span(grain)
            for unit in range(lo, hi):
                for step, idx in units.get(unit, ()):
                    if step < op.step:
                        found.add(idx)
        deps.append(sorted(found))
    schedule.__dict__["_dependency_lists"] = deps
    return deps


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

    Every message's ``tag`` is its :class:`CommOp`, so a trace recorder can
    attribute simulator events back to the schedule (op kind and lockstep
    step).  When a ``recorder`` is given, the lockstep gates are reported to
    it as step-boundary events.
    """
    deps = dependency_lists(schedule)
    routes = schedule.op_routes()
    gates = step_gates(schedule, data_bytes, flow_control) if lockstep else {}
    if recorder is not None:
        for step in sorted(gates):
            recorder.step_gate(step, gates[step])
    messages = []
    for idx, op in enumerate(schedule.ops):
        messages.append(
            Message(
                src=op.src,
                dst=op.dst,
                payload_bytes=op.chunk.bytes_of(data_bytes),
                route=routes[idx],
                deps=deps[idx],
                not_before=gates.get(op.step, 0.0),
                receive_overhead=scheduling_overhead,
                tag=op,
            )
        )
    return messages


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
    export and critical-path analysis; ``None`` (the default) simulates
    with zero observation overhead.

    ``engine="event"`` (the default), a ``recorder`` or ``lockstep=False``
    lowers to messages and runs the object heap
    (:meth:`repro.network.simulator.NetworkSimulator.run`).  Otherwise
    ``engine="lockstep"``/``"lockstep-vec"`` run on the compiled arrays
    (:meth:`repro.collectives.compiled.CompiledSchedule.simulate`):
    bit-identical results, with a counted fallback down the engine
    ladder wherever a fast engine declines.
    """
    check_engine(engine)
    if data_bytes <= 0:
        raise ValueError("data_bytes must be positive")
    if engine != "event" and lockstep and recorder is None:
        from ..collectives.compiled import compile_schedule

        result = compile_schedule(schedule).simulate(
            data_bytes, flow_control, lockstep, scheduling_overhead,
            engine=engine,
        )
        return AllReduceResult(schedule, data_bytes, result.simulation)
    if recorder is not None:
        recorder.meta("algorithm", schedule.algorithm)
        recorder.meta("topology", schedule.topology.name)
        recorder.meta("data_bytes", float(data_bytes))
        recorder.meta("flow_control", flow_control.name)
        recorder.meta("lockstep", lockstep)
        recorder.meta("engine", engine)
    messages = build_messages(
        schedule, data_bytes, flow_control, lockstep, scheduling_overhead, recorder
    )
    sim = NetworkSimulator(schedule.topology, flow_control)
    return AllReduceResult(schedule, data_bytes, sim.run(messages, recorder))
