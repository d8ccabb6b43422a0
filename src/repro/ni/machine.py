"""Behavioural model of the all-reduce schedule-management hardware (Fig. 6).

Each node's NI holds a schedule table, a timestep counter, a lockstep
down-counter and dependency-clearing logic:

1. the head entries of the table are inspected; an entry issues when its
   ``Step`` equals the timestep counter and its dependencies are satisfied
   (children's partials for ``Reduce``, the parent's broadcast for
   ``Gather``);
2. the opcode decodes to either a DMA/send (Reduce/Gather) or a lockstep
   stall (NOP), whose duration is the estimated step time (footnote 4);
3. the timestep counter increments when every entry of the current step has
   issued, the lockstep counter has expired, and the next entry belongs to
   the next step;
4. received ``Reduce`` messages clear child dependencies, received
   ``Gather`` messages clear parent dependencies.

:func:`simulate_with_ni_machines` co-simulates one machine per node against
the link-level network model, providing an end-to-end check that the
hardware protocol — not just the abstract schedule — completes the
collective.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from ..collectives.compiled import lower_schedule
from ..collectives.schedule import Schedule
from ..network.flowcontrol import DEFAULT_FLOW_CONTROL, FlowControl
from .schedule_table import ScheduleTable, TableEntry, TableOp, build_schedule_tables


@dataclass
class IssueRecord:
    """One entry issued by a machine: when and what."""

    node: int
    entry: TableEntry
    time: float


class NIMachine:
    """One node's schedule-management hardware."""

    def __init__(self, table: ScheduleTable, step_time: Dict[int, float]) -> None:
        self.node = table.node
        self.entries: List[TableEntry] = sorted(table.entries, key=lambda e: e.step)
        self.step_time = step_time
        self.timestep = 1
        self.lockstep_free_at = 0.0
        self._cursor = 0
        self._reduces_seen: Dict[int, Set[int]] = {}
        self._gathers_seen: Set[int] = set()
        self.issued: List[IssueRecord] = []

    # -- receive path (Fig. 6 steps 4-6) ----------------------------------------

    def receive_reduce(self, flow: int, from_node: int) -> None:
        self._reduces_seen.setdefault(flow, set()).add(from_node)

    def receive_gather(self, flow: int) -> None:
        self._gathers_seen.add(flow)

    # -- issue path (Fig. 6 steps 1-3) -------------------------------------------

    @property
    def done(self) -> bool:
        return self._cursor >= len(self.entries)

    def _dependencies_met(self, entry: TableEntry) -> bool:
        if entry.op is TableOp.NOP:
            return True
        if entry.op is TableOp.REDUCE:
            seen = self._reduces_seen.get(entry.flow, set())
            return all(child in seen for child in entry.children)
        # Gather: non-roots need the parent's broadcast; roots need their
        # reduce aggregation to have completed (Fig. 6, step 5).
        if entry.parent is not None:
            return entry.flow in self._gathers_seen
        seen = self._reduces_seen.get(entry.flow, set())
        return all(sender in seen for sender in entry.reduce_deps)

    def try_issue(self, now: float) -> Optional[TableEntry]:
        """Issue the head entry if the Fig. 6 conditions hold at ``now``.

        Returns the issued entry (``None`` if blocked).  NOPs are consumed
        internally by arming the lockstep down-counter.
        """
        if self.done or now < self.lockstep_free_at:
            return None
        entry = self.entries[self._cursor]
        if entry.step > self.timestep:
            # Timestep counter increments only once the lockstep counter is
            # idle and the next operation belongs to the next step.
            self.timestep = entry.step
        if entry.step != self.timestep or not self._dependencies_met(entry):
            return None
        self._cursor += 1
        if entry.op is TableOp.NOP:
            self.lockstep_free_at = now + self.step_time.get(entry.step, 0.0)
            return self.try_issue(now)  # NOPs retire silently
        self.issued.append(IssueRecord(self.node, entry, now))
        return entry


@dataclass
class NISimulationResult:
    finish_time: float
    issues: List[IssueRecord]

    def issues_for(self, node: int) -> List[IssueRecord]:
        return [rec for rec in self.issues if rec.node == node]


def simulate_with_ni_machines(
    schedule: Schedule,
    data_bytes: float,
    flow_control: FlowControl = DEFAULT_FLOW_CONTROL,
) -> NISimulationResult:
    """Co-simulate per-node NI machines over an idealized contention-free
    network (per-hop latency + bottleneck serialization per message).

    The delivery model ignores injection-port serialization (a node issuing
    several entries in one step sends them concurrently), so completion
    times are a lower bound on the link-level simulator's — exact for
    schedules that issue one message per node per step (ring), optimistic
    for multi-child steps on switch-based networks.  The point here is
    validating the *protocol*: dependency clearing, NOP stalls, and
    timestep advancement complete the collective without any global
    synchronization.
    """
    topo = schedule.topology
    estimates = lower_schedule(schedule).step_estimates(
        data_bytes, flow_control
    )
    tables = build_schedule_tables(schedule, int(data_bytes), insert_nops=True)
    machines = {node: NIMachine(tables[node], estimates) for node in topo.nodes}

    # Destination lookup: (src, kind, flow, step) -> [dst...]
    targets: Dict[Tuple[int, str, Optional[int], int], List[int]] = {}
    for op in schedule.ops:
        key = (op.src, op.kind.value, op.flow, op.step)
        targets.setdefault(key, []).append(op.dst)

    counter = itertools.count()
    # (delivery time, seq, kind, sender, receiver, flow)
    events: List[Tuple[float, int, str, int, int, int]] = []
    issues: List[IssueRecord] = []
    finish = 0.0

    def poll(node: int, now: float) -> None:
        machine = machines[node]
        while True:
            entry = machine.try_issue(now)
            if entry is None:
                return
            kind = "reduce" if entry.op is TableOp.REDUCE else "gather"
            key = (node, kind, entry.flow, entry.step)
            for dst in targets.get(key, []):
                route = topo.route(node, dst)
                latency = sum(topo.link(*k).latency for k in route)
                ser = max(
                    flow_control.serialization_time(entry.size, topo.link(*k).bandwidth)
                    for k in route
                ) if route else 0.0
                heapq.heappush(
                    events,
                    (now + latency + ser, next(counter), kind, node, dst, entry.flow),
                )

    for node in topo.nodes:
        poll(node, 0.0)
    while events:
        now, _seq, kind, sender, dst, flow = heapq.heappop(events)
        finish = max(finish, now)
        if kind == "reduce":
            machines[dst].receive_reduce(flow, sender)
        else:
            machines[dst].receive_gather(flow)
        for node in topo.nodes:
            poll(node, now)

    for machine in machines.values():
        issues.extend(machine.issued)
        if not machine.done:
            raise RuntimeError("node %d stalled with pending entries" % machine.node)
    issues.sort(key=lambda rec: rec.time)
    return NISimulationResult(finish_time=finish, issues=issues)
