"""Pre-optimization (seed) implementations of the performance-critical paths.

This module preserves, verbatim in behaviour, the implementations that
shipped before the fast-path overhaul:

* :func:`reference_build_trees` — Algorithm 1 with the per-turn
  ``parents_for_step`` rescan and the full (2, 3, None) route-limit ladder
  on every network, with the seed §III-C3 switch search
  (one BFS per probe) on switched fabrics;
* :func:`reference_run` — the simulator inner loop with per-hop
  ``topo.link()`` lookups, unconditional channel argmin, and the separate
  sum/max passes for the ideal delivery time;
* :func:`reference_dep_structure` — the dependents-CSR loop the array
  engines' ``dep_structure`` replaced with array ops;
* :func:`reference_dependency_lists` / :func:`reference_step_estimates` /
  :func:`reference_step_gates` / :func:`reference_build_messages` /
  :func:`reference_simulate_allreduce` — the uncached schedule-lowering
  pipeline that re-derived dependencies, routes, and gate times on every
  call;
* :func:`reference_build_schedule` — the per-op ``CommOp`` loops of
  the ring, 2D-Ring, hierarchical and double-binary-tree builders,
  which now emit integer op tables;
* :func:`reference_compile_schedule` — the object compiler that lowered a
  ``Schedule`` to its CSR columns with per-op ``Fraction`` arithmetic, a
  per-unit dependency scan and a per-op serialization-profile loop;
* :func:`reference_all_reduce` — the numeric executor with the per-step
  full-matrix snapshot.

They exist for two reasons.  The golden-equivalence tests assert the
optimized paths produce *bit-identical* schedules, timings, and reductions
(see ``tests/test_golden_equivalence.py``).  The :mod:`repro.bench` harness
times optimized-vs-reference on the same machine, so the recorded speedups
are hardware-independent and regressions are detectable in CI.
"""

from __future__ import annotations

import heapq
import itertools
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from ..collectives import ALGORITHMS
from ..collectives.compiled import CompiledSchedule
from ..collectives.dbtree import double_binary_trees
from ..collectives.hierarchical import _node_groups
from ..collectives.multitree import (
    TREE_PRIORITIES,
    SpanningTree,
    trees_to_schedule,
)
from ..collectives.schedule import ChunkRange, CommOp, OpKind, Schedule
from ..network.flowcontrol import DEFAULT_FLOW_CONTROL, FlowControl
from ..network.simulator import (
    Message,
    MessageTiming,
    SimulationResult,
)
from ..topology.base import (
    Allocation,
    AllocationGraph,
    IndirectAllocationGraph,
    LinkKey,
    Topology,
)
from ..topology.grid import Grid2D
from ..topology.rings import ring_order


# -- construction (seed build_trees) ---------------------------------------------


class _SeedIndirectAllocationGraph(AllocationGraph):
    """The seed §III-C3 switch search, frozen.

    One BFS per (parent, uplink, route limit), rebuilding the parent's
    attach list through ``is_switch`` and copying the path list at every
    step.  The golden battery compares the optimized allocator against
    this one, so it must never be edited for speed.
    """

    def find_child(self, parent, eligible, max_route_len=None):
        topo = self.topology
        attach_keys = [
            (parent, v)
            for v in topo.neighbors_cached(parent)
            if topo.is_switch(v)
        ]
        for first_key in attach_keys:
            if self.remaining(first_key) <= 0:
                continue
            start_switch = first_key[1]
            frontier: List[Tuple[int, List[LinkKey]]] = [(start_switch, [first_key])]
            visited = {start_switch}
            while frontier:
                next_frontier: List[Tuple[int, List[LinkKey]]] = []
                for switch, path in frontier:
                    if max_route_len is not None and len(path) + 1 > max_route_len:
                        continue
                    child = self._eject(switch, path, eligible)
                    if child is not None:
                        route = path + [(switch, child)]
                        for key in route:
                            self._consume(key)
                        return Allocation(parent, child, route)
                    for nxt in topo.neighbors_cached(switch):
                        if not topo.is_switch(nxt) or nxt in visited:
                            continue
                        key = (switch, nxt)
                        if self.remaining(key) - path.count(key) > 0:
                            visited.add(nxt)
                            next_frontier.append((nxt, path + [key]))
                frontier = next_frontier
        return None

    def _eject(self, switch, path, eligible):
        topo = self.topology
        for child in topo.neighbors_cached(switch):
            if topo.is_switch(child):
                continue
            if not eligible(child):
                continue
            if self.remaining((switch, child)) > 0:
                return child
        return None


def _seed_allocation_graph(topology: Topology) -> AllocationGraph:
    """A step's allocator, with the frozen seed search on switched fabrics."""
    alloc = topology.allocation_graph()
    if isinstance(alloc, IndirectAllocationGraph):
        return _SeedIndirectAllocationGraph(topology)
    return alloc


def reference_build_trees(
    topology: Topology, priority: str = "root-id"
) -> Tuple[List[SpanningTree], int]:
    """The seed Algorithm 1 loop: O(n) parent rescans, no failure memo."""
    if priority not in TREE_PRIORITIES:
        raise ValueError(
            "unknown priority %r; choose from %s" % (priority, TREE_PRIORITIES)
        )
    n = topology.num_nodes
    trees = [SpanningTree(root=node, num_nodes=n) for node in topology.nodes]
    step = 0
    while not all(tree.complete for tree in trees):
        step += 1
        alloc = _seed_allocation_graph(topology)
        progress = True
        while progress:
            progress = False
            if priority == "most-remaining":
                turn_order = sorted(trees, key=lambda t: (len(t.members), t.root))
            else:
                turn_order = trees
            for tree in turn_order:
                if tree.complete:
                    continue
                members = tree.members
                eligible = lambda c: c not in members  # noqa: E731
                found = None
                for limit in (2, 3, None):
                    for parent in tree.parents_for_step(step):
                        found = alloc.find_child(parent, eligible, limit)
                        if found is not None:
                            break
                    if found is not None:
                        break
                if found is not None:
                    tree.add(found, step)
                    progress = True
        if step > 4 * n:
            raise RuntimeError("MultiTree construction did not converge")
    return trees, step


def reference_multitree_schedule(
    topology: Topology, priority: str = "root-id"
) -> Schedule:
    """Seed construction lowered through the shared schedule builder."""
    trees, tot_t = reference_build_trees(topology, priority)
    return trees_to_schedule(trees, tot_t, topology, priority)


# -- simulation (seed NetworkSimulator.run) --------------------------------------


def reference_run(
    topology: Topology, flow_control: FlowControl, messages: List[Message]
) -> SimulationResult:
    """The seed simulator loop (no spec snapshot, no capacity-1 fast path)."""
    topo = topology
    fc = flow_control

    channels: Dict[LinkKey, List[float]] = {}

    def channel_pool(key: LinkKey) -> List[float]:
        pool = channels.get(key)
        if pool is None:
            pool = [0.0] * topo.link(*key).capacity
            channels[key] = pool
        return pool

    timings = [MessageTiming() for _ in messages]
    link_busy: Dict[LinkKey, float] = {}
    total_wire = 0.0

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
            heapq.heappush(heap, (ready_time[idx], next(counter), idx))

    finish = 0.0
    processed = 0
    while heap:
        ready, _seq, idx = heapq.heappop(heap)
        msg = messages[idx]
        timing = timings[idx]
        timing.ready = ready

        wire = fc.wire_bytes(msg.payload_bytes)
        total_wire += wire * len(msg.route)
        head = ready
        inject = None
        for key in msg.route:
            spec = topo.link(*key)
            pool = channel_pool(key)
            ch = min(range(len(pool)), key=pool.__getitem__)
            ser = wire / spec.bandwidth
            grant = max(head, pool[ch])
            pool[ch] = grant + ser
            link_busy[key] = link_busy.get(key, 0.0) + ser
            if inject is None:
                inject = grant
            head = grant + spec.latency
        if not msg.route:
            inject = ready
            deliver = ready
            ideal = ready
        else:
            last = msg.route[-1]
            deliver = head + wire / topo.link(*last).bandwidth
            ideal = ready + sum(
                topo.link(*key).latency for key in msg.route
            ) + max(wire / topo.link(*key).bandwidth for key in msg.route)
        timing.inject = inject
        timing.deliver = deliver
        timing.ideal_deliver = ideal
        finish = max(finish, deliver)
        processed += 1

        for dep_idx in dependents.get(idx, ()):
            wake = deliver + messages[dep_idx].receive_overhead
            ready_time[dep_idx] = max(ready_time[dep_idx], wake)
            remaining[dep_idx] -= 1
            if remaining[dep_idx] == 0:
                heapq.heappush(heap, (ready_time[dep_idx], next(counter), dep_idx))

    if processed != len(messages):
        stuck = [i for i in range(len(messages)) if remaining[i] > 0]
        raise RuntimeError(
            "dependency deadlock: %d messages never became ready (first: %s)"
            % (len(stuck), stuck[:5])
        )
    return SimulationResult(
        finish_time=finish,
        timings=timings,
        link_busy=link_busy,
        total_wire_bytes=total_wire,
    )


# -- schedule lowering (seed injector/lockstep, no caching) ----------------------


def reference_dependency_lists(schedule: Schedule) -> List[List[int]]:
    """Seed dependency derivation: recomputed from scratch on every call."""
    grain = max(schedule.granularity, 1)
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
    return deps


def reference_dep_structure(
    dep_off: Sequence[int], dep_val: Sequence[int]
) -> Tuple[List[int], List[int], List[int]]:
    """Seed dependents-CSR construction: a per-entry Python loop.

    The array engines' :func:`repro.network.lockstep_engine.dep_structure`
    builds the same ``(dependents_off, dependents_val, dep_counts)``
    triple with ``bincount``/``cumsum``/stable ``argsort``.
    """
    n = len(dep_off) - 1
    counts = [dep_off[i + 1] - dep_off[i] for i in range(n)]
    fanout = [0] * n
    for dep in dep_val:
        fanout[dep] += 1
    dd_off = [0] * (n + 1)
    for i in range(n):
        dd_off[i + 1] = dd_off[i] + fanout[i]
    cursor = list(dd_off)
    dd_val = [0] * len(dep_val)
    for idx in range(n):
        for k in range(dep_off[idx], dep_off[idx + 1]):
            dep = dep_val[k]
            dd_val[cursor[dep]] = idx
            cursor[dep] += 1
    return dd_off, dd_val, counts


def reference_step_estimates(
    schedule: Schedule, data_bytes: float, flow_control: FlowControl
) -> Dict[int, float]:
    """Seed per-step estimates: per-op route expansion and Fraction math."""
    est: Dict[int, float] = {}
    for op in schedule.ops:
        route = schedule.route_of(op)
        if not route:
            continue
        bandwidth = min(schedule.topology.link(*key).bandwidth for key in route)
        payload = float(op.chunk.fraction) * data_bytes
        ser = flow_control.serialization_time(payload, bandwidth)
        if ser > est.get(op.step, 0.0):
            est[op.step] = ser
    return est


def reference_step_gates(
    schedule: Schedule, data_bytes: float, flow_control: FlowControl
) -> Dict[int, float]:
    est = reference_step_estimates(schedule, data_bytes, flow_control)
    gates: Dict[int, float] = {}
    clock = 0.0
    for step in range(1, schedule.num_steps + 1):
        gates[step] = clock
        clock += est.get(step, 0.0)
    return gates


def reference_build_messages(
    schedule: Schedule,
    data_bytes: float,
    flow_control: FlowControl = DEFAULT_FLOW_CONTROL,
    lockstep: bool = True,
    scheduling_overhead: float = 0.0,
) -> List[Message]:
    deps = reference_dependency_lists(schedule)
    gates = (
        reference_step_gates(schedule, data_bytes, flow_control)
        if lockstep
        else {}
    )
    messages = []
    for idx, op in enumerate(schedule.ops):
        messages.append(
            Message(
                src=op.src,
                dst=op.dst,
                payload_bytes=float(op.chunk.fraction) * data_bytes,
                route=schedule.route_of(op),
                deps=deps[idx],
                not_before=gates.get(op.step, 0.0),
                receive_overhead=scheduling_overhead,
                tag=op,
            )
        )
    return messages


def reference_simulate_allreduce(
    schedule: Schedule,
    data_bytes: float,
    flow_control: FlowControl = DEFAULT_FLOW_CONTROL,
    lockstep: bool = True,
    scheduling_overhead: float = 0.0,
) -> SimulationResult:
    """The seed end-to-end prediction path for one data size."""
    if data_bytes <= 0:
        raise ValueError("data_bytes must be positive")
    messages = reference_build_messages(
        schedule, data_bytes, flow_control, lockstep, scheduling_overhead
    )
    return reference_run(schedule.topology, flow_control, messages)


def _reference_ser_profile(schedule: Schedule) -> List[Tuple[int, float, object]]:
    """Seed serialization profile: one route and bandwidth scan per op."""
    topo = schedule.topology
    seen = set()
    profile = []
    for op in schedule.ops:
        route = schedule.route_of(op)
        if not route:
            continue
        bandwidth = min(topo.link(*key).bandwidth for key in route)
        entry = (op.step, bandwidth, op.chunk.fraction)
        if entry not in seen:
            seen.add(entry)
            profile.append(entry)
    return profile


def reference_compile_schedule(schedule: Schedule) -> CompiledSchedule:
    """Seed object compiler: per-op ``Fraction`` columns and route scans.

    Builds every column of a :class:`CompiledSchedule` the way the seed
    ``compile_schedule`` did, on :func:`reference_dependency_lists` and a
    per-op serialization-profile scan.  The compile-equivalence battery
    pins the array-native compiler ``==`` to this one.
    """
    deps = reference_dependency_lists(schedule)
    ops = schedule.ops
    links: List[LinkKey] = []
    link_id: Dict[LinkKey, int] = {}
    route_off = [0]
    route_val: List[int] = []
    for op in ops:
        for key in schedule.route_of(op):
            lid = link_id.get(key)
            if lid is None:
                lid = link_id[key] = len(links)
                links.append(key)
            route_val.append(lid)
        route_off.append(len(route_val))
    dep_off = [0]
    dep_val: List[int] = []
    for dep_list in deps:
        dep_val.extend(dep_list)
        dep_off.append(len(dep_val))
    fracs = [op.chunk.fraction for op in ops]
    return CompiledSchedule(
        topology=schedule.topology,
        algorithm=schedule.algorithm,
        num_steps=schedule.num_steps,
        srcs=[op.src for op in ops],
        dsts=[op.dst for op in ops],
        steps=[op.step for op in ops],
        frac_num=[frac.numerator for frac in fracs],
        frac_den=[frac.denominator for frac in fracs],
        links=links,
        route_off=route_off,
        route_val=route_val,
        dep_off=dep_off,
        dep_val=dep_val,
        ser_profile=[
            (step, bandwidth, float(fraction))
            for step, bandwidth, fraction in _reference_ser_profile(schedule)
        ],
        metadata=schedule.metadata,
    )


# -- schedule builders (seed object op loops) ----------------------------------


def _reference_ring_ops(
    members: Sequence[int],
    base_lo: Fraction,
    part_fraction: Fraction,
    first_step: int,
    flow_base: int,
    ops: List[CommOp],
) -> int:
    """Seed ring rule: append a ring all-reduce of ``part_fraction``.

    The part is split into ``len(members)`` chunks; reduce-scatter then
    all-gather rotate them around the ring.  Returns the number of steps
    used (``2 * (len(members) - 1)``).
    """
    n = len(members)
    chunk_size = part_fraction / n
    chunks = [
        ChunkRange(base_lo + index * chunk_size,
                   base_lo + (index + 1) * chunk_size)
        for index in range(n)
    ]
    for t in range(1, n):
        for p in range(n):
            chunk = (p - t + 1) % n
            ops.append(
                CommOp(
                    kind=OpKind.REDUCE,
                    src=members[p],
                    dst=members[(p + 1) % n],
                    chunk=chunks[chunk],
                    step=first_step + t - 1,
                    flow=flow_base + chunk,
                )
            )
    for t in range(1, n):
        for p in range(n):
            chunk = (p - t + 2) % n
            ops.append(
                CommOp(
                    kind=OpKind.GATHER,
                    src=members[p],
                    dst=members[(p + 1) % n],
                    chunk=chunks[chunk],
                    step=first_step + n - 1 + t - 1,
                    flow=flow_base + chunk,
                )
            )
    return 2 * (n - 1)


def _reference_ring(topology: Topology, order: Optional[Sequence[int]] = None) -> Schedule:
    members = list(order) if order is not None else ring_order(topology)
    if sorted(members) != list(topology.nodes):
        raise ValueError("ring order must be a permutation of all nodes")
    ops: List[CommOp] = []
    _reference_ring_ops(members, Fraction(0), Fraction(1), 1, 0, ops)
    return Schedule(topology, ops, "ring", {"order": members})


def _reference_ring2d(topology: Grid2D) -> Schedule:
    if not isinstance(topology, Grid2D):
        raise ValueError("2D-Ring is dedicated to 2D Torus/Mesh networks (Table I)")
    width, height = topology.width, topology.height
    quarter = Fraction(1, 4)
    ops: List[CommOp] = []
    flow_base = 0
    for part_idx, (first_dim, forward) in enumerate(
        [("x", True), ("x", False), ("y", True), ("y", False)]
    ):
        base_lo = part_idx * quarter
        phases = ("x", "y") if first_dim == "x" else ("y", "x")
        step = 1
        for dim in phases:
            if dim == "x":
                lines = [topology.row_members(y) for y in range(height)]
            else:
                lines = [topology.col_members(x) for x in range(width)]
            used = 0
            for line in lines:
                members = list(line) if forward else list(reversed(line))
                used = _reference_ring_ops(
                    members, base_lo, quarter, step, flow_base, ops
                )
            step += used
            flow_base += max(width, height)
    return Schedule(topology, ops, "2d-ring",
                    {"width": width, "height": height, "parts": 4})


def _reference_hierarchical(topology: Topology) -> Schedule:
    groups = _node_groups(topology)
    sizes = {len(g) for g in groups}
    if len(sizes) != 1:
        raise ValueError("switch groups must be equal-sized")
    group_size = sizes.pop()
    if group_size < 2 or len(groups) < 2:
        raise ValueError("need at least 2 groups of at least 2 nodes")
    ops: List[CommOp] = []
    whole = Fraction(1)
    step = 1
    used = 0
    for group in groups:
        used = _reference_ring_ops(group, Fraction(0), whole, step, 0, ops)
    step += used
    flow_base = group_size
    for position in range(group_size):
        members = [group[position] for group in groups]
        _reference_ring_ops(members, Fraction(0), whole, step, flow_base, ops)
        flow_base += len(groups)
    return Schedule(topology, ops, "hierarchical",
                    {"groups": len(groups), "group_size": group_size})


def _reference_dbtree(topology: Topology, num_blocks: Optional[int] = None) -> Schedule:
    n = topology.num_nodes
    blocks = num_blocks if num_blocks is not None else max(2, n // 2)
    if blocks < 1:
        raise ValueError("num_blocks must be >= 1")
    trees = double_binary_trees(n)
    ops: List[CommOp] = []
    reduce_span = 0
    plans = []
    for tree in trees:
        heights = {node: tree.height_of(node) for node in tree.nodes()}
        depths = {node: tree.depth_of(node) for node in tree.nodes()}
        plans.append((tree, heights, depths))
        local_last = blocks + max(heights.values())
        reduce_span = max(reduce_span, 2 * local_last)
    half = Fraction(1, 2)
    for tree_idx, (tree, heights, depths) in enumerate(plans):
        base_lo = tree_idx * half
        for block in range(blocks):
            lo = base_lo + Fraction(block, blocks) * half
            hi = base_lo + Fraction(block + 1, blocks) * half
            chunk = ChunkRange(lo, hi)
            for child, parent in tree.parent.items():
                local = block + heights[child] + 1
                ops.append(
                    CommOp(
                        kind=OpKind.REDUCE,
                        src=child,
                        dst=parent,
                        chunk=chunk,
                        step=2 * local - 1 + tree_idx,
                        flow=tree_idx,
                    )
                )
                local_gather = block + depths[child]
                ops.append(
                    CommOp(
                        kind=OpKind.GATHER,
                        src=parent,
                        dst=child,
                        chunk=chunk,
                        step=reduce_span + 2 * local_gather - 1 + tree_idx,
                        flow=tree_idx,
                    )
                )
    return Schedule(topology, ops, "dbtree",
                    {"num_blocks": blocks, "roots": [t.root for t in trees]})


_REFERENCE_BUILDERS = {
    "ring": _reference_ring,
    "2d-ring": _reference_ring2d,
    "hierarchical": _reference_hierarchical,
    "dbtree": _reference_dbtree,
}


def reference_build_schedule(algorithm: str, topology: Topology, **kwargs) -> Schedule:
    """Seed builder: the per-op ``CommOp`` loops of the Θ(n²) baselines.

    Ring, 2D-Ring, hierarchical and double binary tree build their
    object op lists here the way the seed builders did; every other
    algorithm is still object-built live and runs its live builder.
    The compile-equivalence battery pins the column-backed builders'
    ``ops`` and compiled forms ``==`` to these.
    """
    builder = _REFERENCE_BUILDERS.get(algorithm) or ALGORITHMS[algorithm]
    return builder(topology, **kwargs)


# -- numeric execution (seed Communicator.all_reduce inner loop) -----------------


def reference_all_reduce(schedule: Schedule, data: np.ndarray) -> np.ndarray:
    """Seed reduction executor: full-matrix snapshot at every step."""
    data = np.array(data, copy=True)
    length = data.shape[1]
    for _step, ops in schedule.steps():
        snapshot = data.copy()
        for op in ops:
            lo = int(op.chunk.lo * length)
            hi = int(op.chunk.hi * length)
            if lo >= hi:
                continue
            if op.kind is OpKind.REDUCE:
                data[op.dst, lo:hi] += snapshot[op.src, lo:hi]
            else:
                data[op.dst, lo:hi] = snapshot[op.src, lo:hi]
    return data
