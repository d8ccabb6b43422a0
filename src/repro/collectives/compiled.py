"""Compiled, payload-independent schedule artifacts.

Building a schedule (tree construction, §III), deriving its message
dependency DAG, and expanding per-op routes are all independent of the
all-reduce payload size — yet a bandwidth sweep re-pays those costs at
every data point, and every sweep worker process re-pays them from
scratch.  A :class:`CompiledSchedule` captures the full lowered product
once — op endpoints, steps, chunk fractions, routes, dependency lists,
and the deduplicated serialization profile that drives the lockstep gate
estimates (§IV-A) — so a simulation at a new data size only has to scale
payloads and gates, not re-derive structure.

The compiled form is columnar (flat integer arrays with offset tables
rather than per-op records), which keeps 1024-node artifacts with
hundreds of thousands of ops cheap to persist and load;
:mod:`repro.sweep.artifacts` stores them on disk as binary column shards
with the same atomic-write + schema-version discipline as the prediction
cache.  :meth:`CompiledSchedule.to_dict` is a JSON-safe copy-out used to
compare compiled forms with ``==``.

Exactness: chunk fractions are stored as integer numerator/denominator
pairs and converted with a single true division, which rounds identically
to ``float(Fraction(n, d))`` — payloads, gate estimates, and therefore
every simulated timing are bit-identical to simulating the original
:class:`~repro.collectives.schedule.Schedule` (guarded by
``tests/test_artifacts.py``).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .. import obs
from ..topology.base import LinkKey, Topology, topology_fingerprint

#: Format tag embedded in every stored compiled schedule.  Bump when the
#: columnar layout or the meaning of any field changes; the artifact store
#: rejects unknown formats, so stale artifacts read as misses.
COMPILED_FORMAT = "repro-compiled-v1"


def _column_list(col) -> list:
    """A plain-int/float list view of a column of any backing type.

    Columns may be plain lists (the object compiler), ``array.array``
    or numpy arrays (the streaming compiler, artifact shards);
    serialization and the equality oracle always see the identical
    plain-list form.
    """
    if isinstance(col, list):
        return col
    if hasattr(col, "tolist"):
        return col.tolist()
    return list(col)


def segment_arange(counts: np.ndarray, reverse: bool = False) -> np.ndarray:
    """``[0..c0-1, 0..c1-1, ...]`` (or each segment reversed)."""
    total = int(counts.sum())
    ends = np.cumsum(counts)
    idx = np.arange(total, dtype=np.int64)
    starts = np.repeat(ends - counts, counts)
    within = idx - starts
    if reverse:
        return np.repeat(counts.astype(np.int64), counts) - 1 - within
    return within


class CompiledSchedule:
    """The payload-independent lowered product of one schedule.

    Everything the injector derives from a :class:`Schedule` except the
    payload sizes themselves: per-op endpoints/steps, chunk fractions,
    expanded routes, the dependency DAG, and the serialization profile
    behind the lockstep gates.  Instances are immutable after
    construction; derived state (dense link ids, step bounds, the
    dependents graph) is memoized.

    Bulk state lives in flat parallel arrays — routes and dependencies in
    CSR ``(offsets, values)`` form over a deduplicated link-key table —
    mirroring the on-disk columnar layout.  Besides loading fast, the
    flat form keeps million-op artifacts nearly invisible to the cyclic
    garbage collector: per-op lists/tuples would be rescanned by every
    generational collection during simulation, a measured multi-x
    slowdown at 1024-node scale.  The per-op views (:attr:`routes`,
    :attr:`deps`) are materialized on demand and not retained.
    """

    __slots__ = (
        "topology",
        "algorithm",
        "num_steps",
        "srcs",
        "dsts",
        "steps",
        "frac_num",
        "frac_den",
        "links",
        "route_off",
        "route_val",
        "dep_off",
        "dep_val",
        "ser_profile",
        "metadata",
        "_route_csr",
        "_active",
        "_step_bounds",
        "_dep_struct",
        "_frac_floats",
        "_frac_arr",
        "_vec_plan",
        "_wire_classes",
    )

    def __init__(
        self,
        topology: Topology,
        algorithm: str,
        num_steps: int,
        srcs: List[int],
        dsts: List[int],
        steps: List[int],
        frac_num: List[int],
        frac_den: List[int],
        links: List[LinkKey],
        route_off: List[int],
        route_val: List[int],
        dep_off: List[int],
        dep_val: List[int],
        ser_profile: List[Tuple[int, float, float]],
        metadata: Optional[Dict[str, object]] = None,
    ) -> None:
        self.topology = topology
        self.algorithm = algorithm
        self.num_steps = num_steps
        self.srcs = srcs
        self.dsts = dsts
        self.steps = steps
        self.frac_num = frac_num
        self.frac_den = frac_den
        #: Deduplicated link-key table; ``route_val`` holds indices into it.
        self.links = links
        self.route_off = route_off
        self.route_val = route_val
        self.dep_off = dep_off
        self.dep_val = dep_val
        #: Deduplicated ``(step, bottleneck_bandwidth, chunk_fraction)``
        #: triples in first-occurrence order — the exact inputs of
        #: :func:`repro.ni.lockstep.step_estimates`.
        self.ser_profile = ser_profile
        self.metadata = dict(metadata) if metadata else {}
        self._route_csr: Optional[List[int]] = None
        self._active: Optional[Dict[int, int]] = None
        self._step_bounds: Optional[np.ndarray] = None
        self._dep_struct = None
        self._frac_floats = None
        self._frac_arr = None
        self._vec_plan = None
        self._wire_classes = None

    def __len__(self) -> int:
        return len(self.srcs)

    @property
    def frac_floats(self) -> List[float]:
        """Per-op chunk fractions as floats, materialized lazily.

        n/d true division rounds identically to ``float(Fraction(n,
        d))``, so these floats match ChunkRange.bytes_of's memoized
        factor.  Lazy because streaming-compiled schedules carry
        millions of ops behind constant-class columns — the vectorized
        engine reads :meth:`frac_classes` instead and never pays for the
        per-op list.
        """
        floats = self._frac_floats
        if floats is None:
            floats = self._frac_floats = [
                num / den for num, den in zip(self.frac_num, self.frac_den)
            ]
        return floats

    def frac_classes(self):
        """``(unique_fractions, per_op_class_index)`` numpy pair, memoized.

        The class table behind the batched engine's wire-size dedup.
        Constant-fraction schedules (MultiTree: every op moves 1/n)
        short-circuit to a single class with a zero-stride index column,
        keeping the per-op axis unmaterialized at any scale.
        """
        cached = self._wire_classes
        if cached is None:
            num = self.frac_num
            den = self.frac_den
            if (
                isinstance(num, np.ndarray)
                and isinstance(den, np.ndarray)
                and num.strides == (0,) == den.strides
                and len(num)
            ):
                uniq = np.asarray(
                    [int(num[0]) / int(den[0])], dtype=np.float64
                )
                idx = np.broadcast_to(np.intp(0), (len(num),))
            else:
                frac_arr = np.asarray(self.frac_floats, dtype=np.float64)
                uniq, idx = np.unique(frac_arr, return_inverse=True)
                idx = idx.astype(np.intp)
            cached = self._wire_classes = (uniq, idx)
        return cached

    @property
    def routes(self) -> List[Tuple[LinkKey, ...]]:
        """Per-op route tuples, materialized fresh from the CSR arrays."""
        links = self.links
        off = self.route_off
        val = self.route_val
        return [
            tuple(links[val[k]] for k in range(off[i], off[i + 1]))
            for i in range(len(off) - 1)
        ]

    @property
    def deps(self) -> List[List[int]]:
        """Per-op dependency lists, materialized fresh from the CSR arrays."""
        off = self.dep_off
        val = self.dep_val
        if hasattr(val, "tolist") and not isinstance(val, list):
            val = val.tolist()
            off = _column_list(off)
        return [val[off[i]:off[i + 1]] for i in range(len(off) - 1)]

    # -- payload-dependent lowering ---------------------------------------

    def step_estimates(self, data_bytes: float, flow_control) -> Dict[int, float]:
        """Estimated duration of each step — matches the ni layer exactly."""
        est: Dict[int, float] = {}
        ser_time = flow_control.serialization_time
        for step, bandwidth, fraction in self.ser_profile:
            ser = ser_time(fraction * data_bytes, bandwidth)
            if ser > est.get(step, 0.0):
                est[step] = ser
        return est

    def step_gates(self, data_bytes: float, flow_control) -> Dict[int, float]:
        """Earliest lockstep injection time per step (§IV-A)."""
        from ..ni.lockstep import lockstep_gates

        est = self.step_estimates(data_bytes, flow_control)
        return lockstep_gates(self.num_steps, est)[0]

    def _gates(self, data_bytes: float, flow_control) -> Dict[int, float]:
        """:meth:`step_gates` plus the ni layer's ``lockstep.gates`` event."""
        from ..ni import lockstep as ni

        est = self.step_estimates(data_bytes, flow_control)
        gates, span = ni.lockstep_gates(self.num_steps, est)
        if obs.metering():
            if self._active is None:  # NOP-stall counts, memoized
                self._active = ni.active_nodes_per_step(
                    self.steps, self.srcs, self.dsts
                )
            ni.emit_gate_event(self.topology, self.algorithm, self.num_steps,
                               self._active, est, span)
        return gates

    def build_messages(
        self,
        data_bytes: float,
        flow_control,
        lockstep: bool = True,
        scheduling_overhead: float = 0.0,
    ):
        """Lower to simulator :class:`Message` objects (``tag`` is ``None``).

        Compiled schedules drop the original :class:`CommOp` objects, so
        trace events recorded against these messages carry no op
        attribution — use the uncompiled path when attribution matters.
        """
        from ..network.simulator import Message

        gates = self._gates(data_bytes, flow_control) if lockstep else {}
        frac_floats = self.frac_floats
        steps = self.steps
        routes = self.routes
        deps = self.deps
        return [
            Message(
                src=self.srcs[i],
                dst=self.dsts[i],
                payload_bytes=frac_floats[i] * data_bytes,
                route=routes[i],
                deps=deps[i],
                not_before=gates.get(steps[i], 0.0),
                receive_overhead=scheduling_overhead,
            )
            for i in range(len(steps))
        ]

    # -- memoized per-topology structure -----------------------------------

    def _table_route_val(self, table) -> List[int]:
        """``route_val`` remapped from link-table indices to dense link ids."""
        route_val = self._route_csr
        if route_val is None:
            id_of = table.id_of
            remap = [id_of[key] for key in self.links]
            route_val = self._route_csr = [
                remap[v] for v in _column_list(self.route_val)
            ]
        return route_val

    def _dep_structure(self):
        """The memoized :func:`~repro.network.links.dep_structure` triple
        of this schedule's dependency CSR, for the scalar engines."""
        dep_struct = self._dep_struct
        if dep_struct is None:
            from ..network.links import dep_structure

            dep_struct = self._dep_struct = dep_structure(
                self.dep_off, self.dep_val
            )
        return dep_struct

    @property
    def step_bounds(self) -> np.ndarray:
        """Row offsets of the lockstep steps: ``num_steps + 1`` entries.

        Ops are stored sorted by step — the object compiler keeps the
        ``Schedule``'s ``(step, src, dst, chunk)`` op order, the streaming
        compiler lexsorts by ``(step, src, dst, root)`` and artifacts
        store the columns as they are — so step ``s`` is the contiguous
        row range ``step_bounds[s - 1]:step_bounds[s]``.  Every lockstep
        engine reads this one layout.  A step with no routed ops is an
        empty range; its zero estimated duration shares a gate with the
        next step, and :func:`repro.network.lockstep_engine.run_grouped`
        skips it.  Dependencies always point to a strictly earlier step
        (the injector derives them from earlier-step deliveries only),
        and any two steps that both contain ops are separated by a
        strictly positive gate increment, so the caller contract of
        ``run_grouped`` holds by construction.

        Raises ``ValueError`` when the ``steps`` column is not
        nondecreasing within ``1..num_steps``: such a schedule has no
        range layout, and running it would silently reorder its ops.
        """
        bounds = self._step_bounds
        if bounds is None:
            steps = np.asarray(self.steps)
            if len(steps) and not (
                1 <= steps[0]
                and steps[-1] <= self.num_steps
                and (steps[1:] >= steps[:-1]).all()
            ):
                raise ValueError(
                    "compiled schedule is not in step order: its steps "
                    "column must be nondecreasing within 1..%d"
                    % self.num_steps
                )
            bounds = self._step_bounds = np.searchsorted(
                steps, np.arange(1, self.num_steps + 2), side="left"
            )
        return bounds

    def simulate(
        self,
        data_bytes: float,
        flow_control=None,
        lockstep: bool = True,
        scheduling_overhead: float = 0.0,
        recorder=None,
        engine: str = "lockstep",
    ):
        """Simulate one all-reduce of ``data_bytes`` from the compiled form.

        Bit-identical to
        :func:`repro.ni.injector.simulate_allreduce` on the schedule this
        was compiled from, for every engine.  Lockstep-gated runs without
        a ``recorder`` never build :class:`Message` objects; they spread
        the step gates over :attr:`step_bounds`, so a schedule whose ops
        are not in step order raises ``ValueError``:

        * ``engine="event"`` runs the array heap
          (:func:`~repro.network.lockstep_engine.run_indexed`), the event
          engine's processing order and arithmetic over the CSR arrays;
        * ``engine="lockstep"`` (the default here) runs the step-level
          engine over the same arrays, one row range per step, and drops
          to the array heap when step-level processing would diverge;
        * ``engine="lockstep-vec"`` runs the numpy engine of
          :mod:`repro.network.lockstep_vec` (a one-column batch over the
          same ranges) with the ``lockstep`` ladder above as its fallback.

        Both scalar engines emit the spans and metrics of
        :func:`~repro.network.lockstep_engine.run_arrays`.  A
        ``recorder`` or ``lockstep=False`` lowers to messages and plays
        them with :meth:`repro.network.simulator.NetworkSimulator.run`
        — the array heap again, which feeds the recorder — whatever the
        engine.
        """
        from ..network.flowcontrol import DEFAULT_FLOW_CONTROL
        from ..network.simulator import NetworkSimulator, check_engine
        from ..ni.injector import AllReduceResult

        check_engine(engine)
        if flow_control is None:
            flow_control = DEFAULT_FLOW_CONTROL
        if data_bytes <= 0:
            raise ValueError("data_bytes must be positive")
        if not lockstep or recorder is not None:
            messages = self.build_messages(
                data_bytes, flow_control, lockstep, scheduling_overhead
            )
            if recorder is not None and lockstep:
                gates = self.step_gates(data_bytes, flow_control)
                for step in sorted(gates):
                    recorder.step_gate(step, gates[step])
            sim = NetworkSimulator(self.topology, flow_control)
            return AllReduceResult(
                self, data_bytes, sim.run(messages, recorder)
            )
        if engine == "lockstep-vec":
            from ..network.lockstep_vec import run_batch

            batch = run_batch(
                self, (data_bytes,), flow_control, lockstep,
                scheduling_overhead, keep_timings=True,
            )
            return batch.results[0]
        return AllReduceResult(
            self, data_bytes,
            self._run_arrays(
                data_bytes, flow_control, scheduling_overhead, engine
            ),
        )

    def _run_arrays(self, data_bytes, flow_control, scheduling_overhead,
                    engine):
        """One lockstep-gated ``event``/``lockstep`` run over the arrays."""
        from ..network.lockstep_engine import link_table, run_arrays

        table = link_table(self.topology)
        gates = self._gates(data_bytes, flow_control)
        # Payload scaling and gate lookup vectorize: float64 multiply
        # is IEEE-identical to the scalar product the injector
        # computes, and spreading the gates over the step ranges copies
        # floats untouched.
        frac_arr = self._frac_arr
        if frac_arr is None:
            frac_arr = self._frac_arr = np.asarray(
                self.frac_floats, dtype=np.float64
            )
        payloads = (frac_arr * data_bytes).tolist()
        bounds = self.step_bounds
        gate_vec = np.zeros(self.num_steps + 1, dtype=np.float64)
        for step, gate in gates.items():
            gate_vec[step] = gate
        gate_arr = np.repeat(gate_vec[1:], np.diff(bounds)).tolist()
        # A plain-list view per run: the engines index it per message, and
        # a memoized copy would pin ~300 KiB per 64-node MultiTree.
        route_off = _column_list(self.route_off)
        return run_arrays(
            self.topology,
            flow_control,
            engine,
            bounds.tolist(),
            payloads,
            route_off,
            self._table_route_val(table),
            self._dep_structure(),
            gate_arr,
            [scheduling_overhead] * len(payloads),
        )

    def simulate_batch(
        self,
        sizes: Sequence[int],
        flow_control=None,
        lockstep: bool = True,
        scheduling_overhead: float = 0.0,
        keep_timings: bool = False,
    ):
        """Evaluate every payload size in one vectorized pass.

        Thin wrapper over :func:`repro.network.lockstep_vec.run_batch`:
        the schedule structure is walked once and a trailing size axis
        carries the whole batch, with per-size scalar fallback (counted,
        never silent) wherever the vectorized engine declines.  Every
        returned number is bit-identical to per-size
        ``simulate(size, engine="lockstep")`` calls.
        """
        from ..network.lockstep_vec import run_batch

        return run_batch(
            self, sizes, flow_control, lockstep, scheduling_overhead,
            keep_timings=keep_timings,
        )

    # -- serialization -----------------------------------------------------

    def to_dict(self) -> Dict[str, object]:
        """Columnar JSON-safe form: flat arrays + offset tables.

        The in-memory layout already matches the columnar schema, so this
        is a field-for-field copy-out — the ``==`` oracle for comparing
        two compiled forms.
        """
        return {
            "format": COMPILED_FORMAT,
            "topology": topology_fingerprint(self.topology),
            "topology_name": self.topology.name,
            "algorithm": self.algorithm,
            "num_steps": self.num_steps,
            "srcs": _column_list(self.srcs),
            "dsts": _column_list(self.dsts),
            "steps": _column_list(self.steps),
            "frac_num": _column_list(self.frac_num),
            "frac_den": _column_list(self.frac_den),
            "links": [[key[0], key[1]] for key in self.links],
            "route_offsets": _column_list(self.route_off),
            "route_values": _column_list(self.route_val),
            "dep_offsets": _column_list(self.dep_off),
            "dep_values": _column_list(self.dep_val),
            "ser_steps": [entry[0] for entry in self.ser_profile],
            "ser_bandwidth": [entry[1] for entry in self.ser_profile],
            "ser_fraction": [entry[2] for entry in self.ser_profile],
            "metadata": {
                key: value
                for key, value in self.metadata.items()
                if isinstance(value, (str, int, float, bool, list))
            },
        }


def compile_schedule(schedule) -> CompiledSchedule:
    """Lower a :class:`Schedule` to its payload-independent compiled form.

    Every column comes from the schedule's memoized integer views: op
    columns (:meth:`~repro.collectives.schedule.Schedule.op_columns`),
    the dependency CSR (:func:`~repro.ni.injector.dependency_csr`), the
    per-pair route table and the serialization profile — the same
    derivations the injector runs, frozen into flat plain-list columns.
    Runs inside a ``schedule.compile`` span (``path="object"``), the
    streaming compiler's span name.
    """
    with obs.span(
        "schedule.compile",
        topology=schedule.topology.name,
        algorithm=schedule.algorithm,
        path="object",
    ) as sp:
        compiled = lower_schedule(schedule)
        sp.set("ops", len(compiled))
        return compiled


def lower_schedule(schedule) -> CompiledSchedule:
    """:func:`compile_schedule` without its span.

    For callers that lower a schedule only to run it
    (:func:`repro.ni.injector.simulate_allreduce`) and for the streaming
    compiler's degenerate case, which sits inside its own span.  The
    imports are local because the ni layer imports the collectives
    package.
    """
    from ..ni.injector import dependency_csr
    from ..ni.lockstep import _ser_profile

    cols = schedule.op_columns()
    dep_off, dep_val = dependency_csr(schedule)
    ser_profile = [
        (step, bandwidth, float(fraction))
        for step, bandwidth, fraction in _ser_profile(schedule)
    ]
    routes, index = schedule.route_table()
    # Link ids in first-use order over the ops: a route's links are all
    # seen at its first use, so scanning the distinct routes in
    # first-use order assigns the same ids as a per-op scan.
    links: List[LinkKey] = []
    link_id: Dict[LinkKey, int] = {}
    hops: List[int] = []
    flat_ids: List[int] = []
    for route in routes:
        for key in route:
            lid = link_id.get(key)
            if lid is None:
                lid = link_id[key] = len(links)
                links.append(key)
            flat_ids.append(lid)
        hops.append(len(route))
    flat = np.asarray(flat_ids, dtype=np.int64)
    lens = np.asarray(hops, dtype=np.int64)[index]
    firsts = np.zeros(len(routes) + 1, dtype=np.int64)
    np.cumsum(hops, out=firsts[1:])
    route_off = np.zeros(len(index) + 1, dtype=np.int64)
    np.cumsum(lens, out=route_off[1:])
    route_val = flat[np.repeat(firsts[index], lens) + segment_arange(lens)]
    del flat_ids, flat, lens, firsts
    # Every array pass is done: only plain-list conversions remain.
    return CompiledSchedule(
        topology=schedule.topology,
        algorithm=schedule.algorithm,
        num_steps=int(cols.steps.max()) if len(cols.steps) else 0,
        srcs=cols.srcs.tolist(),
        dsts=cols.dsts.tolist(),
        steps=cols.steps.tolist(),
        frac_num=cols.frac_num[cols.chunk].tolist(),
        frac_den=cols.frac_den[cols.chunk].tolist(),
        links=links,
        route_off=route_off.tolist(),
        route_val=route_val.tolist(),
        dep_off=dep_off.tolist(),
        dep_val=dep_val.tolist(),
        ser_profile=ser_profile,
        metadata=schedule.metadata,
    )
