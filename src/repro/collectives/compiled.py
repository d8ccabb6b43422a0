"""Compiled, payload-independent schedule artifacts.

Building a schedule (tree construction, §III), deriving its message
dependency DAG, and expanding per-op routes are all independent of the
all-reduce payload size.  A :class:`CompiledSchedule`, the one lowering
of a schedule, captures that product once — op endpoints, steps, chunk
fractions, routes, dependency lists, and the deduplicated serialization
profile that drives the lockstep gate estimates (§IV-A) — so every
simulation at a new data size only scales payloads and gates.

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
every simulated timing are bit-identical to the frozen seed's
simulation of the original schedule (guarded by
``tests/test_golden_equivalence.py`` and ``tests/test_artifacts.py``).
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

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


class ScheduleColumns(NamedTuple):
    """Everything of a :class:`CompiledSchedule` but its topology object.

    The fields are :class:`CompiledSchedule`'s constructor arguments
    after ``topology``, in order.  An owner that keeps one schedule's
    columns for many callers (the artifact store's in-process memo)
    keeps these rather than a :class:`CompiledSchedule`: :meth:`bind`
    hands each caller a fresh schedule over the shared columns, bound to
    the caller's topology, whose memoized engine state lives and dies
    with that caller.  Every schedule bound from one instance reads the
    same column objects, so nothing writes into them; an owner that
    shares them across callers makes its arrays read-only.
    """

    algorithm: str
    num_steps: int
    srcs: Sequence[int]
    dsts: Sequence[int]
    steps: Sequence[int]
    frac_num: Sequence[int]
    frac_den: Sequence[int]
    links: Sequence[LinkKey]
    route_off: Sequence[int]
    route_val: Sequence[int]
    dep_off: Sequence[int]
    dep_val: Sequence[int]
    ser_profile: Sequence[Tuple[int, float, float]]
    metadata: Dict[str, object]

    def bind(self, topology: Topology) -> "CompiledSchedule":
        """A new :class:`CompiledSchedule` over these columns on
        ``topology``, with none of its engine state computed yet."""
        return CompiledSchedule(topology, *self)


class CompiledSchedule:
    """The payload-independent lowered product of one schedule.

    Everything a simulation needs from a :class:`Schedule` except the
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
        "_engine_cols",
        "_ladder_cols",
        "_active",
        "_step_bounds",
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
        #: triples in first-occurrence order — the inputs of
        #: :meth:`step_estimates`.
        self.ser_profile = ser_profile
        self.metadata = dict(metadata) if metadata else {}
        self._engine_cols = None
        self._ladder_cols = None
        self._active: Optional[Dict[int, int]] = None
        self._step_bounds: Optional[np.ndarray] = None
        self._frac_floats = None
        self._frac_arr = None
        self._vec_plan = None
        self._wire_classes = None

    def __len__(self) -> int:
        return len(self.srcs)

    @property
    def frac_floats(self) -> List[float]:
        """Per-op chunk fractions as a Python float list, memoized.

        n/d true division rounds identically to ``float(Fraction(n,
        d))``, so these floats match ChunkRange.bytes_of's memoized
        factor.  Only the message lowering (:meth:`build_messages`)
        reads it; the engines read :meth:`frac_classes`, which never
        builds a per-op Python list.
        """
        floats = self._frac_floats
        if floats is None:
            floats = self._frac_floats = self.frac_array().tolist()
        return floats

    def frac_array(self) -> np.ndarray:
        """Per-op chunk fractions as a float64 array, memoized.

        A constant-fraction schedule (MultiTree: every op moves 1/n)
        gets a zero-stride view of its one fraction.  Otherwise numpy
        divides the integer columns: a chunk fraction's terms are chunk
        counts, far below 2**53, so both convert to float64 exactly and
        the quotient is the correctly rounded one Python's int true
        division returns.
        """
        arr = self._frac_arr
        if arr is None:
            num = np.asarray(self.frac_num, dtype=np.int64)
            den = np.asarray(self.frac_den, dtype=np.int64)
            if len(num) and num.strides == (0,) == den.strides:
                arr = np.broadcast_to(
                    np.float64(int(num[0]) / int(den[0])), num.shape
                )
            else:
                arr = num / den
            self._frac_arr = arr
        return arr

    def frac_classes(self):
        """``(unique_fractions, per_op_class_index)`` numpy pair, memoized.

        The class table behind every engine's wire-size dedup: wire
        bytes are computed once per class.
        Constant-fraction schedules short-circuit to a single class with
        a zero-stride index column, keeping the per-op axis
        unmaterialized at any scale.
        """
        cached = self._wire_classes
        if cached is None:
            fracs = self.frac_array()
            if len(fracs) and fracs.strides == (0,):
                uniq = fracs[:1].copy()
                idx = np.broadcast_to(np.intp(0), fracs.shape)
            else:
                uniq, idx = np.unique(fracs, return_inverse=True)
                idx = idx.astype(np.intp)
            cached = self._wire_classes = (uniq, idx)
        return cached

    @property
    def routes(self) -> List[Tuple[LinkKey, ...]]:
        """Per-op route tuples, materialized fresh from the CSR arrays.

        Ops on the same route share one tuple: fewer live objects for
        the garbage collector to scan while a message list is alive.
        """
        links = self.links
        keys = [links[v] for v in _column_list(self.route_val)]
        off = _column_list(self.route_off)
        shared: Dict[Tuple[LinkKey, ...], Tuple[LinkKey, ...]] = {}
        return [
            shared.setdefault(route, route)
            for route in (tuple(keys[lo:hi]) for lo, hi in zip(off, off[1:]))
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
        """Estimated duration of each step: the serialization time of its
        largest chunk under ``flow_control`` (§IV-A, footnote 4)."""
        est: Dict[int, float] = {}
        ser_time = flow_control.serialization_time
        # Steps repeat (fraction, bandwidth) pairs, and the time is a pure
        # function of the pair: compute each once per size.
        known: Dict[Tuple[float, float], float] = {}
        for step, bandwidth, fraction in self.ser_profile:
            ser = known.get((fraction, bandwidth))
            if ser is None:
                ser = known[fraction, bandwidth] = ser_time(
                    fraction * data_bytes, bandwidth
                )
            if ser > est.get(step, 0.0):
                est[step] = ser
        return est

    def step_gates(self, data_bytes: float, flow_control) -> Dict[int, float]:
        """Earliest lockstep injection time per step (§IV-A)."""
        from ..ni.lockstep import lockstep_gates

        est = self.step_estimates(data_bytes, flow_control)
        return lockstep_gates(self.num_steps, est)[0]

    def _gates(self, data_bytes: float, flow_control) -> Dict[int, float]:
        """:meth:`step_gates` plus the ``lockstep.gates`` event."""
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
        """Lower to simulator :class:`Message` objects (``tag`` is ``None``),
        in the op order of the schedule this was lowered from."""
        from ..network.simulator import Message

        gates = self._gates(data_bytes, flow_control) if lockstep else {}
        # Positional fields, in Message's order: src, dst, payload_bytes,
        # route, deps, not_before, receive_overhead.
        return [
            Message(src, dst, frac * data_bytes, route, deps,
                    gates.get(step, 0.0), scheduling_overhead)
            for src, dst, step, frac, route, deps in zip(
                self.srcs, self.dsts, self.steps, self.frac_floats,
                self.routes, self.deps,
            )
        ]

    def _lower_recorded(self, data_bytes, flow_control, lockstep,
                        scheduling_overhead, recorder, tags=None):
        """:meth:`build_messages`, message ``i`` tagged ``tags[i]``; a
        ``recorder`` gets the run's metadata (a message list always plays
        on the event engine) and the step gates."""
        messages = self.build_messages(
            data_bytes, flow_control, lockstep, scheduling_overhead
        )
        if tags is not None:
            for message, tag in zip(messages, tags):
                message.tag = tag
        if recorder is not None:
            for key, value in (
                ("algorithm", self.algorithm),
                ("topology", self.topology.name),
                ("data_bytes", float(data_bytes)),
                ("flow_control", flow_control.name),
                ("lockstep", lockstep),
                ("engine", "event"),
            ):
                recorder.meta(key, value)
            if lockstep:
                gates = self.step_gates(data_bytes, flow_control)
                for step in sorted(gates):
                    recorder.step_gate(step, gates[step])
        return messages

    # -- memoized per-topology structure -----------------------------------

    def _ladder_columns(self, table):
        """The memoized, checked
        :class:`~repro.network.lockstep_engine.LadderColumns` of this
        schedule: ``route_val`` remapped from link-table indices to dense
        link ids, and the dependency CSR, all int64 arrays."""
        cols = self._ladder_cols
        if cols is None:
            from ..network.lockstep_engine import ladder_columns

            id_of = table.id_of
            remap = np.array([id_of[key] for key in self.links], dtype=np.int64)
            cols = self._ladder_cols = ladder_columns(
                table,
                self.route_off,
                remap[np.asarray(self.route_val, dtype=np.int64)],
                self.dep_off,
                self.dep_val,
            )
        return cols

    def _engine_columns(self, table):
        """The memoized, checked
        :class:`~repro.network.lockstep_engine.EngineColumns` of this
        schedule: the routes of :meth:`_ladder_columns` and the
        dependents graph of the dependency CSR."""
        cols = self._engine_cols
        if cols is None:
            from ..network.links import dep_structure
            from ..network.lockstep_engine import engine_columns

            ladder = self._ladder_columns(table)
            cols = self._engine_cols = engine_columns(
                table, ladder.route_off, ladder.route_val,
                dep_structure(ladder.dep_off, ladder.dep_val),
            )
        return cols

    def _gate_row(self, data_bytes: float, flow_control) -> List[float]:
        """:meth:`_gates` as a list: entry ``s - 1`` is step ``s``'s gate."""
        return list(self._gates(data_bytes, flow_control).values())

    @property
    def step_bounds(self) -> np.ndarray:
        """Row offsets of the lockstep steps: ``num_steps + 1`` entries.

        Ops are stored sorted by step — the object compiler keeps the
        ``Schedule``'s ``(step, src, dst, chunk)`` op order, the streaming
        compiler lexsorts by ``(step, src, dst, root)`` and artifacts
        store the columns as they are — so step ``s`` is the contiguous
        row range ``step_bounds[s - 1]:step_bounds[s]``.  The step
        gates (spread over the ranges as each row's ``not_before``) and
        the vectorized ``lockstep-vec`` engine read this one layout.  A
        step with no routed ops is an empty range; its zero estimated
        duration shares a gate with the next step.  Compiled
        dependencies always point to a strictly earlier step
        (:func:`~repro.ni.injector.dependency_csr` keeps earlier-step
        deliveries only).  ``lockstep-vec`` checks it and declines a
        hand-built schedule that breaks the rule (``step-overlap``); the
        scalar loop's heap order plays any dependency DAG.

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

        :func:`repro.ni.injector.simulate_allreduce` runs this on
        :func:`lower_schedule` of its schedule; every engine returns the
        frozen seed loop's numbers.  Runs without a ``recorder``
        never build :class:`Message` objects.  Lockstep-gated ones spread
        the step gates over :attr:`step_bounds`, so a schedule whose ops
        are not in step order raises ``ValueError``.

        Every engine runs the scalar engine
        (:func:`~repro.network.lockstep_engine.run_arrays`: heap order,
        the event engine's processing order and arithmetic over the CSR
        arrays; the lockstep NI reaches it as the gates), with its spans
        and metrics — except ``engine="lockstep-vec"`` on a schedule of
        at least :data:`~repro.network.lockstep_vec.MIN_OPS_PER_STEP`
        ops per lockstep step, which runs the numpy engine of
        :mod:`repro.network.lockstep_vec` (a one-column batch) with the
        scalar engine as its fallback.
        ``lockstep=False`` runs the arrays in heap order with zero gates
        and no ``lockstep.gates`` event, whatever the engine.  A
        ``recorder`` lowers to messages and plays them with
        :meth:`repro.network.simulator.NetworkSimulator.run` — the heap
        order again, which feeds the recorder — whatever the engine.
        """
        from ..network.flowcontrol import DEFAULT_FLOW_CONTROL
        from ..network.simulator import NetworkSimulator, check_engine
        from ..ni.injector import AllReduceResult

        check_engine(engine)
        if flow_control is None:
            flow_control = DEFAULT_FLOW_CONTROL
        if data_bytes <= 0:
            raise ValueError("data_bytes must be positive")
        if recorder is not None:
            messages = self._lower_recorded(
                data_bytes, flow_control, lockstep, scheduling_overhead,
                recorder,
            )
            sim = NetworkSimulator(self.topology, flow_control)
            return AllReduceResult(
                self, data_bytes, sim.run(messages, recorder)
            )
        if not lockstep:
            engine = "event"
        elif self._runs_vec(engine):
            from ..network.lockstep_vec import run_batch

            batch = run_batch(
                self, (data_bytes,), flow_control, lockstep,
                scheduling_overhead, keep_timings=True,
            )
            return batch.results[0]
        return AllReduceResult(
            self, data_bytes,
            self._run_arrays(
                data_bytes, flow_control, scheduling_overhead, engine,
                lockstep,
            ),
        )

    def _runs_vec(self, engine: str) -> bool:
        """Does a lockstep-gated ``engine`` run go to the numpy engine?"""
        from ..network.lockstep_vec import MIN_OPS_PER_STEP

        return engine == "lockstep-vec" and (
            len(self) >= MIN_OPS_PER_STEP * max(self.num_steps, 1)
        )

    def _run_arrays(self, data_bytes, flow_control, scheduling_overhead,
                    engine, lockstep=True):
        """One ``event``/``lockstep`` run over the arrays; ungated (all
        gates zero) unless ``lockstep``."""
        from ..network.lockstep_engine import link_table, run_arrays

        table = link_table(self.topology)
        n = len(self)
        # Payload scaling and gate lookup vectorize: float64 multiply
        # is IEEE-identical to the scalar product :meth:`build_messages`
        # computes, and spreading the gates over the step ranges copies
        # floats untouched.
        classes, index = self.frac_classes()
        if lockstep:
            not_before = np.repeat(
                np.array(self._gate_row(data_bytes, flow_control),
                         dtype=np.float64),
                np.diff(self.step_bounds),
            )
        else:
            not_before = np.zeros(n)
        return run_arrays(
            self.topology,
            flow_control,
            engine,
            (classes * data_bytes, index),
            self._engine_columns(table),
            not_before,
            np.full(n, scheduling_overhead, dtype=np.float64),
        )

    def simulate_batch(
        self,
        sizes: Sequence[int],
        flow_control=None,
        lockstep: bool = True,
        scheduling_overhead: float = 0.0,
        keep_timings: bool = False,
        engine: str = "lockstep",
    ):
        """Evaluate every payload size of a ladder; a
        :class:`~repro.network.lockstep_vec.BatchResult`.

        The engine kernel's ladder entry
        (:func:`~repro.network.lockstep_engine.run_ladder`) runs every
        size over this schedule's columns in one C call, returning only
        each size's finish, wire total and max queue delay unless
        ``keep_timings`` or metering reads per-message columns.  The one
        exception is ``engine="lockstep-vec"`` on a schedule of at least
        :data:`~repro.network.lockstep_vec.MIN_OPS_PER_STEP` ops per
        lockstep step, which runs the numpy step loop
        (:func:`~repro.network.lockstep_vec.run_batch`) with per-size
        scalar fallback (counted, never silent) wherever it declines.  Without a kernel, or on columns the
        kernel must not index, each size runs :meth:`simulate` on the
        Python loop.  Every returned number is bit-identical to per-size
        ``simulate(size, engine="lockstep")`` calls.
        """
        from ..network import native
        from ..network.flowcontrol import DEFAULT_FLOW_CONTROL
        from ..network.lockstep_engine import link_table, run_ladder
        from ..network.lockstep_vec import BatchPoint, BatchResult, run_batch
        from ..network.simulator import check_engine
        from ..ni.injector import AllReduceResult

        check_engine(engine)
        if lockstep and self._runs_vec(engine):
            return run_batch(
                self, sizes, flow_control, lockstep, scheduling_overhead,
                keep_timings=keep_timings,
            )
        if flow_control is None:
            flow_control = DEFAULT_FLOW_CONTROL
        sizes = tuple(sizes)
        if not sizes:
            raise ValueError("simulate_batch needs at least one payload size")
        if any(size <= 0 for size in sizes):
            raise ValueError("data_bytes must be positive")
        if not lockstep:
            engine = "event"
        columns = self._ladder_columns(link_table(self.topology))
        kernel = native.kernel() if columns.native else None
        if kernel is None:  # the Python loop, one size at a time
            results = [
                self.simulate(size, flow_control, lockstep,
                              scheduling_overhead, engine=engine)
                for size in sizes
            ]
            outcomes = [
                (result.time, result.max_queue_delay()) for result in results
            ]
        else:
            gates = None
            if lockstep:
                gates = (self.step_bounds,
                         lambda size: self._gate_row(size, flow_control))
            totals, runs = run_ladder(
                kernel, self.topology, flow_control, engine,
                self.frac_classes(), columns, sizes, gates,
                scheduling_overhead, keep_timings,
            )
            outcomes = [(finish, delay) for finish, _wire, delay in totals]
            results = [
                AllReduceResult(self, size, run)
                for size, run in zip(sizes, runs)
            ]
        points = [
            BatchPoint(size, time, size / time if time > 0 else float("inf"),
                       max_queue_delay)
            for size, (time, max_queue_delay) in zip(sizes, outcomes)
        ]
        return BatchResult(
            sizes, points, 0, results if keep_timings else None
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
    per-pair route table and the serialization profile, frozen into flat
    plain-list columns.  Runs inside a ``schedule.compile`` span
    (``path="object"``), the streaming compiler's span name.
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
    """:func:`compile_schedule` without its span: the one lowering.

    For callers that lower a schedule only to run it (the ni layer, the
    sweep helpers) and for the streaming compiler's degenerate case,
    which sits inside its own span.  It memoizes nothing; the schedule's
    integer views are memoized.  The imports are local because the ni
    layer imports the collectives package.
    """
    from ..ni.injector import dependency_csr
    from ..ni.lockstep import _ser_profile

    cols = schedule.op_columns()
    dep_off, dep_val = dependency_csr(schedule)
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
        ser_profile=_ser_profile(schedule),
        metadata=schedule.metadata,
    )
