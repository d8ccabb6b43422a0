"""All-reduce communication algorithms lowering to a common schedule IR."""

from typing import Callable, Dict

from .. import obs
from ..topology.base import Topology
from .butterfly import butterfly_allreduce
from .dbtree import BinaryTree, dbtree_allreduce, double_binary_trees
from .halving_doubling import halving_doubling_allreduce, is_power_of_two
from .hdrm import hdrm_allreduce, hdrm_rank_mapping
from .hierarchical import hierarchical_allreduce
from .multitree import SpanningTree, build_trees, multitree_allreduce
from .primitives import (
    all_gather_schedule,
    alltoall_schedule,
    broadcast_schedule,
    reduce_scatter_schedule,
    reduce_schedule,
    verify_all_gather,
    verify_alltoall,
    verify_broadcast,
    verify_reduce,
    verify_reduce_scatter,
)
from .compiled import COMPILED_FORMAT, CompiledSchedule, compile_schedule
from .ring import ring_allreduce
from .ring2d import ring2d_allreduce
from .streaming import compile_multitree
from .schedule import ChunkRange, CommOp, OpKind, Schedule
from .validate import ExecutionResult, ScheduleError, execute, verify_allreduce
from .variants import (
    AlgorithmVariant,
    FLOW_CONTROL_FACTORIES,
    get_variant,
    make_flow_control,
    register_variant,
    resolve_variant,
    variant_names,
)

#: Name -> builder for the algorithms evaluated in §VI.
ALGORITHMS: Dict[str, Callable[[Topology], Schedule]] = {
    "ring": ring_allreduce,
    "dbtree": dbtree_allreduce,
    "2d-ring": ring2d_allreduce,
    "butterfly": butterfly_allreduce,
    "halving-doubling": halving_doubling_allreduce,
    "hdrm": hdrm_allreduce,
    "hierarchical": hierarchical_allreduce,
    "multitree": multitree_allreduce,
}


def build_schedule(algorithm: str, topology: Topology, **kwargs) -> Schedule:
    """Build the named algorithm's schedule on ``topology``.

    Runs inside a ``schedule.build`` span carrying the schedule's step
    and op counts.
    """
    try:
        builder = ALGORITHMS[algorithm]
    except KeyError:
        raise ValueError(
            "unknown algorithm %r; choose from %s" % (algorithm, sorted(ALGORITHMS))
        )
    with obs.span(
        "schedule.build", algorithm=algorithm, topology=topology.name
    ) as sp:
        schedule = builder(topology, **kwargs)
        sp.set("steps", schedule.num_steps)
        sp.set("ops", schedule.num_ops)
    return schedule


def compile_algorithm(algorithm: str, topology: Topology) -> CompiledSchedule:
    """Build the named algorithm on ``topology`` in compiled form.

    MultiTree streams its flat forest straight into CSR columns
    (:func:`~repro.collectives.streaming.compile_multitree`), skipping
    the ``Schedule`` → ``CommOp`` detour; the result is ``==`` to
    ``compile_schedule(build_schedule("multitree", topology))``.  Every
    other algorithm compiles its schedule; ring, 2D-Ring, hierarchical
    and dbtree build column-backed ones (:meth:`Schedule.from_columns`),
    so neither route creates a ``CommOp``.  Both routes feed the same
    ``schedule.*`` metrics: the streaming compile's ``schedule.compile``
    span folds like a ``schedule.build`` span.
    """
    if algorithm != "multitree":
        return compile_schedule(build_schedule(algorithm, topology))
    return compile_multitree(topology)


__all__ = [
    "ALGORITHMS",
    "AlgorithmVariant",
    "BinaryTree",
    "FLOW_CONTROL_FACTORIES",
    "get_variant",
    "make_flow_control",
    "register_variant",
    "resolve_variant",
    "variant_names",
    "COMPILED_FORMAT",
    "ChunkRange",
    "CommOp",
    "CompiledSchedule",
    "compile_algorithm",
    "compile_schedule",
    "ExecutionResult",
    "OpKind",
    "Schedule",
    "ScheduleError",
    "SpanningTree",
    "all_gather_schedule",
    "alltoall_schedule",
    "broadcast_schedule",
    "build_schedule",
    "butterfly_allreduce",
    "build_trees",
    "reduce_scatter_schedule",
    "reduce_schedule",
    "verify_all_gather",
    "verify_alltoall",
    "verify_broadcast",
    "verify_reduce",
    "verify_reduce_scatter",
    "dbtree_allreduce",
    "double_binary_trees",
    "execute",
    "halving_doubling_allreduce",
    "hdrm_allreduce",
    "hdrm_rank_mapping",
    "hierarchical_allreduce",
    "is_power_of_two",
    "multitree_allreduce",
    "ring2d_allreduce",
    "ring_allreduce",
    "verify_allreduce",
]
