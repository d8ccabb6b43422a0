"""All-reduce schedule tables (Fig. 5) and their generation.

The co-designed network interface holds one table per node.  Each entry
carries an opcode (``Reduce``/``Gather``/``NOP``), the tree flow id, the
parent and children dependencies within that flow, the time step at which
the communication is initiated, and the start address / size of the gradient
chunk.  ``Reduce`` entries fire once all children's partial sums have
arrived; ``Gather`` entries fire once the parent's broadcast has arrived
(roots have no parent); ``NOP`` entries stall the lockstep down-counter for
one estimated step to keep the nodes aligned (§IV-A).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..collectives.schedule import CommOp, OpKind, Schedule


class TableOp(enum.Enum):
    REDUCE = "Reduce"
    GATHER = "Gather"
    NOP = "NOP"


@dataclass(frozen=True)
class TableEntry:
    """One row of a node's all-reduce schedule table."""

    op: TableOp
    flow: Optional[int]
    parent: Optional[int]
    children: Tuple[int, ...]
    step: int
    start_addr: int = 0
    size: int = 0
    #: For root Gather entries (parent is None): the reduce senders whose
    #: aggregations must complete before the broadcast may start — the
    #: dependencies cleared by Fig. 6's reduction path (step 5).
    reduce_deps: Tuple[int, ...] = ()

    def format_row(self) -> str:
        parent = "nil" if self.parent is None else str(self.parent)
        children = ",".join(str(c) for c in self.children) if self.children else "nil"
        flow = "-" if self.flow is None else str(self.flow)
        return "%-6s flow=%-3s parent=%-3s children=%-9s step=%-3d addr=%-10d size=%d" % (
            self.op.value, flow, parent, children, self.step, self.start_addr, self.size,
        )


@dataclass
class ScheduleTable:
    """The per-node table, ordered by step (head-of-table issue, Fig. 6)."""

    node: int
    entries: List[TableEntry] = field(default_factory=list)

    def sort(self) -> None:
        self.entries.sort(key=lambda e: (e.step, e.op.value, e.flow if e.flow is not None else -1))

    def storage_bits(self, num_nodes: int, max_children: int = 4, addr_bits: int = 64) -> int:
        """Rough table storage estimate matching §V-A's 3.2 KB for 64 nodes."""
        id_bits = max(1, (num_nodes - 1).bit_length())
        op_bits = 2
        step_bits = 16
        size_bits = 32
        entry = op_bits + id_bits * (2 + max_children) + step_bits + addr_bits + size_bits
        return entry * len(self.entries)

    def format(self) -> str:
        return "\n".join(
            ["Accelerator %d" % self.node] + ["  " + e.format_row() for e in self.entries]
        )


def build_schedule_tables(
    schedule: Schedule, data_bytes: int = 0, insert_nops: bool = True
) -> Dict[int, ScheduleTable]:
    """Convert a tree-flow schedule into per-node tables (Fig. 5).

    Sends from one node of the same flow/kind/step collapse to a single
    entry whose ``children`` (for Gather) lists all destinations; ``Reduce``
    entries list the children whose partials must arrive first.  Nodes with
    no entry at some step get a ``NOP`` so the lockstep counter still
    advances (§IV-A).
    """
    n = schedule.topology.num_nodes
    tables = {node: ScheduleTable(node) for node in schedule.topology.nodes}

    # Children dependencies per (node, flow): who sends reduces up to me?
    reduce_children: Dict[Tuple[int, int], List[int]] = {}
    gather_parent: Dict[Tuple[int, int], int] = {}
    for op in schedule.ops:
        if op.kind is OpKind.REDUCE:
            reduce_children.setdefault((op.dst, op.flow), []).append(op.src)
        else:
            gather_parent.setdefault((op.dst, op.flow), op.src)

    # Group sends by (src, kind, flow, step).
    grouped: Dict[Tuple[int, OpKind, int, int], List[CommOp]] = {}
    for op in schedule.ops:
        grouped.setdefault((op.src, op.kind, op.flow, op.step), []).append(op)

    for (src, kind, flow, step), ops in sorted(grouped.items(), key=lambda kv: kv[0][3]):
        chunk = ops[0].chunk
        addr = int(chunk.lo * data_bytes) if data_bytes else 0
        size = int(chunk.bytes_of(data_bytes)) if data_bytes else 0
        if kind is OpKind.REDUCE:
            entry = TableEntry(
                op=TableOp.REDUCE,
                flow=flow,
                parent=ops[0].dst,
                children=tuple(
                    c for c in reduce_children.get((src, flow), []) if c != ops[0].dst
                ),
                step=step,
                start_addr=addr,
                size=size,
            )
        else:
            parent = gather_parent.get((src, flow))
            entry = TableEntry(
                op=TableOp.GATHER,
                flow=flow,
                parent=parent,
                children=tuple(op.dst for op in ops),
                step=step,
                start_addr=addr,
                size=size,
                reduce_deps=(
                    tuple(sorted(set(reduce_children.get((src, flow), ()))))
                    if parent is None
                    else ()
                ),
            )
        tables[src].entries.append(entry)

    if insert_nops:
        total_steps = schedule.num_steps
        for node, table in tables.items():
            present = {e.step for e in table.entries}
            for step in range(1, total_steps + 1):
                if step not in present:
                    table.entries.append(
                        TableEntry(TableOp.NOP, None, None, (), step)
                    )
    for table in tables.values():
        table.sort()
    return tables
