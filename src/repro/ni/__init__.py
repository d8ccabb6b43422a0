"""Co-designed network interface: schedule tables, lockstep, injection."""

from .injector import AllReduceResult, build_messages, simulate_allreduce
from .machine import IssueRecord, NIMachine, NISimulationResult, simulate_with_ni_machines
from .schedule_table import ScheduleTable, TableEntry, TableOp, build_schedule_tables

__all__ = [
    "AllReduceResult",
    "IssueRecord",
    "NIMachine",
    "NISimulationResult",
    "ScheduleTable",
    "simulate_with_ni_machines",
    "TableEntry",
    "TableOp",
    "build_messages",
    "build_schedule_tables",
    "simulate_allreduce",
]
