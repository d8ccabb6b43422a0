"""Discrete-event interconnect simulation and flow-control models."""

from .energy import EnergyModel, energy_saving_fraction
from .flits import (
    Flit,
    FlitType,
    RouteInfo,
    SubPacketInfo,
    frame_message,
    frame_packets,
)
from .flitsim import FlitLevelSimulator, FlitTransfer, TransferTiming
from .flowcontrol import (
    DEFAULT_FLOW_CONTROL,
    FLIT_BYTES,
    MESSAGE_FLOW_CONTROL,
    FlowControl,
    MessageBased,
    PacketBased,
)
from .links import LinkTable, link_table
from .simulator import Message, MessageTiming, NetworkSimulator, SimulationResult

__all__ = [
    "DEFAULT_FLOW_CONTROL",
    "EnergyModel",
    "FLIT_BYTES",
    "Flit",
    "FlitLevelSimulator",
    "FlitTransfer",
    "FlitType",
    "LinkTable",
    "RouteInfo",
    "SubPacketInfo",
    "TransferTiming",
    "frame_message",
    "frame_packets",
    "link_table",
    "MESSAGE_FLOW_CONTROL",
    "FlowControl",
    "Message",
    "MessageBased",
    "MessageTiming",
    "NetworkSimulator",
    "PacketBased",
    "SimulationResult",
    "energy_saving_fraction",
]
