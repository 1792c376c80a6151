"""Offloading framework: messages, requests, devices, power, decisions."""

from .client import (
    replay_closed_loop,
    replay_inflow,
    replay_partitioned,
    replay_with_deadline,
    replay_with_retry,
    run_inflow_experiment,
)
from .decision import DecisionEngine, OffloadEstimate
from .device import MobileDevice
from .messages import KB, Message, MessageKind, result_message, upload_messages
from .partition import (
    CostEstimate,
    Decision,
    OffloadDecider,
    PartitionConfig,
    StaticDecider,
)
from .power import RADIO_PARAMS, EnergyBreakdown, PowerModel, RadioParams
from .request import OffloadRequest, Phase, PhaseTimeline, RequestResult
from .retry import RetryPolicy, is_retryable

__all__ = [
    "Message",
    "MessageKind",
    "upload_messages",
    "result_message",
    "KB",
    "OffloadRequest",
    "Phase",
    "PhaseTimeline",
    "RequestResult",
    "MobileDevice",
    "PowerModel",
    "RadioParams",
    "RADIO_PARAMS",
    "EnergyBreakdown",
    "DecisionEngine",
    "OffloadEstimate",
    "replay_inflow",
    "replay_closed_loop",
    "replay_partitioned",
    "replay_with_deadline",
    "replay_with_retry",
    "run_inflow_experiment",
    "RetryPolicy",
    "is_retryable",
    "PartitionConfig",
    "CostEstimate",
    "Decision",
    "OffloadDecider",
    "StaticDecider",
]
