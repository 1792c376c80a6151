"""Offloading decision engine.

The paper delegates offloading decisions to existing frameworks
("Rattrap leaves the offloading details in clients to existing
offloading frameworks and only cares about the cloud side"), but a
complete system needs one: this engine predicts the offloading
response from link conditions and expected runtime state and offloads
only when the predicted speedup clears a threshold — the standard
MAUI/CloneCloud-style break-even analysis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..network.link import Link
from ..workloads.base import WorkloadProfile
from ..offload.messages import KB
from .partition import CostEstimate, Decision, PartitionConfig

__all__ = ["DecisionEngine", "OffloadEstimate"]


@dataclass(frozen=True)
class OffloadEstimate:
    """Predicted cost decomposition for one candidate offload."""

    connection_s: float
    preparation_s: float
    transfer_s: float
    execution_s: float
    local_s: float

    @property
    def response_s(self) -> float:
        return self.connection_s + self.preparation_s + self.transfer_s + self.execution_s

    @property
    def predicted_speedup(self) -> float:
        if self.response_s <= 0:
            return float("inf")
        return self.local_s / self.response_s


class DecisionEngine:
    """Predicts offload profitability before committing to it.

    Also a decider for :func:`~repro.offload.client.replay_partitioned`
    (the hybrid client): :meth:`decide` applies the threshold rule
    against the first candidate platform's advertised state.
    """

    #: decider protocol: no decide latency, no runtime budget enforcement
    cfg = PartitionConfig()

    def __init__(
        self,
        cloud_speedup_vs_device: float = 1.0,
        speedup_threshold: float = 1.0,
    ):
        if speedup_threshold <= 0:
            raise ValueError("speedup_threshold must be positive")
        self.cloud_speedup_vs_device = cloud_speedup_vs_device
        self.speedup_threshold = speedup_threshold

    def estimate(
        self,
        profile: WorkloadProfile,
        link: Link,
        expected_preparation_s: float,
        code_cached: bool,
    ) -> OffloadEstimate:
        """Expected phase costs for one request.

        ``expected_preparation_s`` is the platform's advertised runtime-
        prep time (0 for a warm runtime, the boot time for a cold one)
        — exactly the quantity Rattrap's 16x boot improvement shrinks.
        """
        if expected_preparation_s < 0:
            raise ValueError("expected_preparation_s must be >= 0")
        up_bytes = profile.per_request_upload_kb * KB
        if not code_cached:
            up_bytes += profile.code_size_kb * KB
        transfer = link.expected_transfer_time(up_bytes, "up") + link.expected_transfer_time(
            profile.result_size_kb * KB, "down"
        )
        execution = profile.cloud_cpu_s
        if not code_cached:
            execution += profile.code_load_s
        return OffloadEstimate(
            connection_s=3 * link.latency_s,  # handshake + request landing
            preparation_s=expected_preparation_s,
            transfer_s=transfer,
            execution_s=execution,
            local_s=profile.local_time_s,
        )

    def should_offload(
        self,
        profile: WorkloadProfile,
        link: Link,
        expected_preparation_s: float = 0.0,
        code_cached: bool = True,
    ) -> bool:
        """True when the predicted speedup clears the threshold."""
        est = self.estimate(profile, link, expected_preparation_s, code_cached)
        return est.predicted_speedup >= self.speedup_threshold

    def decide(self, request, device, platforms) -> Decision:
        """Offload to ``platforms[0]`` when it clears the threshold, else
        run locally.  Estimates carry latency only (energy 0 J)."""
        platform = platforms[0]
        est = self.estimate(
            request.profile,
            device.link,
            platform.expected_preparation_s(request),
            platform.code_cached(request),
        )
        local = CostEstimate(est.local_s, 0.0)
        offload = CostEstimate(est.response_s, 0.0)
        if est.predicted_speedup >= self.speedup_threshold:
            return Decision("offload", 0, local, offload, math.inf, "speedup")
        return Decision("local", -1, local, offload, math.inf, "no speedup")

    def observe(self, result) -> None:
        """The break-even rule learns nothing from outcomes."""
