"""Dynamic offload partitioning: per-request offload-vs-local decisions.

The paper's clients always offload; its own energy/latency tables show
offloading only pays when ``upload + execute < local_execute`` under
the *current* network.  This module closes that gap with the
CloneCloud/MAUI-style break-even analysis, generalized to every signal
the platform already measures:

- **battery level** — the device's remaining fraction ramps an energy
  weight into the score, so a draining handset trades latency for
  joules (the ``battery`` experiment's PowerTutor model prices both
  sides);
- **observed RTT / goodput** — EWMAs the link maintains from its own
  completed transfers (:meth:`~repro.network.link.Link.observed_goodput`),
  falling back to nominal bandwidth before any observation exists;
- **cloud-side queueing + boot stalls** —
  :meth:`~repro.platform.base.CloudPlatform.expected_queueing_s` and
  ``expected_preparation_s``, the scheduler-fed estimates;
- **cache-hit probability** — the compute cache's per-app repeat EWMA
  (:meth:`~repro.platform.base.CloudPlatform.expected_cache_hit_p`)
  discounts the expected execute time on repeat-heavy apps.

One-time costs (code upload, cold boot, cold code load) are amortized
over :attr:`PartitionConfig.amortize_requests` future requests —
the myopic model never offloads the *first* request of a session (the
cold boot alone can exceed local time) and therefore never reaches the
warm state where offloading wins; amortization is the standard fix.

Adaptive QoS folds in through a :class:`~repro.platform.qos.QoSBudgetBook`:
requests whose *predicted* offload latency exceeds the app's budget
execute locally (or are shed when configured), before any network cost
is paid.

Everything here is pure and deterministic: no RNG is consumed and no
platform state is mutated, so a decider that always answers "offload"
leaves an experiment byte-identical to running with no decider at all.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Optional, Sequence, Union

from .messages import KB
from .power import RADIO_PARAMS

if TYPE_CHECKING:  # pragma: no cover
    from ..platform.base import CloudPlatform
    from ..platform.qos import QoSBudgetBook
    from .device import MobileDevice
    from .request import OffloadRequest, RequestResult

__all__ = ["PartitionConfig", "CostEstimate", "Decision", "OffloadDecider",
           "StaticDecider"]


@dataclass(frozen=True)
class PartitionConfig:
    """Knobs of the partitioning cost model."""

    #: client-side decision latency per request (CPU spent scoring);
    #: 0 keeps an attached-but-all-offload decider timing-identical to
    #: a detached client
    decide_s: float = 0.0
    #: horizon over which one-time costs (code upload, cold boot, cold
    #: code load) are amortized — a session is worth more than its
    #: first request
    amortize_requests: int = 10
    #: latency-equivalent of one joule while the battery is healthy
    energy_weight_s_per_j: float = 0.0
    #: below this remaining fraction the device is in power-saver mode
    low_battery_threshold: float = 0.2
    #: energy weight once the battery is low — joules start trumping
    #: seconds
    low_battery_energy_weight_s_per_j: float = 3.0
    #: scale on the platform's queueing estimate (0 ignores congestion)
    queue_weight: float = 1.0
    #: over-budget requests are dropped instead of executed locally
    #: when even the local estimate busts the budget
    shed_over_budget: bool = False
    #: enforce finite budgets at runtime too: offloads still in flight
    #: at their budget are aborted and re-run locally (the abort path
    #: :func:`~repro.offload.client.replay_with_deadline` uses — clock
    #: anchored at the submission instant, after the decide span closes)
    enforce_budget: bool = False

    def __post_init__(self):
        if self.decide_s < 0:
            raise ValueError("decide_s must be >= 0")
        if self.amortize_requests < 1:
            raise ValueError("amortize_requests must be >= 1")
        if self.energy_weight_s_per_j < 0 or self.low_battery_energy_weight_s_per_j < 0:
            raise ValueError("energy weights must be >= 0")
        if not (0.0 <= self.low_battery_threshold <= 1.0):
            raise ValueError("low_battery_threshold must be in [0, 1]")
        if self.queue_weight < 0:
            raise ValueError("queue_weight must be >= 0")

    def energy_weight(self, battery_fraction: float) -> float:
        """Seconds-per-joule weight at the given battery level."""
        if battery_fraction < self.low_battery_threshold:
            return self.low_battery_energy_weight_s_per_j
        return self.energy_weight_s_per_j


@dataclass(frozen=True)
class CostEstimate:
    """Predicted latency and device-side energy of one execution path."""

    latency_s: float
    energy_j: float

    def score(self, energy_weight_s_per_j: float) -> float:
        """Scalarized cost: seconds plus weighted joules."""
        return self.latency_s + energy_weight_s_per_j * self.energy_j


@dataclass(frozen=True)
class Decision:
    """One partitioning verdict with its supporting estimates."""

    #: ``"offload"``, ``"local"`` or ``"shed"``
    choice: str
    #: index into the candidate platform list (-1 for local/shed)
    target: int
    local: CostEstimate
    #: best offload estimate, or None when no target was offered
    offload: Optional[CostEstimate]
    #: latency budget the decision was held against (inf = none)
    budget_s: float
    reason: str = ""


def _radio_params(scenario: str):
    """Radio power constants, tolerating non-scenario link names."""
    return RADIO_PARAMS.get(scenario) or RADIO_PARAMS["lan-wifi"]


class OffloadDecider:
    """Scores offload-vs-local per request from live device/cloud state.

    ``decide`` is a pure function of its arguments — it consumes no
    randomness and mutates neither the device nor the platforms — so a
    fixed state always yields the same :class:`Decision` and the
    decision layer composes with the deterministic replay machinery.
    """

    def __init__(
        self,
        config: Optional[PartitionConfig] = None,
        budgets: Optional["QoSBudgetBook"] = None,
    ):
        self.cfg = config or PartitionConfig()
        self.budgets = budgets
        #: decision tallies (offload / local / shed)
        self.offloads = 0
        self.locals = 0
        self.sheds = 0

    # -- cost model ----------------------------------------------------------
    def estimate_local(
        self, request: "OffloadRequest", device: "MobileDevice"
    ) -> CostEstimate:
        """Running the task on the handset: CPU time and CPU joules."""
        latency = request.profile.local_time_s * request.work_scale
        return CostEstimate(
            latency_s=latency,
            energy_j=latency * device.power.cpu_active_watts,
        )

    def estimate_offload(
        self,
        request: "OffloadRequest",
        device: "MobileDevice",
        platform: "CloudPlatform",
    ) -> CostEstimate:
        """Offloading to ``platform`` over the device's link.

        Phase structure mirrors the serve path (§III-B): connection,
        runtime preparation, upload, execution (discounted by the
        expected cache-hit probability), result download.  Bandwidth
        and RTT come from the link's observed EWMAs; preparation,
        queueing and cache state from the platform's client estimates.
        One-time costs are amortized over the configured horizon.
        """
        cfg = self.cfg
        profile = request.profile
        link = device.link
        k = cfg.amortize_requests

        rtt = link.observed_rtt_s()
        up_bw = link.observed_goodput("up")
        down_bw = link.observed_goodput("down")
        handshake = (rtt / 2.0) * link.handshake_rounds

        # Connection: TCP handshake + first request landing (1.5 RTT).
        connect_s = 1.5 * rtt

        # Preparation: warm dispatch recurs; the cold-boot excess is a
        # one-time session cost.
        prep = platform.expected_preparation_s(request)
        warm_s = platform.dispatcher.warm_dispatch_s
        prep_s = min(prep, warm_s) + max(0.0, prep - warm_s) / k

        # Upload: per-request payload recurs; the code ships once.
        code_cached = platform.code_cached(request)
        up_s = handshake + profile.per_request_upload_kb * KB / up_bw
        if not code_cached:
            up_s += (profile.code_size_kb * KB / up_bw) / k

        # Execution: queueing under contention, cold code load (one-
        # time), then compute discounted by the repeat probability.
        queue_s = cfg.queue_weight * platform.expected_queueing_s(request)
        hit_p = platform.expected_cache_hit_p(request)
        work_s = profile.cloud_cpu_s * request.work_scale + profile.framework_overhead_s
        exec_s = queue_s + (1.0 - hit_p) * work_s
        if not code_cached:
            exec_s += profile.code_load_s / k

        down_s = handshake + profile.result_size_kb * KB / down_bw
        latency = connect_s + prep_s + up_s + exec_s + down_s

        radio = _radio_params(device.scenario)
        energy = (
            up_s * radio.tx_watts
            + down_s * radio.rx_watts
            + (connect_s + prep_s + exec_s) * device.power.idle_watts
            + radio.tail_seconds * radio.tail_watts
        )
        return CostEstimate(latency_s=latency, energy_j=energy)

    # -- budget --------------------------------------------------------------
    def budget_for(self, request: "OffloadRequest") -> float:
        """The latency budget this request is held to (inf = none)."""
        if request.deadline_budget_s is not None:
            return request.deadline_budget_s
        if self.budgets is not None:
            return self.budgets.budget_for(request.app_id)
        return math.inf

    # -- the decision --------------------------------------------------------
    def decide(
        self,
        request: "OffloadRequest",
        device: "MobileDevice",
        platforms: Union["CloudPlatform", Sequence["CloudPlatform"]],
    ) -> Decision:
        """Pick local execution, the best offload target, or shedding.

        Budget-feasible paths compete on scalarized cost (latency plus
        battery-weighted energy); when nothing fits the budget the
        request falls back to the cheapest path, or is shed when
        :attr:`PartitionConfig.shed_over_budget` is set.
        """
        targets: List["CloudPlatform"] = (
            list(platforms) if isinstance(platforms, (list, tuple)) else [platforms]
        )
        local = self.estimate_local(request, device)
        best: Optional[CostEstimate] = None
        best_i = -1
        weight = self.cfg.energy_weight(device.battery_remaining_fraction)
        for i, target in enumerate(targets):
            est = self.estimate_offload(request, device, target)
            if best is None or est.score(weight) < best.score(weight):
                best, best_i = est, i
        budget = self.budget_for(request)

        candidates = [("local", -1, local)]
        if best is not None:
            candidates.append(("offload", best_i, best))
        feasible = [c for c in candidates if c[2].latency_s <= budget]
        if feasible:
            choice, target, _ = min(feasible, key=lambda c: c[2].score(weight))
            reason = "min-cost within budget"
        elif self.cfg.shed_over_budget:
            choice, target = "shed", -1
            reason = "no path fits the budget"
        else:
            choice, target, _ = min(candidates, key=lambda c: c[2].score(weight))
            reason = "min-cost (budget unsatisfiable)"
        if choice == "offload":
            self.offloads += 1
        elif choice == "local":
            self.locals += 1
        else:
            self.sheds += 1
        return Decision(
            choice=choice,
            target=target,
            local=local,
            offload=best,
            budget_s=budget,
            reason=reason,
        )

    def observe(self, result: "RequestResult") -> None:
        """Feed a completed request back into the adaptive budgets."""
        if self.budgets is not None and not result.shed:
            self.budgets.observe(result.request.app_id, result.response_time)


class StaticDecider:
    """Degenerate decider answering the same choice for every request.

    The pure baseline arms of the partition experiment: always-offload
    and always-local, through the exact same replay path as the
    adaptive decider so the comparison isolates the decision policy.
    """

    def __init__(self, choice: str, config: Optional[PartitionConfig] = None):
        if choice not in ("offload", "local"):
            raise ValueError(f"choice must be 'offload' or 'local', got {choice!r}")
        self.choice = choice
        self.cfg = config or PartitionConfig()
        self.offloads = 0
        self.locals = 0
        self.sheds = 0

    def decide(self, request, device, platforms) -> Decision:
        """The configured static choice, whatever the state."""
        zero = CostEstimate(0.0, 0.0)
        if self.choice == "offload":
            self.offloads += 1
            return Decision("offload", 0, zero, zero, math.inf, "static")
        self.locals += 1
        return Decision("local", -1, zero, None, math.inf, "static")

    def observe(self, result) -> None:
        """Static policies learn nothing from outcomes."""
