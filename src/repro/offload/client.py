"""Client-side experiment driver.

Replays an arrival plan (the "same inflow of requests" the evaluation
uses for every compared platform) against a cloud platform, collecting
the per-request results all experiments aggregate.

Every closed-loop client is one per-device loop (:func:`_replay`) with
a different per-request step: plain offload, offload under a deadline,
offload with retry, or the partition layer's offload/local/shed verdict.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Generator, List, Optional, Sequence

from ..faults.errors import CodeUploadAborted
from ..network.link import Link
from ..obs import metrics_of
from .device import MobileDevice
from .request import PhaseTimeline, RequestResult

if TYPE_CHECKING:  # pragma: no cover
    from ..platform.base import CloudPlatform
    from ..sim.core import Environment
    from ..workloads.generator import ArrivalPlan

__all__ = [
    "replay_inflow",
    "replay_closed_loop",
    "replay_partitioned",
    "replay_with_deadline",
    "replay_with_retry",
    "run_inflow_experiment",
]


def _replay(env: "Environment", plans, devices, step) -> Generator:
    """Process generator: the closed loop every client mode shares.

    Interactive offloading apps issue one request at a time: each
    device submits its next request one think-gap after the previous
    *response* (so a slow cold start delays, rather than piles up,
    that device's stream).  ``step(plan, device)`` serves one request
    (``device`` is ``None`` without a device map).  Returns all results,
    ordered by request id.
    """
    per_device: Dict[str, list] = {}
    for plan in plans:
        per_device.setdefault(plan.device_id, []).append(plan)
    for seq in per_device.values():
        seq.sort(key=lambda p: p.request.seq_on_device)
    if devices is not None:
        missing = set(per_device) - set(devices)
        if missing:
            raise ValueError(f"no device object for: {sorted(missing)}")

    def drive(device_plans) -> Generator:
        device = devices[device_plans[0].device_id] if devices is not None else None
        collected = []
        for plan in device_plans:
            if plan.gap_s > 0:
                yield env.timeout(plan.gap_s)
            collected.append((yield from step(plan, device)))
        return collected

    done = yield env.all_of([env.process(drive(seq)) for seq in per_device.values()])
    results = [r for batch in done.values() for r in batch]
    results.sort(key=lambda r: r.request.request_id)
    return results


def _client_result(env, request, started, device=None, **flags) -> Generator:
    """A result the cloud never produced: the task run on ``device``
    (``executed_locally``), or nothing run at all when it is ``None``.
    ``flags`` are further :class:`RequestResult` fields."""
    if device is not None:
        yield from device.execute_locally(
            env, request.profile, trace_id=request.trace_id
        )
        flags["executed_locally"] = True
    return RequestResult(
        request=request,
        timeline=PhaseTimeline(),
        started_at=started,
        finished_at=env.now,
        **flags,
    )


def _offload(env, proc, request, device, budget=None, why="") -> Generator:
    """Await the submitted offload ``proc`` and charge ``device`` for it.

    Past ``budget`` seconds from submission the offload is interrupted
    (``why``) and the task runs locally, flagged ``deadline_aborted``.
    A response landing in the very tick the budget expires is kept: the
    condition may only have seen the expiry, but the response exists.
    An offload that dies first because the request carrying its app's
    code was aborted (:class:`CodeUploadAborted`) runs locally too.
    """
    submitted = env.now
    if budget is None:
        result = yield proc
    else:
        proc.defused = True
        expiry = env.timeout(budget)
        try:
            outcome = yield env.any_of([proc, expiry])
        except CodeUploadAborted:
            outcome = {}
        if proc not in outcome and not proc.ok:
            if proc.is_alive:
                proc.interrupt(why)
            return (yield from _client_result(
                env, request, submitted, device, deadline_aborted=True
            ))
        result = proc.value
    if device is not None and not result.blocked:
        device.account_offload(result)
    return result


def replay_with_deadline(
    env: "Environment",
    platform: "CloudPlatform",
    plans: Sequence["ArrivalPlan"],
    devices: Dict[str, MobileDevice],
    deadline_s: Optional[float] = None,
) -> Generator:
    """Closed-loop replay with a client-side response deadline.

    If an offloaded request has not returned within its deadline, the
    client aborts it (the in-flight cloud work is interrupted) and
    executes the task locally — bounding the worst case a cold start or
    overloaded server can inflict on the user.  Aborted requests carry
    ``deadline_aborted`` and ``executed_locally``.

    Each request's deadline is its own ``deadline_budget_s`` (plumbed
    from the app profile's QoS budget) when set, else the global
    ``deadline_s``; a request with neither is never aborted.  Both
    clocks anchor at the submission instant — the same instant the
    partition layer's budget enforcement uses — so the deadline client
    and the QoS shed path agree on when a budget starts counting.
    """
    if deadline_s is not None and deadline_s <= 0:
        raise ValueError("deadline_s must be positive")

    def step(plan, device) -> Generator:
        request = plan.request
        budget = request.deadline_budget_s
        if budget is None:
            budget = deadline_s
        proc = platform.submit(request, device.link)
        proc.defused = True
        return (yield from _offload(
            env, proc, request, device, budget, "client deadline exceeded"
        ))

    return _replay(env, plans, devices, step)


def replay_with_retry(
    env: "Environment",
    platform: "CloudPlatform",
    plans: Sequence["ArrivalPlan"],
    devices: Dict[str, MobileDevice],
    policy=None,
    seed: int = 0,
) -> Generator:
    """Closed-loop replay with failure-aware retry (chaos client).

    Every attempt that fails *retryably* — an injected fault
    (:class:`~repro.faults.errors.FaultError`), directly or as the
    cause of the interrupt that severed the request — is retried after
    capped exponential backoff with seeded jitter.  During a link
    blackout the client does not even reach the cloud; the attempt is
    burned and the backoff runs.  Once the policy's attempts are
    exhausted the task executes locally, so the user always gets an
    answer.  Results carry honest end-to-end timing (``started_at`` is
    the *first* submission) and the ``attempts`` count.

    Non-retryable failures (OOM, model bugs) propagate unchanged.
    """
    from ..sim.rng import RandomStreams
    from .retry import RetryPolicy, is_retryable

    if policy is None:
        policy = RetryPolicy()
    rng = RandomStreams(seed).get("client.retry")

    def step(plan, device) -> Generator:
        request = plan.request
        first_submit = env.now
        for attempt in range(1, policy.max_attempts + 1):
            if attempt > 1:
                metrics = metrics_of(env)
                if metrics is not None:
                    metrics.counter("client.retries").inc()
                yield env.timeout(policy.delay_s(attempt - 1, rng))
            faults = getattr(env, "faults", None)
            if faults is not None and faults.link_down(plan.device_id):
                continue  # unreachable cloud: burn the attempt
            try:
                result = yield from _offload(
                    env, platform.submit(request, device.link), request, device
                )
            except BaseException as exc:
                if is_retryable(exc):
                    continue
                raise
            # Honest end-to-end latency: failed attempts and backoff
            # count against the request.
            result.started_at = first_submit
            result.attempts = attempt
            return result
        return (yield from _client_result(
            env, request, first_submit, device, attempts=policy.max_attempts
        ))

    return _replay(env, plans, devices, step)


def replay_partitioned(
    env: "Environment",
    platforms,
    plans: Sequence["ArrivalPlan"],
    devices: Dict[str, MobileDevice],
    decider=None,
) -> Generator:
    """Closed-loop replay with the partition layer in the loop.

    Before each request the decider scores local execution against
    every candidate platform (see :mod:`repro.offload.partition`) and
    the client follows the verdict:

    - **offload** — submit to the chosen platform; when the decider's
      config enforces budgets, an offload still in flight at the
      request's budget is aborted and re-run locally (clock anchored
      at the submission instant, matching :func:`replay_with_deadline`);
    - **local** — run on the handset (``local_exec`` span);
    - **shed** — drop the request (``shed`` result, nothing runs).

    Any object with ``decide``/``observe``/``cfg`` is a decider:
    :class:`~repro.offload.partition.OffloadDecider`,
    :class:`~repro.offload.partition.StaticDecider`, or the
    break-even :class:`~repro.offload.decision.DecisionEngine` (the
    hybrid client).  ``decider=None`` detaches the layer entirely:
    every request offloads to the first platform with no decide span
    and no cost-model evaluation — byte-identical to a plain
    closed-loop replay, the ``is None`` gating every optional plane
    here uses.

    Each decision is wrapped in a ``decide`` phase span of the
    configured ``decide_s``, so partitioned responses still tile
    exactly: decide + serve phases when offloaded, decide +
    ``local_exec`` when local, decide alone when shed.
    """
    from ..obs import trace_span

    targets = list(platforms) if isinstance(platforms, (list, tuple)) else [platforms]
    if not targets:
        raise ValueError("need at least one platform")

    def step(plan, device) -> Generator:
        request = plan.request
        if decider is None:
            return (yield from _offload(
                env, targets[0].submit(request, device.link), request, device
            ))
        started = env.now
        with trace_span(env, "decide", who=plan.device_id, trace=request.trace_id):
            decision = decider.decide(request, device, targets)
            if decider.cfg.decide_s:
                yield env.timeout(decider.cfg.decide_s)
        metrics = metrics_of(env)
        if metrics is not None:
            metrics.counter(f"client.decisions.{decision.choice}").inc()
        if decision.choice == "offload":
            budget = None
            if decider.cfg.enforce_budget and decision.budget_s != float("inf"):
                budget = decision.budget_s
            proc = targets[decision.target].submit(request, device.link)
            result = yield from _offload(
                env, proc, request, device, budget, "QoS budget exceeded"
            )
            result.started_at = started  # the decision is part of it
        elif decision.choice == "local":
            result = yield from _client_result(env, request, started, device)
        else:  # shed
            result = yield from _client_result(env, request, started, shed=True)
        decider.observe(result)
        return result

    return _replay(env, plans, devices, step)


def replay_closed_loop(
    env: "Environment",
    platform: "CloudPlatform",
    plans: Sequence["ArrivalPlan"],
    link: Link,
    devices: Optional[Dict[str, MobileDevice]] = None,
) -> Generator:
    """Process generator: closed-loop replay, the main-experiment mode.

    Every device shares ``link``; this matches §VI-C's "5 Android
    devices running offloading workloads".  When ``devices`` is given,
    each device's battery is charged for its offloaded requests.
    """

    def step(plan, device) -> Generator:
        return (yield from _offload(
            env, platform.submit(plan.request, link), plan.request, device
        ))

    return _replay(env, plans, devices, step)


def replay_inflow(
    env: "Environment",
    platform: "CloudPlatform",
    plans: Sequence["ArrivalPlan"],
    link: Link,
    devices: Optional[Dict[str, MobileDevice]] = None,
) -> Generator:
    """Process generator: fire every arrival at its timestamp.

    Returns the completed :class:`RequestResult` list, ordered by
    request id.  When ``devices`` is given, each device's battery is
    charged for its offloaded requests (Fig. 10's methodology).
    """

    def fire(plan: ArrivalPlan) -> Generator:
        delay = plan.time_s - env.now
        if delay > 0:
            yield env.timeout(delay)
        device = devices[plan.device_id] if devices is not None else None
        return (yield from _offload(
            env, platform.submit(plan.request, link), plan.request, device
        ))

    done = yield env.all_of([env.process(fire(plan)) for plan in plans])
    results = [r for r in done.values() if isinstance(r, RequestResult)]
    results.sort(key=lambda r: r.request.request_id)
    return results


def run_inflow_experiment(
    env: "Environment",
    platform: "CloudPlatform",
    plans: Sequence["ArrivalPlan"],
    link: Link,
    devices: Optional[Dict[str, MobileDevice]] = None,
    mode: str = "closed",
) -> List[RequestResult]:
    """Convenience wrapper: replay ``plans`` and run the clock until done.

    ``mode="closed"`` (default) drives each device one-request-at-a-
    time; ``mode="open"`` fires at absolute timestamps (trace replay).
    """
    if mode == "closed":
        gen = replay_closed_loop(env, platform, plans, link, devices)
    elif mode == "open":
        gen = replay_inflow(env, platform, plans, link, devices)
    else:
        raise ValueError(f"mode must be 'closed' or 'open', got {mode!r}")
    return env.run(until=env.process(gen))
