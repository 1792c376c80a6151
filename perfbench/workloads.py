"""The benchmark's three workloads, built and driven through public APIs.

Constructing a workload with ``(seed, scale)`` builds its world
(environment, platforms, links, devices and every request, all derived
from the seed).  Then:

- ``run()`` starts the benchmark's drivers and advances the simulation
  to the end of the workload (zones-sharded builds its shards there, in
  their workers, and reports that build as :attr:`Workload.build_s`);
- ``outcome()`` returns an :class:`Outcome` of per-request results plus
  the simulated totals the end-to-end metrics need;
- ``layers()`` returns counters read from the layers' public statistics.

The drivers here are the benchmark's own, not the library's replay
helpers: every request's exception is caught and classified, so a
failing request is counted and never aborts the run.

Why these three workloads, and what each should move, is recorded in
``NOTES.md`` beside this file.
"""

from __future__ import annotations

import functools
import hashlib
import math
import os
import time
from collections import Counter
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.network.backhaul import ShardLink
from repro.network.link import FlowLink, Link, Mbps
from repro.network.scenarios import SCENARIOS, make_link
from repro.obs import Observability, trace_span
from repro.offload import (
    MobileDevice,
    OffloadDecider,
    OffloadRequest,
    PartitionConfig,
    PhaseTimeline,
    PowerModel,
    RequestResult,
)
from repro.platform import (
    ClusterPlatform,
    PopulationSource,
    PredictiveConfig,
    RattrapPlatform,
)
from repro.platform.population import per_request_bytes
from repro.platform.qos import QoSBudgetBook
from repro.sim import Environment
from repro.sim import shard as sim_shard
from repro.workloads import CHESS_GAME, LINPACK, OCR, VIRUS_SCAN, derive_profile

from . import tracing

__all__ = ["WORKLOADS", "SIZES", "Outcome", "Ledger", "sizes_for"]

#: Full-size shapes.  ``scale`` multiplies every device/request count
#: (the smoke tests run at a few percent); rates and timings stay put.
SIZES: Dict[str, Dict[str, Any]] = {
    "fleet-scan": {
        "devices": 10_000,
        "arrival_rate_s": 10.0,
        "servers": 3,
        "access_points": 64,
    },
    "sessions-mixed": {
        "devices": 200,
        "sessions_per_device": 3,
        "requests_per_session": 8,
        "think_s": 4.0,
        "session_gap_s": (150.0, 300.0),
        "servers": 3,
        "idle_timeout_s": 120.0,
        "shared_payloads_per_app": 8,
    },
    "zones-sharded": {
        "zones": 8,
        "shards": 2,
        "tracers_per_zone": 1_000,
        "tracer_rate_s": 3.3,
        "population_per_zone": 100_000,
        "access_points_per_zone": 4,
        "roam_every": 5,
    },
}

SCENARIO = "lan-wifi"
POWER = PowerModel()

_SHARD_METRICS = frozenset({
    "sim.shard.epochs_run", "sim.shard.epochs_skipped", "sim.shard.sync_wait_s",
    "sim.shard.messages", "network.backhaul.messages",
})
_CACHE_METRICS = frozenset({"platform.result_hit_rate", "platform.result_stores"})
_OFFLOAD_METRICS = frozenset({"offload.self_s", "offload.decisions", "offload.local_frac"})

#: Per-layer metrics whose layer does no work on a workload, by design.
#: They are reported as 0, and the traced run fails if one reads
#: anything else; every other per-layer metric must be computed.
IDLE_METRICS: Dict[str, frozenset] = {
    # every optional plane detached, one node tier, no shards
    "fleet-scan": _SHARD_METRICS | _CACHE_METRICS | _OFFLOAD_METRICS | {
        "obs.self_s", "obs.spans", "platform.preboot_hit_rate",
        "platform.population.completed",
    },
    # one dedicated (non-fluid) link per device, no predictor, no shards
    "sessions-mixed": _SHARD_METRICS | {
        "network.peak_flows", "platform.preboot_hit_rate",
        "platform.population.completed",
    },
    # no handsets or decider, cache off, obs metrics only (no tracer)
    "zones-sharded": _CACHE_METRICS | _OFFLOAD_METRICS | {"obs.spans"},
}

#: Computed per-layer metrics that may read 0 where their layer works:
#: rates, and counts of outcomes rather than of work.  Any other
#: computed count or time that reads 0 fails the traced run.
MAY_READ_ZERO = frozenset({
    "platform.boot_stalls",  # no request found its container booting
    "platform.dedup_hit_rate",  # sessions-mixed: few payloads repeat while staged
    "platform.result_hit_rate",
    "offload.local_frac",
    "sim.shard.epochs_skipped",
    "sim.shard.sync_wait_s",  # no barrier on the serial path (one worker)
})


def sizes_for(name: str, scale: float) -> Dict[str, Any]:
    """The workload's sizes with every count multiplied by ``scale``."""
    counted = {
        "devices",
        "tracers_per_zone",
        "population_per_zone",
    }
    return {
        key: max(1, int(round(value * scale))) if key in counted else value
        for key, value in SIZES[name].items()
    }


# -- outcome accounting --------------------------------------------------------

#: host-clock marks a ledger takes over a run (one per 1/100 of its outcomes)
MARKS_PER_RUN = 100


class Ledger:
    """Per-request outcomes: completed, local, shed or failed.

    ``expect(n)`` arms :attr:`done`, an event that fires once ``n``
    outcomes are in; the run stops on it, so every attempted request
    has an outcome by the time the run returns.

    Every ``n // MARKS_PER_RUN``-th outcome also reads the host clock
    into :attr:`marks`.  The simulation is deterministic, so mark ``k``
    closes the same stretch of work on every repeat of a seed, and the
    benchmark can compare repeats stretch by stretch.
    """

    def __init__(self, env: Environment):
        self.attempted = 0
        #: request id -> (outcome, simulated response seconds)
        self.rows: Dict[int, Tuple[str, float]] = {}
        self.failures: Counter = Counter()
        self.done = env.event()
        #: host perf_counter() readings, one per mark_every outcomes
        self.marks: List[float] = []
        self._mark_every = 0
        self._expected: Optional[int] = None

    def expect(self, n: int) -> None:
        self._expected = n
        self._mark_every = max(1, n // MARKS_PER_RUN)
        self._check_done()

    def _check_done(self) -> None:
        if self._expected is not None and len(self.rows) >= self._expected:
            if not self.done.triggered:
                self.done.succeed()

    def record(self, request_id: int, outcome: str, response_s: float) -> None:
        self.rows[request_id] = (outcome, response_s)
        if self._mark_every and len(self.rows) % self._mark_every == 0:
            self.marks.append(time.perf_counter())
        self._check_done()

    def fail(self, request_id: int, exc: BaseException) -> None:
        self.failed_as(request_id, type(exc).__name__)

    def failed_as(self, request_id: int, kind: str) -> None:
        self.failures[kind] += 1
        self.record(request_id, "failed", math.inf)

    def settle(self, request_id: int, due: float, event) -> None:
        """Classify a submitted request's settled process."""
        if event.ok:
            if event.value.blocked:  # refused by the access controller
                self.failed_as(request_id, "Blocked")
            else:
                self.record(request_id, "completed", event.env.now - due)
        else:
            self.fail(request_id, event.exception)


class Outcome:
    """What one run produced: per-request rows plus simulated totals."""

    def __init__(
        self,
        attempted: int,
        rows: Dict[int, Tuple[str, float]],
        failures: Counter,
        events: int,
        energy_j: float,
        checks: Dict[str, bool],
        extra: Optional[Dict[str, Any]] = None,
    ):
        self.attempted = attempted
        self.rows = rows
        self.failures = dict(sorted(failures.items()))
        self.events = events
        self.energy_j = energy_j
        self.checks = dict(checks)
        self.extra = extra or {}
        counts = Counter(outcome for outcome, _ in rows.values())
        self.completed = counts["completed"]
        self.local = counts["local"]
        self.shed = counts["shed"]
        self.failed = counts["failed"]
        self.checks["attempted = completed + local + shed + failed"] = (
            attempted == self.completed + self.local + self.shed + self.failed
            and len(rows) == attempted
        )

    @property
    def answered(self) -> int:
        """Requests the simulation finished: offloaded or run locally."""
        return self.completed + self.local

    def responses(self) -> List[float]:
        """Sorted response times.  A failed or shed request misses any
        latency limit, so it counts as infinite."""
        return sorted(
            math.inf if outcome == "shed" else response
            for outcome, response in self.rows.values()
        )

    def percentile(self, p: float) -> float:
        """Nearest-rank percentile over every attempted request."""
        values = self.responses()
        return values[max(1, math.ceil(len(values) * p)) - 1]

    def digest(self) -> str:
        """SHA-256 over every request's outcome and response time."""
        h = hashlib.sha256()
        for request_id in sorted(self.rows):
            outcome, response = self.rows[request_id]
            h.update(f"{request_id}:{outcome}:{response!r};".encode())
        return h.hexdigest()[:16]


def _watch(ledger: Ledger, proc, request_id: int, due: float) -> None:
    """Classify a submitted request's process when it settles.

    A callback on the process adds no kernel event, so the open-loop
    drivers count outcomes without changing the event stream.
    """
    proc.defused = True
    proc.add_callback(functools.partial(ledger.settle, request_id, due))


def _flow_aps(seed: int, prefix: str, count: int, *key) -> List[FlowLink]:
    params = SCENARIOS[SCENARIO]
    return [
        FlowLink(f"{prefix}{i}", rng=np.random.default_rng((seed, *key, i)), **params)
        for i in range(count)
    ]


def _link_totals(links) -> Dict[str, float]:
    goodput = sum(link.bytes_up + link.bytes_down for link in links)
    wire = sum(link.wire_bytes_up + link.wire_bytes_down for link in links)
    out = {"network.peak_flows": max(link.peak_flows for link in links)}
    if goodput:
        out["network.wire_ratio"] = wire / goodput
    return out


def _platform_counts(nodes, sim_s: float) -> Dict[str, float]:
    """Raw counters every Rattrap node exposes, summed over ``nodes``."""
    dispatchers = [node.dispatcher for node in nodes]
    warehouses = [node.warehouse for node in nodes]
    cpus = [node.server.cpu for node in nodes]
    return {
        "cold_boots": sum(d.cold_boots for d in dispatchers),
        "warm_dispatches": sum(d.warm_dispatches for d in dispatchers),
        "boot_stalls": sum(d.boot_stalls for d in dispatchers),
        "preboots": sum(d.preboots for d in dispatchers),
        "preboot_hits": sum(d.preboot_hits for d in dispatchers),
        "code_lookups": sum(w.lookups for w in warehouses),
        "code_misses": sum(w.misses for w in warehouses),
        "dedup_hits": sum(node.shared_layer.offload_io.dedup_hits for node in nodes),
        "cpu_jobs": sum(cpu.completed_jobs for cpu in cpus),
        "cores": sum(cpu.cores for cpu in cpus),
        "busy_core_s": sum(
            cpu.utilization.mean_percent(0.0, sim_s) / 100.0 * cpu.cores * sim_s
            for cpu in cpus
        ) if sim_s > 0 else 0.0,
        "sim_s": sim_s,
    }


def _platform_metrics(c: Dict[str, float]) -> Dict[str, float]:
    """Per-layer platform and hostos metrics from summed raw counters.

    A rate whose base is 0 is left out: nothing measured it.
    """
    out = {
        "platform.cold_boots": c["cold_boots"],
        "platform.warm_dispatches": c["warm_dispatches"],
        "platform.boot_stalls": c["boot_stalls"],
        "platform.dedup_hits": c["dedup_hits"],
        "hostos.cpu_jobs": c["cpu_jobs"],
    }
    if c["code_lookups"]:
        out["platform.code_hit_rate"] = 1.0 - c["code_misses"] / c["code_lookups"]
    if c["preboots"]:
        out["platform.preboot_hit_rate"] = c["preboot_hits"] / c["preboots"]
    capacity = c["cores"] * c["sim_s"]
    if capacity:
        out["hostos.cpu_util"] = c["busy_core_s"] / capacity
    return out


class Workload:
    """Defaults for a workload that runs in this process."""

    #: processes the simulation runs in
    workers = 1
    #: set-up seconds spent inside :meth:`run` (shard builds)
    build_s = 0.0
    #: constructions timed per run; only the last one is run
    setups_per_iteration = 3

    def worker_traces(self) -> List[list]:
        """Spans recorded in worker processes (traced runs)."""
        return []

    def host_marks(self) -> List[float]:
        """Host-clock readings taken at fixed points of the run."""
        return self.ledger.marks


# -- fleet-scan: open loop, one VirusScan per device ------------------------------

class FleetScan(Workload):
    """~10k devices, Poisson arrivals, 3-node cluster, 64 shared APs.

    Every optional plane (obs, compute cache, predictor, partition
    decider) stays detached: this is the bare serve path at scale.
    """

    name = "fleet-scan"

    def __init__(self, seed: int, scale: float = 1.0):
        self.sizes = sizes = sizes_for(self.name, scale)
        env = self.env = Environment()
        self.cluster = ClusterPlatform(
            env,
            servers=sizes["servers"],
            policy="device-sticky",
            platform_factory=lambda e: RattrapPlatform(
                e, optimized=True, dispatch_policy="app-affinity"
            ),
        )
        self.aps = _flow_aps(seed, "ap-", sizes["access_points"])
        rng = np.random.default_rng(seed)
        n = sizes["devices"]
        due = np.cumsum(rng.exponential(1.0 / sizes["arrival_rate_s"], size=n))
        # Every request inherits VIRUS_SCAN's payload digest: all
        # stagings share one signature database.
        self.requests = [
            OffloadRequest(
                request_id=i,
                device_id=f"dev-{i}",
                app_id=VIRUS_SCAN.name,
                profile=VIRUS_SCAN,
                submitted_at=float(due[i]),
            )
            for i in range(n)
        ]
        self.ledger = Ledger(env)
        self.ledger.expect(n)

    def _feeder(self, env):
        ledger, aps, submit = self.ledger, self.aps, self.cluster.submit
        for i, request in enumerate(self.requests):
            due = request.submitted_at
            if due > env.now:
                yield env.timeout(due - env.now)
            ledger.attempted += 1
            try:
                proc = submit(request, aps[i % len(aps)])
            except Exception as exc:
                ledger.fail(request.request_id, exc)
                continue
            _watch(ledger, proc, request.request_id, due)

    def run(self) -> None:
        self.env.process(self._feeder(self.env))
        self.env.run(until=self.ledger.done)

    def outcome(self) -> Outcome:
        energy = sum(
            POWER.offload_energy(r, SCENARIO).total_j for r in self.cluster.completed()
        )
        return Outcome(
            self.ledger.attempted,
            self.ledger.rows,
            self.ledger.failures,
            self.env.event_count,
            energy,
            checks={},
        )

    def layers(self) -> Dict[str, float]:
        out = _platform_metrics(_platform_counts(self.cluster.nodes, self.env.now))
        out.update(_link_totals(self.aps))
        return out


# -- sessions-mixed: closed loop, per-device containers, every plane on ------------

SESSION_APPS = (CHESS_GAME, VIRUS_SCAN, LINPACK, OCR)
SESSION_SCENARIOS = ("lan-wifi", "wan-wifi", "4g", "3g")
#: task-size multipliers on an app profile's compute (0.8x to 1.25x)
TASK_SIZES = tuple(float(x) for x in np.linspace(0.8, 1.25, 64))


class SessionsMixed(Workload):
    """~200 phones in sessions; each waits for its reply (closed loop).

    Sessions are separated by more than the idle-reaper timeout, so
    per-device containers are reaped between them and almost every
    session cold-boots.  Half the payloads recur within a small
    per-app universe (compute-cache reads), half are unique (writes
    and evictions).  The decider scores each request against the
    device's home node.
    """

    name = "sessions-mixed"

    def __init__(self, seed: int, scale: float = 1.0):
        self.sizes = sizes = sizes_for(self.name, scale)
        env = self.env = Environment()
        self.obs = Observability(env, tracing=True, metrics=True)
        self.cluster = ClusterPlatform(
            env,
            servers=sizes["servers"],
            policy="device-sticky",
            platform_factory=lambda e: RattrapPlatform(
                e, optimized=True, dispatch_policy="per-device"
            ),
        )
        self.cache = self.cluster.enable_compute_cache()
        self.cluster.start_idle_reaper(sizes["idle_timeout_s"])
        self.decider = OffloadDecider(
            PartitionConfig(shed_over_budget=True),
            # Budgets adapt to observed latency with wide slack: a few
            # hopeless requests are shed, a few more run on the handset.
            budgets=QoSBudgetBook(adaptive=True, slack=8.0),
        )
        rng = np.random.default_rng(seed)
        self._task_level: Dict[str, int] = {}
        self._profiles: Dict[Tuple[str, int], Any] = {}
        self.devices: List[MobileDevice] = []
        self.plans: List[List[Tuple[float, OffloadRequest]]] = []
        rid = 0
        gap_lo, gap_hi = sizes["session_gap_s"]
        per_session = sizes["requests_per_session"]
        for d in range(sizes["devices"]):
            app = SESSION_APPS[d % len(SESSION_APPS)]
            scenario = SESSION_SCENARIOS[(d // len(SESSION_APPS)) % len(SESSION_SCENARIOS)]
            device_id = f"phone-{d}"
            self.devices.append(
                MobileDevice(device_id, make_link(scenario, rng=np.random.default_rng((seed, d))))
            )
            plan = []
            gap = float(rng.uniform(0.0, gap_lo))
            for _session in range(sizes["sessions_per_device"]):
                for _ in range(per_session):
                    if rng.random() < 0.5:
                        shared = int(rng.integers(sizes["shared_payloads_per_app"]))
                        digest = f"{app.name}/shared-{shared}"
                    else:
                        digest = f"{app.name}/unique-{rid}"
                    plan.append(
                        (
                            gap,
                            OffloadRequest(
                                request_id=rid,
                                device_id=device_id,
                                app_id=app.name,
                                profile=self._task(app, digest, rng),
                                payload_digest=digest,
                            ),
                        )
                    )
                    rid += 1
                    gap = sizes["think_s"] * (1.0 + 0.25 * float(rng.uniform(-1.0, 1.0)))
                gap = float(rng.uniform(gap_lo, gap_hi))
            self.plans.append(plan)
        self.ledger = Ledger(env)
        self.ledger.expect(rid)

    def _task(self, app, digest: str, rng):
        """The app's profile scaled to this payload's task size.

        Inputs differ in size, so a task takes one of
        :data:`TASK_SIZES` times the profile's compute, on the handset
        and in the cloud alike; one payload digest is one task.
        """
        level = self._task_level.get(digest)
        if level is None:
            level = self._task_level[digest] = int(rng.integers(len(TASK_SIZES)))
        profile = self._profiles.get((app.name, level))
        if profile is None:
            size = TASK_SIZES[level]
            profile = self._profiles[(app.name, level)] = derive_profile(
                app, app.name,
                local_time_s=app.local_time_s * size,
                cloud_cpu_s=app.cloud_cpu_s * size,
            )
        return profile

    def _drive(self, env, device: MobileDevice, plan):
        ledger, cluster, decider = self.ledger, self.cluster, self.decider
        for gap, request in plan:
            yield env.timeout(gap)
            due = env.now
            ledger.attempted += 1
            try:
                with trace_span(env, "decide", who=device.device_id, trace=request.trace_id):
                    decision = decider.decide(request, device, [cluster.route(request)])
                if decision.choice == "offload":
                    result = yield cluster.submit(request, device.link)
                    if result.blocked:  # refused by the access controller
                        ledger.failed_as(request.request_id, "Blocked")
                        continue
                    device.account_offload(result)
                    outcome = "completed"
                elif decision.choice == "local":
                    yield from device.execute_locally(
                        env, request.profile, trace_id=request.trace_id
                    )
                    result = RequestResult(
                        request, PhaseTimeline(), due, env.now, executed_locally=True
                    )
                    outcome = "local"
                else:
                    result = RequestResult(request, PhaseTimeline(), due, env.now, shed=True)
                    outcome = "shed"
                decider.observe(result)
            except Exception as exc:
                ledger.fail(request.request_id, exc)
            else:
                ledger.record(request.request_id, outcome, env.now - due)

    def run(self) -> None:
        for device, plan in zip(self.devices, self.plans):
            self.env.process(self._drive(self.env, device, plan))
        self.env.run(until=self.ledger.done)

    def _phase_coverage(self) -> float:
        """Phase spans of answered requests over their summed latency."""
        phases = self.obs.tracer.phases_by_trace()
        span_s = e2e_s = 0.0
        for plan in self.plans:
            for _, request in plan:
                outcome, response = self.ledger.rows[request.request_id]
                if outcome == "failed":
                    continue
                e2e_s += response
                span_s += sum(phases.get(request.trace_id, {}).values())
        return span_s / e2e_s if e2e_s else 1.0

    def outcome(self) -> Outcome:
        coverage = self._phase_coverage()
        return Outcome(
            self.ledger.attempted,
            self.ledger.rows,
            self.ledger.failures,
            self.env.event_count,
            sum(device.energy_used_j for device in self.devices),
            checks={"phase spans cover 100.00% of e2e latency": round(100.0 * coverage, 2) == 100.0},
            extra={"phase_coverage_pct": 100.0 * coverage},
        )

    def layers(self) -> Dict[str, float]:
        out = _platform_metrics(_platform_counts(self.cluster.nodes, self.env.now))
        out.update(_link_totals([device.link for device in self.devices]))
        stats = self.cache.stats()
        out["platform.result_hit_rate"] = stats["hit_rate"]
        out["platform.result_stores"] = stats["stores"]
        decider = self.decider
        decisions = decider.offloads + decider.locals + decider.sheds
        out["offload.decisions"] = decisions
        if decisions:
            out["offload.local_frac"] = decider.locals / decisions
        out["obs.spans"] = len(self.obs.tracer)
        return out


# -- zones-sharded: 8 zones on 2 shards, tracers + populations ----------------------

BACKHAUL_LATENCY_S = 0.25
BACKHAUL_BW_BPS = 10_000 * Mbps
POP_START_S = 5.0
#: the population's zone head has 5% headroom over its arrival rate
POP_HEADROOM = 1.05
#: simulated seconds after the last arrival for in-flight work to finish
DRAIN_S = 60.0


def _calibrate_base_response() -> float:
    """Warm response of one uncontended request on a jitter-free AP.

    The populations' closed forms need a per-request base response;
    it is measured on the discrete model (one cold request, then a
    warm one), not assumed.
    """
    env = Environment()
    platform = RattrapPlatform(env, optimized=True, dispatch_policy="app-affinity")
    params = dict(SCENARIOS[SCENARIO], jitter_sigma=0.0)
    ap = FlowLink("calm-ap", rng=np.random.default_rng(0), **params)
    out = {}

    def probe(env):
        for i in range(2):
            request = OffloadRequest(
                request_id=i, device_id="probe", app_id=VIRUS_SCAN.name,
                profile=VIRUS_SCAN, submitted_at=env.now,
            )
            out[i] = yield platform.submit(request, ap)
            yield env.timeout(2.0)

    env.run(until=env.process(probe(env)))
    return out[1].response_time


class _Zone:
    """One zone: a Rattrap node, its APs, its tracers and its population."""

    def __init__(self, env: Environment, runner, spec: Dict[str, Any]):
        self.env = env
        self.runner = runner
        self.zone_id = z = spec["zone"]
        self.platform = RattrapPlatform(env, optimized=True, dispatch_policy="app-affinity")
        self.platform.enable_predictive(PredictiveConfig(hold_s=3600.0))
        self.platform.start_predictor()
        self.aps = _flow_aps(spec["seed"], f"z{z}-ap-", spec["aps"], z)
        # Datacenter-side leg for visiting roamers: deterministic, fat.
        self.stub = Link(
            f"z{z}-dc", latency_s=0.001, up_bw_bps=BACKHAUL_BW_BPS,
            down_bw_bps=BACKHAUL_BW_BPS, handshake_rounds=1,
        )
        self.backhaul = ShardLink(
            f"z{z}-backhaul", latency_s=BACKHAUL_LATENCY_S, bw_bps=BACKHAUL_BW_BPS
        )
        self.roam_to = spec["roam_to"]
        self.roam_every = spec["roam_every"]
        self.bytes_up_each, self.bytes_down_each = per_request_bytes(VIRUS_SCAN)
        self.requests = [
            OffloadRequest(
                request_id=z * 10_000_000 + i,
                device_id=f"z{z}-dev-{i}",
                app_id=VIRUS_SCAN.name,
                profile=VIRUS_SCAN,
                submitted_at=t,
            )
            for i, t in enumerate(spec["arrivals"])
        ]
        self.ledger = Ledger(env)
        self.visitor_results: List[RequestResult] = []
        pop = spec["population"]
        self.population = PopulationSource(
            env, VIRUS_SCAN, n=pop["n"], rate_req_s=pop["rate_req_s"],
            start_s=POP_START_S, base_response_s=pop["base_response_s"],
            capacity_req_s=pop["rate_req_s"] * POP_HEADROOM,
            predictor=self.platform.predictor, name=f"z{z}-pop",
        )
        self.population.start()
        env.process(self._feeder(env))

    def _feeder(self, env):
        ledger = self.ledger
        for i, request in enumerate(self.requests):
            due = request.submitted_at
            if due > env.now:
                yield env.timeout(due - env.now)
            ledger.attempted += 1
            if i % self.roam_every == self.roam_every - 1:
                env.process(self._roam_out(request))
                continue
            try:
                proc = self.platform.submit(request, self.aps[i % len(self.aps)])
            except Exception as exc:
                ledger.fail(request.request_id, exc)
                continue
            _watch(ledger, proc, request.request_id, due)

    def _roam_out(self, request: OffloadRequest):
        """Origin half of a roamer: AP upload, then the backhaul hop."""
        try:
            ap = self.aps[request.request_id % len(self.aps)]
            yield from ap.transmit(self.env, self.bytes_up_each, "up")
            self.backhaul.send(
                self.runner, self.zone_id, self.roam_to, "offload", request,
                self.bytes_up_each,
            )
        except Exception as exc:
            self.ledger.fail(request.request_id, exc)

    def on_offload(self, msg) -> None:
        self.env.process(self._serve_visitor(msg.payload, msg.src))

    def _serve_visitor(self, request: OffloadRequest, origin: int):
        """Remote half of a roamer: serve here, ship the outcome home."""
        error = ""
        nbytes = 0
        try:
            result = yield self.platform.submit(request, self.stub)
            self.visitor_results.append(result)
            nbytes = result.bytes_down
        except Exception as exc:
            error = type(exc).__name__
        self.backhaul.send(
            self.runner, self.zone_id, origin, "result",
            (request.request_id, request.submitted_at, error), nbytes,
        )

    def on_result(self, msg) -> None:
        self.env.process(self._finish_roamer(*msg.payload))

    def _finish_roamer(self, request_id: int, due: float, error: str):
        if error:
            self.ledger.failed_as(request_id, error)
            return
        try:
            ap = self.aps[request_id % len(self.aps)]
            yield from ap.transmit(self.env, self.bytes_down_each, "down")
        except Exception as exc:
            self.ledger.fail(request_id, exc)
        else:
            self.ledger.record(request_id, "completed", self.env.now - due)

    def summary(self) -> Dict[str, Any]:
        served = [
            r for r in self.platform.completed()
            if r.request.device_id.startswith(f"z{self.zone_id}-")
        ] + self.visitor_results
        pop = self.population
        links = self.aps + [self.stub]
        return {
            "zone": self.zone_id,
            "attempted": self.ledger.attempted,
            "rows": dict(self.ledger.rows),
            "failures": dict(self.ledger.failures),
            "energy_j": sum(POWER.offload_energy(r, SCENARIO).total_j for r in served),
            "backhaul_messages": self.backhaul.messages,
            "population": pop.summary(),
            "population_bytes_each": (pop.bytes_up_each, pop.bytes_down_each),
            "link_bytes": (
                sum(l.bytes_up + l.bytes_down for l in links),
                sum(l.wire_bytes_up + l.wire_bytes_down for l in links),
            ),
            "peak_flows": max(ap.peak_flows for ap in self.aps),
            "platform": _platform_counts([self.platform], self.env.now),
        }


def _build_shard(spec: Dict[str, Any]):
    """Build one shard (environment + its zones) from a picklable spec.

    Runs inside the shard's worker process on the parallel path; the
    build time travels back in the summary so it counts as set-up.
    """
    t0 = time.perf_counter()
    env = Environment()
    Observability(env, tracing=False, metrics=True)
    runner = sim_shard.ShardRunner(spec["shard"], env, lookahead=BACKHAUL_LATENCY_S)
    zones = {z["zone"]: _Zone(env, runner, z) for z in spec["zones"]}
    runner.on("offload", lambda msg: zones[msg.dst].on_offload(msg))
    runner.on("result", lambda msg: zones[msg.dst].on_result(msg))
    runner.bench_zones = zones
    runner.bench_build_s = time.perf_counter() - t0
    runner.bench_in_worker = os.getpid() != spec["parent_pid"]
    tracer = tracing.active()
    if tracer is not None:
        tracer.reset()  # spans cover the run, not the build
    return runner


def _finalize_shard(runner) -> Dict[str, Any]:
    metrics = runner.env.obs.metrics
    tracer = tracing.active()
    return {
        "shard": runner.shard_id,
        "events": runner.env.event_count,
        "delivered": runner.delivered,
        "build_s": runner.bench_build_s,
        "in_worker": runner.bench_in_worker,
        "zones": [zone.summary() for _, zone in sorted(runner.bench_zones.items())],
        "population_completed_counter": metrics.counter("population.completed").value,
        # In-process shards share the parent's tracer; only a worker
        # process has spans of its own to ship back.
        "trace": tracer.export() if tracer is not None and runner.bench_in_worker else None,
    }


#: epochs the sharded run advances between two host-clock marks
EPOCHS_PER_MARK = 10


class _MarkingEpochStats(sim_shard.EpochStats):
    """:class:`EpochStats` that reads the host clock every
    :data:`EPOCHS_PER_MARK` epochs run.

    The epoch sequence is deterministic, so, like a :class:`Ledger`'s
    marks, mark ``k`` closes the same stretch of work on every repeat.
    """

    def __setattr__(self, name: str, value: Any) -> None:
        if name == "epochs_run" and value and value % EPOCHS_PER_MARK == 0:
            self.__dict__.setdefault("marks", []).append(time.perf_counter())
        super().__setattr__(name, value)

    def reset(self) -> None:
        self.__dict__["marks"] = []
        super().reset()


class ZonesSharded(Workload):
    """8 zones (node + 4 APs + ~1000 tracers + 100k population) on 2 shards.

    Every ``roam_every``-th tracer offloads into the next zone over the
    backhaul; zones are packed round-robin, so every roam crosses a
    shard boundary.
    """

    name = "zones-sharded"
    #: the shards are built inside the run, so each iteration sets up once
    setups_per_iteration = 1

    def __init__(self, seed: int, scale: float = 1.0):
        self.sizes = sizes = sizes_for(self.name, scale)
        base = _calibrate_base_response()
        zones, shards = sizes["zones"], sizes["shards"]
        tracers = sizes["tracers_per_zone"]
        rate = sizes["tracer_rate_s"]
        last = 0.0
        zone_specs = []
        for z in range(zones):
            # Stratified arrivals: one tracer per 1/rate slot, placed
            # uniformly within it.  Seeded like Poisson arrivals but
            # without their bursts, so the tail reflects the zone.
            rng = np.random.default_rng((seed, z))
            slots = np.arange(tracers) + rng.uniform(size=tracers)
            arrivals = [float(t) for t in slots / rate]
            last = max(last, arrivals[-1])
            zone_specs.append({
                "zone": z, "seed": seed, "aps": sizes["access_points_per_zone"],
                "arrivals": arrivals, "roam_to": (z + 1) % zones,
                "roam_every": sizes["roam_every"],
            })
        # The population arrives over the tracers' span, so both load
        # the zone for the same simulated interval.
        pop_n = sizes["population_per_zone"]
        pop_rate = pop_n / max(last - POP_START_S, 1.0)
        for spec in zone_specs:
            spec["population"] = {"n": pop_n, "rate_req_s": pop_rate, "base_response_s": base}
        self.horizon = max(last, POP_START_S + pop_n / pop_rate + base) + DRAIN_S
        self.specs = [
            {
                "shard": s,
                "zones": [zs for zs in zone_specs if zs["zone"] % shards == s],
                "parent_pid": os.getpid(),
            }
            for s in range(shards)
        ]
        self.owner = {z: z % shards for z in range(zones)}
        self.workers = min(shards, os.cpu_count() or 1)
        self.stats = _MarkingEpochStats()
        self.summaries: List[Dict[str, Any]] = []

    def run(self) -> None:
        self.summaries = sim_shard.run_sharded(
            _build_shard, self.specs, self.owner, window=BACKHAUL_LATENCY_S,
            until=self.horizon, finalize=_finalize_shard,
            jobs=self.workers if self.workers > 1 else 0, stats=self.stats,
        )

    @property
    def build_s(self) -> float:
        """Shard build time inside :meth:`run`: worker processes build
        their shards side by side, the parent one after another."""
        workers = [s["build_s"] for s in self.summaries if s["in_worker"]]
        parent = [s["build_s"] for s in self.summaries if not s["in_worker"]]
        return max(workers, default=0.0) + sum(parent)

    def _zones(self) -> List[Dict[str, Any]]:
        return sorted((z for s in self.summaries for z in s["zones"]), key=lambda z: z["zone"])

    def outcome(self) -> Outcome:
        zones = self._zones()
        rows: Dict[int, Tuple[str, float]] = {}
        failures: Counter = Counter()
        for zone in zones:
            rows.update(zone["rows"])
            failures.update(zone["failures"])
        sent = sum(z["backhaul_messages"] for z in zones)
        delivered = sum(s["delivered"] for s in self.summaries)
        conserved = all(
            z["population"]["completed"] == z["population"]["devices"]
            and z["population"]["bytes_up"] == z["population"]["devices"] * z["population_bytes_each"][0]
            and z["population"]["bytes_down"] == z["population"]["devices"] * z["population_bytes_each"][1]
            for z in zones
        ) and sum(s["population_completed_counter"] for s in self.summaries) == sum(
            z["population"]["devices"] for z in zones
        )
        return Outcome(
            sum(z["attempted"] for z in zones),
            rows,
            failures,
            sum(s["events"] for s in self.summaries),
            sum(z["energy_j"] for z in zones),
            checks={
                "no cross-shard mail undelivered": sent == delivered,
                "population totals conserved": conserved,
            },
            extra={"backhaul_sent": sent, "backhaul_delivered": delivered},
        )

    def layers(self) -> Dict[str, float]:
        zones = self._zones()
        counts = {key: sum(z["platform"][key] for z in zones) for key in zones[0]["platform"]}
        counts["sim_s"] = self.horizon
        out = _platform_metrics(counts)
        goodput = sum(z["link_bytes"][0] for z in zones)
        wire = sum(z["link_bytes"][1] for z in zones)
        if goodput:
            out["network.wire_ratio"] = wire / goodput
        out["network.peak_flows"] = max(z["peak_flows"] for z in zones)
        out["network.backhaul.messages"] = sum(z["backhaul_messages"] for z in zones)
        out["platform.population.completed"] = sum(z["population"]["completed"] for z in zones)
        out["sim.shard.epochs_run"] = self.stats.epochs_run
        out["sim.shard.epochs_skipped"] = self.stats.epochs_skipped
        out["sim.shard.sync_wait_s"] = self.stats.sync_wall_s
        out["sim.shard.messages"] = sum(s["delivered"] for s in self.summaries)
        return out

    def worker_traces(self) -> List[list]:
        return [s["trace"] for s in self.summaries if s["trace"] is not None]

    def host_marks(self) -> List[float]:
        return self.stats.__dict__.get("marks", [])


WORKLOADS: Dict[str, Callable[..., Any]] = {
    FleetScan.name: FleetScan,
    SessionsMixed.name: SessionsMixed,
    ZonesSharded.name: ZonesSharded,
}
