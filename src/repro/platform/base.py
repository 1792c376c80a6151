"""The cloud-platform request lifecycle shared by all three platforms.

:class:`CloudPlatform` implements the end-to-end offloading protocol —
connection, runtime preparation, data transfer, execution, result
return — with the per-phase accounting of §III-B.  The three concrete
platforms (VM cloud, Rattrap(W/O), Rattrap) differ only in the hooks:
which runtime boots, where migrated data lands, and whether the code
cache short-circuits uploads.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Dict, Generator, List, Optional, Tuple

from ..faults.errors import NodeDown, RuntimeCrashed
from ..hostos.server import CloudServer
from ..network.link import Link
from ..obs import metrics_of, trace_span
from ..network.transfer import TransferLog, send_messages
from ..offload.messages import KB, upload_messages, result_message
from ..offload.request import OffloadRequest, Phase, PhaseTimeline, RequestResult
from ..runtime.base import RuntimeEnvironment, RuntimeState
from .access import AccessDecision
from .compute_cache import ComputeCacheConfig, ComputeResultCache
from .container_db import ContainerDB, ContainerRecord
from .dispatcher import Dispatcher
from .scheduler import MonitorScheduler, PredictiveConfig, WarmPoolPredictor

if TYPE_CHECKING:  # pragma: no cover
    from ..sim.core import Environment
    from ..sim.process import Process

__all__ = ["CloudPlatform"]


class CloudPlatform:
    """Abstract cloud platform serving mobile offloading requests."""

    name = "abstract"

    def __init__(
        self,
        env: "Environment",
        server: Optional[CloudServer] = None,
        dispatch_policy: str = "per-device",
    ):
        self.env = env
        self.server = server if server is not None else CloudServer(env)
        self.db = ContainerDB()
        self.scheduler = MonitorScheduler(env, self.db)
        self.dispatcher = Dispatcher(
            env,
            self.db,
            self.scheduler,
            runtime_factory=self._make_runtime_guarded,
            policy=dispatch_policy,
            warehouse=self.warehouse_or_none(),
        )
        self.transfer_log = TransferLog()
        self.results: List[RequestResult] = []
        #: True inside an injected outage window: new requests are
        #: refused and no runtime can boot until the node is restored
        self.offline = False
        #: in-flight request processes per runtime: cid -> [(request, proc)]
        self._inflight: Dict[str, List[Tuple[OffloadRequest, "Process"]]] = {}
        #: Monitor & Scheduler process-level priorities: app_id -> CPU
        #: weight under contention (default 1.0).  Lets interactive
        #: offloaded tasks outrank batch work on a saturated server.
        self.priority_weights: Dict[str, float] = {}
        #: persistent connections: once > 0, a device's follow-up
        #: requests within the window skip the TCP handshake (real
        #: offloading frameworks hold their sockets open).
        self.keepalive_s: float = 0.0
        self._last_contact: Dict[str, float] = {}
        #: predictive warm-pool scheduling (None = reactive, zero cost)
        self.predictor: Optional[WarmPoolPredictor] = None
        #: content-addressed result cache (None = recompute, zero cost)
        self.compute_cache: Optional[ComputeResultCache] = None
        #: idle cold-boot length, probed once (see expected_preparation_s)
        self._cold_boot_s: Optional[float] = None

    # ------------------------------------------------------------------ hooks
    def make_runtime(self, cid: str, request: OffloadRequest) -> RuntimeEnvironment:
        """Create (not boot) the runtime environment for a cold request."""
        raise NotImplementedError

    def _make_runtime_guarded(self, cid: str, request: OffloadRequest) -> RuntimeEnvironment:
        """Dispatcher entry point: refuse boots while the node is down.

        Raising here (synchronously, inside ``Dispatcher.acquire``)
        keeps crash-recovery re-acquisition from boot-looping against a
        dead server — the failure propagates to the client instead.
        """
        if self.offline:
            raise NodeDown(self.name, "refusing boot while offline")
        return self.make_runtime(cid, request)

    def make_pool_runtime(self, cid: str, app_id: str) -> RuntimeEnvironment:
        """Create (not boot) a warm-pool spare — no request exists yet.

        Predictive platforms must override this; the spare boots ahead
        of demand and loads the app's code on its first dispatch.
        """
        raise NotImplementedError(
            f"{type(self).__name__} does not support warm-pool pre-boot"
        )

    def _make_pool_runtime_guarded(self, cid: str, app_id: str) -> RuntimeEnvironment:
        """Pool-factory entry point: refuse pre-boots while offline."""
        if self.offline:
            raise NodeDown(self.name, "refusing pre-boot while offline")
        return self.make_pool_runtime(cid, app_id)

    # -------------------------------------------------- predictive scheduling
    def enable_predictive(
        self, config: Optional[PredictiveConfig] = None
    ) -> WarmPoolPredictor:
        """Attach a warm-pool predictor (observability-driven dispatch).

        Requires app-affinity dispatch: spares are pooled per app, not
        per device.  The returned predictor does nothing until its tick
        loop runs — :meth:`start_predictor` — and never pre-boots
        without a metrics registry on the environment.
        """
        if self.dispatcher.policy != "app-affinity":
            raise ValueError(
                "predictive warm pools require app-affinity dispatch, "
                f"not {self.dispatcher.policy!r}"
            )
        self.predictor = WarmPoolPredictor(self, config)
        self.dispatcher._pool_factory = self._make_pool_runtime_guarded
        cfg = self.predictor.cfg
        if cfg.tail_aware:
            self.scheduler.tail_ranking = True
        # Multi-tenant guardrails live on the dispatcher (it owns the
        # pool); copied from the config so one object configures both.
        self.dispatcher.pool_capacity = cfg.pool_capacity
        self.dispatcher.pool_floors = dict(cfg.pool_floors)
        return self.predictor

    def start_predictor(self) -> "Process":
        """Spawn the predictor's background tick loop."""
        if self.predictor is None:
            raise RuntimeError("call enable_predictive() first")
        return self.env.process(self.predictor.run(self.env))

    # -------------------------------------------------- computation reuse
    def enable_compute_cache(
        self, config: Optional[ComputeCacheConfig] = None
    ) -> ComputeResultCache:
        """Attach a content-addressed result cache to the serve path.

        Digest-bearing requests whose result is resident skip the
        execute phase entirely (a ``cache_hit`` span replaces the
        ``execute`` span).  With no cache attached the serve path is
        byte-identical to before — a single ``is None`` check.
        """
        self.compute_cache = ComputeResultCache(config).bind_env(self.env)
        return self.compute_cache

    def on_request_failed(self, request: OffloadRequest, exc: BaseException) -> None:
        """An in-flight request died (fault injection, interruption).

        Platform-specific cleanup hook; Rattrap uses it to release the
        code-upload reservation so waiters are not stranded.
        """

    def warehouse_or_none(self):
        """Platforms with a code cache return their App Warehouse."""
        return None

    def code_needed(self, request: OffloadRequest, runtime: RuntimeEnvironment) -> bool:
        """Must the client upload the app code for this request?"""
        raise NotImplementedError

    def on_code_received(
        self, request: OffloadRequest, runtime: RuntimeEnvironment
    ) -> Generator:
        """Persist freshly uploaded code (platform-specific storage)."""
        code_bytes = int(request.profile.code_size_kb * KB)
        yield from self.server.disk.write(code_bytes, virt_overhead=runtime.io_overhead)

    def await_code_upload(self, request: OffloadRequest) -> Generator:
        """Wait out an in-flight upload of the app's code (code-cache
        platforms; a no-op here)."""
        return
        yield  # pragma: no cover - empty generator

    def fetch_code(
        self, request: OffloadRequest, runtime: RuntimeEnvironment
    ) -> Generator:
        """Read the app code into the runtime before a cold load."""
        code_bytes = int(request.profile.code_size_kb * KB)
        yield from self.server.disk.read(code_bytes, virt_overhead=runtime.io_overhead)

    def stage_payload(
        self, request: OffloadRequest, runtime: RuntimeEnvironment
    ) -> None:
        """Persist the request's file/parameter payload for execution.

        The write-back is asynchronous (received data is already in the
        page cache; flushing does not stall the request), so staging
        never extends the transfer phase — it only loads the device.
        """
        payload = int(
            (request.profile.file_size_kb + request.profile.param_size_kb) * KB
        )
        if payload:
            dev = runtime.offload_io_device()
            proc = self.env.process(
                dev.write(payload, virt_overhead=runtime.offload_io_overhead())
            )
            proc.defused = True

    def after_execution(
        self, request: OffloadRequest, runtime: RuntimeEnvironment
    ) -> None:
        """Post-completion cleanup hook (Rattrap burns offload data)."""

    def on_app_loaded(self, request: OffloadRequest, runtime: RuntimeEnvironment) -> None:
        """Code became warm in ``runtime`` (warehouse CID registration)."""

    def record_execution_effects(
        self, request: OffloadRequest, runtime: RuntimeEnvironment
    ) -> None:
        """Observability hook after the compute finishes (Binder traffic
        counters, per-container statistics, ...)."""

    def admit(self, request: OffloadRequest) -> AccessDecision:
        """Admission control (Rattrap's access controller overrides)."""
        return AccessDecision(True)

    def admission_delay_s(self, request: OffloadRequest) -> float:
        """Extra preparation time spent analyzing a first-seen app."""
        return 0.0

    # ------------------------------------------------------------- lifecycle
    def submit(self, request: OffloadRequest, link: Link) -> "Process":
        """Serve one request; the returned process yields a RequestResult."""
        return self.env.process(self._serve(request, link))

    def _serve(self, request: OffloadRequest, link: Link) -> Generator:
        env = self.env
        if self.offline:
            raise NodeDown(self.name, "node offline")
        if self.predictor is not None:
            self.predictor.observe_arrival(request)
        timeline = PhaseTimeline()
        started = env.now

        # -- phase 1: network connection --------------------------------------
        t0 = env.now
        last = self._last_contact.get(request.device_id)
        if (
            self.keepalive_s <= 0
            or last is None
            or env.now - last > self.keepalive_s
        ):
            with trace_span(env, "connect", who=link.name, trace=request.trace_id):
                yield from link.connect(env)
        timeline.add(Phase.CONNECTION, env.now - t0)

        # -- admission (access controller) -------------------------------------
        analysis_s = self.admission_delay_s(request)
        decision = self.admit(request)
        if not decision.allowed:
            tenancy = env.tenancy
            if tenancy is not None:
                tenancy.account_blocked(request.app_id)
            result = RequestResult(
                request=request,
                timeline=timeline,
                started_at=started,
                finished_at=env.now,
                blocked=True,
            )
            self.results.append(result)
            return result

        # -- phase 2: runtime preparation ----------------------------------------
        t0 = env.now
        with trace_span(env, "prepare", who=self.name, trace=request.trace_id):
            if analysis_s:
                yield env.timeout(analysis_s)
            record: ContainerRecord = yield from self.dispatcher.acquire(request)
        runtime = record.runtime
        timeline.add(Phase.PREPARATION, env.now - t0)

        # Guest network-stack traversal (NAT for VMs, veth for
        # containers) — part of the network-connection phase.
        if runtime.net_overhead_s:
            t0 = env.now
            with trace_span(env, "connect", who="guest-net", trace=request.trace_id):
                yield env.timeout(runtime.net_overhead_s)
            timeline.add(Phase.CONNECTION, env.now - t0)

        self.scheduler.request_started(record.cid)
        entry = (request, env.active_process)
        self._inflight.setdefault(record.cid, []).append(entry)
        result_hit = False
        try:
            # -- phase 3a: upload ---------------------------------------------------
            include_code = self.code_needed(request, runtime)
            msgs = upload_messages(request.profile, include_code)
            bytes_up = sum(m.size_bytes for m in msgs)
            t0 = env.now
            with trace_span(env, "upload", who=link.name, trace=request.trace_id):
                yield from send_messages(
                    env, link, msgs, "up", self.transfer_log, tenant=request.app_id
                )
                if include_code:
                    with trace_span(env, "stage", who=self.name, trace=request.trace_id):
                        yield from self.on_code_received(request, runtime)
                self.stage_payload(request, runtime)
            timeline.add(Phase.TRANSFER, env.now - t0)

            # -- phase 4: computation execution ----------------------------------------
            t0 = env.now
            cache_hit = not include_code
            # Computation reuse: a resident result for this exact
            # (app, code version, payload digest) skips execution.
            # Requests with declared workflow operations always execute
            # — the access filter inside _execute must still run.
            cache = self.compute_cache
            cached = None
            if cache is not None and not request.operations:
                cached = cache.lookup(request)
            if cached is not None:
                result_hit = True
                with trace_span(
                    env, "cache_hit", who=record.cid, trace=request.trace_id
                ):
                    if cache.cfg.hit_s:
                        yield env.timeout(cache.cfg.hit_s)
                    # A hit still binds the session: attaching to the
                    # container loads the app environment, so the
                    # runtime stays the app's affinity target for later
                    # requests (otherwise every hit-only session cold-
                    # boots anew).  Registering needs the code, which
                    # may still be on its way up with another request.
                    if not runtime.has_app(request.app_id):
                        yield from self.await_code_upload(request)
                        runtime.mark_loaded(request.app_id)
                        self.on_app_loaded(request, runtime)
            else:
                with trace_span(env, "execute", who=record.cid, trace=request.trace_id):
                    yield from self._execute(request, runtime)
                if cache is not None and not request.operations:
                    cache.offer(request, execute_s=env.now - t0, now=env.now)
            timeline.add(Phase.EXECUTION, env.now - t0)

            # -- phase 3b: result download ------------------------------------------------
            result_msg = result_message(request.profile)
            t0 = env.now
            with trace_span(env, "collect", who=link.name, trace=request.trace_id):
                yield from send_messages(
                    env,
                    link,
                    (result_msg,),
                    "down",
                    self.transfer_log,
                    tenant=request.app_id,
                )
            timeline.add(Phase.TRANSFER, env.now - t0)

            self.after_execution(request, runtime)
        except BaseException as exc:
            metrics = metrics_of(env)
            if metrics is not None:
                metrics.counter("platform.request_failures").inc()
            self.on_request_failed(request, exc)
            raise
        finally:
            self.scheduler.request_finished(record.cid)
            entries = self._inflight.get(record.cid)
            if entries is not None:
                try:
                    entries.remove(entry)
                except ValueError:  # pragma: no cover - double cleanup
                    pass
                if not entries:
                    del self._inflight[record.cid]

        runtime.requests_served += 1
        self._last_contact[request.device_id] = env.now
        metrics = metrics_of(env)
        if metrics is not None:
            metrics.counter("platform.requests").inc()
            if cache_hit:
                metrics.counter("platform.code_cache_hits").inc()
            if result_hit:
                metrics.counter("platform.result_cache_hits").inc()
            metrics.histogram("platform.response_s").observe(env.now - started)
        if self.predictor is not None and self.predictor.cfg.tail_aware:
            self.scheduler.note_response(record.cid, env.now - started, metrics)
        result = RequestResult(
            request=request,
            timeline=timeline,
            started_at=started,
            finished_at=env.now,
            executed_on=record.cid,
            code_cache_hit=cache_hit,
            result_cache_hit=result_hit,
            bytes_up=bytes_up,
            bytes_down=result_msg.size_bytes,
        )
        self.results.append(result)
        return result

    def filter_workflow(
        self, request: OffloadRequest, runtime: RuntimeEnvironment
    ) -> Generator:
        """Filter the request's declared workflow operations.

        The base platform has no access controller; Rattrap overrides
        this to run every operation through its
        :class:`~repro.platform.access.RequestAccessController`.
        Returns truthy when the filter blocked the app mid-workflow —
        the caller aborts the rest of the execution instead of burning
        more shared CPU on a blocked tenant.
        """
        return False
        yield  # pragma: no cover - empty generator

    def _execute(self, request: OffloadRequest, runtime: RuntimeEnvironment) -> Generator:
        """Computation Execution: cold code load, CPU work, offload I/O."""
        profile = request.profile
        tenancy = self.env.tenancy
        if request.operations:
            aborted = yield from self.filter_workflow(request, runtime)
            if aborted:
                return
        if not runtime.has_app(request.app_id):
            yield from self.fetch_code(request, runtime)
            if profile.code_load_s:
                yield self.server.cpu.execute(
                    profile.code_load_s,
                    speed_factor=runtime.cpu_speed_factor,
                    tag=f"load:{request.app_id}",
                )
                if tenancy is not None:
                    tenancy.account_cpu(request.app_id, profile.code_load_s)
            runtime.mark_loaded(request.app_id)
            self.on_app_loaded(request, runtime)
        cpu_work = profile.cloud_cpu_s * request.work_scale + profile.framework_overhead_s
        if cpu_work:
            yield self.server.cpu.execute(
                cpu_work,
                speed_factor=runtime.cpu_speed_factor,
                tag=request.app_id,
                weight=self.priority_weights.get(request.app_id, 1.0),
            )
            if tenancy is not None:
                tenancy.account_cpu(request.app_id, cpu_work)
        if profile.exec_io_ops:
            dev = runtime.offload_io_device()
            yield from dev.batch(
                profile.exec_io_ops,
                profile.exec_io_bytes,
                op="read",
                virt_overhead=runtime.offload_io_overhead(),
            )
        self.record_execution_effects(request, runtime)

    # ------------------------------------------------------- client estimates
    def expected_preparation_s(self, request: OffloadRequest) -> float:
        """Runtime-preparation estimate the platform advertises to
        clients (drives the decision engine's break-even analysis)."""
        key = self.dispatcher.allocation_key(request)
        record = self.dispatcher._record_for_key(key)
        if record is not None and record.runtime.is_ready:
            return self.dispatcher.warm_dispatch_s
        if self._cold_boot_s is None:
            # Every runtime a platform makes boots the same sequence,
            # so one probe answers for all later cold estimates.
            probe = self.make_runtime("probe", request)
            self._cold_boot_s = probe.boot_sequence.idle_duration_s
        return self._cold_boot_s

    def code_cached(self, request: OffloadRequest) -> bool:
        """Would this request skip the code upload?"""
        wh = self.warehouse_or_none()
        if wh is not None:
            return wh.has_code(request.app_id)
        key = self.dispatcher.allocation_key(request)
        record = self.dispatcher._record_for_key(key)
        return record is not None and record.runtime.has_app(request.app_id)

    def expected_queueing_s(self, request: OffloadRequest) -> float:
        """Predicted extra execution time from CPU contention.

        When the in-flight request count (scheduler gauge) pushes past
        the server's core count, the GPS CPU model stretches everyone's
        compute proportionally; this deterministic estimate advertises
        that stretch to decision engines.  Reads live scheduler state
        only — no RNG, no mutation.
        """
        active = self.scheduler.active_requests
        cores = self.server.spec.cores
        stretch = max(0.0, (active + 1) / cores - 1.0)
        if stretch <= 0.0:
            return 0.0
        work_s = (
            request.profile.cloud_cpu_s * request.work_scale
            + request.profile.framework_overhead_s
        )
        return stretch * work_s

    def expected_cache_hit_p(self, request: OffloadRequest) -> float:
        """Probability the compute cache serves this request's result.

        1.0 when the exact key is resident right now; otherwise the
        app's repeat-probability EWMA; 0.0 without a cache or for
        unique payloads.  Decision engines discount the expected
        execute time by this factor.
        """
        cache = self.compute_cache
        if cache is None or request.operations:
            return 0.0
        key = cache.key_for(request)
        if key is None:
            return 0.0
        if key in cache:
            return 1.0
        return cache.repeat_probability(request.app_id)

    # ---------------------------------------------------------- fault handling
    def crash_runtime(self, cid: str, reason: str = "fault") -> bool:
        """Kill one runtime abruptly (fault injection / hard failure).

        Releases the runtime's memory and disk, marks it CRASHED, and
        interrupts every process that depends on it: the boot process
        (so the dispatcher's waiters re-acquire) or the in-flight
        requests executing inside it (so clients can retry).  Returns
        True when a live runtime was actually killed.
        """
        if not self.db.exists(cid):
            return False
        record = self.db.get(cid)
        state = record.runtime.state
        if state is RuntimeState.BOOTING:
            boot = self.dispatcher.boot_process_for(record)
            record.runtime.crash(reason)
            if boot is not None and boot.is_alive and boot.target is not None:
                boot.interrupt(RuntimeCrashed(cid, reason))
            return True
        if state is RuntimeState.READY:
            record.runtime.crash(reason)
            exc = RuntimeCrashed(cid, reason)
            for _request, proc in list(self._inflight.get(cid, ())):
                if proc.is_alive and proc.target is not None:
                    proc.interrupt(exc)
            return True
        return False

    def interrupt_inflight(
        self,
        predicate: Callable[[OffloadRequest], bool],
        exc: BaseException,
    ) -> int:
        """Interrupt every in-flight request matching ``predicate``.

        Used for link blackouts: the affected device's requests die
        mid-transfer with the given exception as interrupt cause.
        Returns the number of processes interrupted.
        """
        count = 0
        for entries in list(self._inflight.values()):
            for request, proc in list(entries):
                if proc.is_alive and proc.target is not None and predicate(request):
                    proc.interrupt(exc)
                    count += 1
        return count

    def fail_node(self, reason: str = "outage") -> None:
        """Take the whole server down: every live runtime dies with it.

        New submissions and boots are refused until
        :meth:`restore_node`; in-flight requests are severed with
        :class:`NodeDown` so clients fail over elsewhere.
        """
        if self.offline:
            return
        self.offline = True
        for record in self.db.all_records():
            state = record.runtime.state
            if state is RuntimeState.BOOTING:
                boot = self.dispatcher.boot_process_for(record)
                record.runtime.crash(reason)
                if boot is not None and boot.is_alive and boot.target is not None:
                    boot.interrupt(RuntimeCrashed(record.cid, reason))
            elif state is RuntimeState.READY:
                record.runtime.crash(reason)
        exc = NodeDown(self.name, reason)
        for entries in list(self._inflight.values()):
            for _request, proc in list(entries):
                if proc.is_alive and proc.target is not None:
                    proc.interrupt(exc)

    def restore_node(self) -> None:
        """End an outage window; the node accepts work again (cold)."""
        self.offline = False

    # -------------------------------------------------------- idle reclamation
    def reap_idle_runtimes(self, idle_timeout_s: float) -> List[str]:
        """Stop every READY runtime idle for longer than the timeout.

        Long-running deployments reclaim idle environments to free
        memory for other tenants — which is why cold starts recur in
        the trace-driven evaluation (Fig. 11): a new app session after
        a long gap finds its previous runtime gone.
        """
        if idle_timeout_s <= 0:
            raise ValueError("idle_timeout_s must be positive")
        now = self.env.now
        reaped: List[str] = []
        # The predictor's warm pool is exempt: reaping a spare it wants
        # hot would just trigger a re-pre-boot one tick later.
        protected = (
            self.predictor.protected_cids() if self.predictor is not None else None
        )
        # Cheap comparisons (activity, idle age) run before the runtime
        # state check — the reaper scans every record on each tick.
        for record in self.db._records.values():
            if (
                record.active_requests == 0
                and now - max(record.last_used, record.created_at) > idle_timeout_s
                and record.runtime.is_ready
                and (protected is None or record.cid not in protected)
            ):
                record.runtime.stop()
                reaped.append(record.cid)
        return reaped

    def start_idle_reaper(
        self, idle_timeout_s: float = 120.0, check_interval_s: float = 10.0
    ):
        """Spawn a background process that reaps idle runtimes forever."""
        if check_interval_s <= 0:
            raise ValueError("check_interval_s must be positive")

        def reaper(env):
            while True:
                yield env.timeout(check_interval_s)
                self.reap_idle_runtimes(idle_timeout_s)

        return self.env.process(reaper(self.env))

    # ------------------------------------------------------------------ stats
    def completed(self) -> List[RequestResult]:
        """Results of every request that was actually served."""
        return [r for r in self.results if not r.blocked]

    def runtime_count(self) -> int:
        """Number of runtime instances ever created."""
        return len(self.db)
