"""Host-time spans around the layer entry points, installed from outside.

The traced run wraps the entry points of every ``repro`` layer (the
table :data:`TARGETS`) without editing the package: each wrapper is
installed on the class or module that defines the function and
removed again by :meth:`LayerTracer.uninstall`.

A span records its id, its causal parent (the span active when the
function was *called*), its layer and function, the request id it
serves (taken from an argument, else inherited from the parent), its
total host seconds and its self seconds.  Self time is the span's time
minus the time of the spans that ran nested inside it, so the self
times of all spans add up to the time spent inside outermost spans.

Wrappers are generator-aware.  Calling a wrapped generator function
returns a generator that times every resume of the original: a
simulation process is charged for the host time of each step it
runs, not for the simulated time it waits.

Kernel callbacks that enter a layer (the fluid channel's and the CPU's
wake-ups) are wrapped too: they are where the event loop hands control
to those layers.

The benchmark's own drivers (feeders, session loops, roamers and the
outcome ledger) are wrapped as the :data:`BENCH` bucket, so their time
is charged to no layer.  What remains in ``sim`` self time is the
kernel's event loop plus any ``repro`` code it enters other than
through a listed entry point.
"""

from __future__ import annotations

import importlib
import inspect
import time
from collections import Counter
from typing import Any, Dict, List, Optional, Tuple

__all__ = ["BENCH", "LAYERS", "TARGETS", "LayerTracer", "active"]

LAYERS = ("sim", "network", "platform", "hostos", "runtime", "android",
          "unionfs", "offload", "obs")
#: the benchmark's own driver code: timed, but charged to no layer
BENCH = "bench"

#: (layer, module, class or None for module functions, function names)
TARGETS: Tuple[Tuple[str, str, Optional[str], Tuple[str, ...]], ...] = (
    ("sim", "repro.sim.core", "Environment", ("run",)),
    ("sim", "repro.sim.shard", "ShardRunner", ("inject", "advance_to", "drain_outbox")),
    ("network", "repro.network.link", "Link", ("connect", "transmit")),
    ("network", "repro.network.link", "FluidChannel", ("add", "cancel", "_wake")),
    ("network", "repro.network.backhaul", "ShardLink", ("send",)),
    ("platform", "repro.platform.cluster", "ClusterPlatform", ("submit", "route")),
    # The serve generator is the body of CloudPlatform.submit's process.
    ("platform", "repro.platform.base", "CloudPlatform",
     ("submit", "_serve", "reap_idle_runtimes", "expected_preparation_s",
      "code_cached", "expected_queueing_s", "expected_cache_hit_p")),
    ("platform", "repro.platform.dispatcher", "Dispatcher", ("acquire",)),
    ("platform", "repro.platform.warehouse", "AppWarehouse",
     ("lookup", "store", "register_execution")),
    ("platform", "repro.platform.shared_layer", "OffloadingIOLayer", ("stage", "burn")),
    ("platform", "repro.platform.compute_cache", "ComputeResultCache", ("lookup", "offer")),
    ("platform", "repro.platform.population", "PopulationSource", ("_run",)),
    ("platform", "repro.platform.scheduler", "WarmPoolPredictor", ("run",)),
    ("runtime", "repro.runtime.base", "RuntimeEnvironment", ("boot", "stop")),
    ("runtime", "repro.runtime.container", "CloudAndroidContainer",
     ("__init__", "binder_transaction")),
    ("android", "repro.android.boot", "BootSequence", ("run",)),
    # Imported by name into the container module, so wrapped there.
    ("android", "repro.runtime.container", None, ("container_boot_sequence",)),
    ("unionfs", "repro.unionfs.union", "UnionMount", ("__init__",)),
    ("unionfs", "repro.unionfs.layer", "Layer", ("add_file", "link", "unlink")),
    ("hostos", "repro.hostos.cpu", "MultiCoreCPU", ("execute", "_on_wake")),
    ("hostos", "repro.hostos.storage", "StorageDevice",
     ("read", "write", "batch", "allocate", "deallocate")),
    ("hostos", "repro.hostos.memory", "MemoryAccount", ("reserve", "release")),
    ("hostos", "repro.hostos.devns", "DeviceNamespaceManager", ("create",)),
    ("hostos", "repro.hostos.devns", "DeviceNamespace", ("open", "teardown")),
    ("offload", "repro.offload.partition", "OffloadDecider", ("decide", "observe")),
    ("offload", "repro.offload.device", "MobileDevice",
     ("execute_locally", "account_offload")),
    ("obs", "repro.obs.tracer", "Tracer", ("begin", "finish")),
    ("obs", "repro.obs.metrics", "MetricsRegistry", ("counter", "gauge", "histogram")),
    ("obs", "repro.obs.metrics", "Counter", ("inc",)),
    ("obs", "repro.obs.metrics", "Gauge", ("set",)),
    ("obs", "repro.obs.metrics", "Histogram", ("observe",)),
    (BENCH, "perfbench.workloads", "Ledger", ("record", "fail", "failed_as", "settle")),
    (BENCH, "perfbench.workloads", "FleetScan", ("_feeder",)),
    (BENCH, "perfbench.workloads", "SessionsMixed", ("_drive",)),
    (BENCH, "perfbench.workloads", "_Zone",
     ("_feeder", "_roam_out", "on_offload", "_serve_visitor", "on_result",
      "_finish_roamer")),
)

#: one span: (id, parent id or 0, layer, function, request id or -1,
#: total host seconds, self host seconds)
Span = Tuple[int, int, str, str, int, float, float]

_ACTIVE: Optional["LayerTracer"] = None


def active() -> Optional["LayerTracer"]:
    """The installed tracer in this process, if any.

    Class patches are process-wide, so the tracer they report to is
    too; a forked shard worker inherits both.
    """
    return _ACTIVE


def _request_id(args) -> int:
    """The request id an argument carries (request or result), else -1."""
    for arg in args[1:3]:
        rid = getattr(arg, "request_id", None)
        if rid is None:
            request = getattr(arg, "request", None)
            rid = getattr(request, "request_id", None)
        if isinstance(rid, int):
            return rid
    return -1


class LayerTracer:
    """Span recorder plus the patch set that feeds it."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        #: open frames: [child seconds, span id, request id]
        self._stack: List[list] = []
        #: generator spans still running: span id -> mutable record
        self._open_gens: Dict[int, list] = {}
        self._next_id = 0
        self._patches: List[Tuple[Any, str, Any]] = []

    # -- lifecycle -----------------------------------------------------------
    def install(self) -> "LayerTracer":
        global _ACTIVE
        if _ACTIVE is not None:
            raise RuntimeError("a layer tracer is already installed")
        for layer, module_name, owner_name, names in TARGETS:
            module = importlib.import_module(module_name)
            owner = getattr(module, owner_name) if owner_name else module
            for name in names:
                original = vars(owner)[name]  # defined there, not inherited
                label = f"{owner_name}.{name}" if owner_name else name
                setattr(owner, name, self._wrap(original, layer, label))
                self._patches.append((owner, name, original))
        _ACTIVE = self
        return self

    def uninstall(self) -> None:
        global _ACTIVE
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches.clear()
        if _ACTIVE is self:
            _ACTIVE = None

    def reset(self) -> None:
        """Forget the host time recorded so far (open spans restart at 0)."""
        self.spans = []
        self._stack = []
        for rec in self._open_gens.values():
            rec[5] = rec[6] = 0.0

    # -- wrapping ------------------------------------------------------------
    def _wrap(self, fn, layer: str, label: str):
        if inspect.isgeneratorfunction(fn):
            return self._wrap_generator(fn, layer, label)
        return self._wrap_call(fn, layer, label)

    def _open(self, args) -> Tuple[int, int, int]:
        """New span id, its causal parent's id, and its request id."""
        self._next_id += 1
        stack = self._stack
        parent = stack[-1] if stack else None
        rid = _request_id(args)
        if rid < 0 and parent is not None:
            rid = parent[2]
        return self._next_id, parent[1] if parent is not None else 0, rid

    def _wrap_call(self, fn, layer: str, label: str):
        tracer = self
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            sid, parent, rid = tracer._open(args)
            stack = tracer._stack
            frame = [0.0, sid, rid]
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                if stack:
                    stack[-1][0] += dt
                tracer.spans.append((sid, parent, layer, label, rid, dt, dt - frame[0]))

        wrapper.__wrapped__ = fn
        return wrapper

    def _wrap_generator(self, fn, layer: str, label: str):
        tracer = self

        def wrapper(*args, **kwargs):
            sid, parent, rid = tracer._open(args)
            return tracer._timed(fn(*args, **kwargs), sid, parent, layer, label, rid)

        wrapper.__wrapped__ = fn
        return wrapper

    def _timed(self, gen, sid: int, parent: int, layer: str, label: str, rid: int):
        """Drive ``gen`` step by step, timing each resume as one span."""
        clock = time.perf_counter
        rec = [sid, parent, layer, label, rid, 0.0, 0.0]
        self._open_gens[sid] = rec
        value: Any = None
        error: Optional[BaseException] = None
        try:
            while True:
                stack = self._stack
                frame = [0.0, sid, rid]
                stack.append(frame)
                t0 = clock()
                try:
                    if error is None:
                        out = gen.send(value)
                    else:
                        out = gen.throw(error)
                except StopIteration as stop:
                    return stop.value
                finally:
                    dt = clock() - t0
                    stack.pop()
                    if stack:
                        stack[-1][0] += dt
                    rec[5] += dt
                    rec[6] += dt - frame[0]
                value, error = None, None
                try:
                    value = yield out
                except GeneratorExit:
                    gen.close()
                    raise
                except BaseException as exc:  # delivered into the original
                    error = exc
        finally:
            if self._open_gens.pop(sid, None) is not None:
                self.spans.append(tuple(rec))

    # -- results -------------------------------------------------------------
    def export(self) -> List[Span]:
        """Every span so far, including generators still running."""
        return self.spans + [tuple(rec) for rec in self._open_gens.values()]


def self_seconds(spans: List[Span]) -> Dict[str, float]:
    """Self host seconds per layer that has spans, :data:`BENCH` included."""
    out: Dict[str, float] = {}
    for span in spans:
        out[span[2]] = out.get(span[2], 0.0) + span[6]
    return out


def span_counts(spans: List[Span]) -> Counter:
    """Number of spans per ``Class.function`` label."""
    return Counter(span[3] for span in spans)
