#!/usr/bin/env python3
"""The repository benchmark: one command, every metric by name.

Run from the repository root::

    python3 perfbench/run.py --workload fleet-scan --seed 1 --seconds 40 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off;
``--trace 1`` is the separate traced run that reports the per-layer
metrics (plus the tracing overhead against untraced iterations in the
same run).  Metric names, units and bounds are declared once, in
``BENCHMARK.json`` at the repository root.

A run repeats the seeded workload until ``--seconds`` have passed
(at least :data:`MIN_ITERATIONS` times).  Simulated results must be
identical on every iteration; host timings are the fastest the run
saw (:func:`fastest_run_s`; ``NOTES.md`` says why not medians).  The
outputs are checked (see ``NOTES.md``); the last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``.  A fuller record — manifest, checks, failures by
type, per-iteration timings — goes to ``perfbench/out/``, and the
traced run writes its spans there too.

Exit status: 0 when every check passed, 1 when a check failed, 2 when
the program under test is missing.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"

#: a minimum needs several samples
MIN_ITERATIONS = 3


def catalogue() -> Dict[str, Any]:
    """Metric declarations from ``BENCHMARK.json``."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def manifest(args, sizes: Dict[str, Any], workers: int) -> Dict[str, Any]:
    """Where and on what this result was measured."""
    try:
        commit = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    h = hashlib.sha256()
    for path in sorted((SRC / "repro").rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode())
        h.update(path.read_bytes())
    return {
        "commit": commit,
        "src_sha256": h.hexdigest()[:16],
        "python": platform.python_version(),
        "machine": platform.platform(),
        "nproc": os.cpu_count(),
        "workers": workers,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "scale": args.scale,
        "sizes": sizes,
    }


def peak_rss_mb() -> float:
    """Peak resident memory of this process or any reaped worker."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    workers = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, workers) / 1024.0


class Iteration:
    """One workload run, timed on the host, after one or more set-ups.

    The run's wall time is split into :attr:`segments` at the
    workload's host-clock marks, which fall at the same points of the
    simulation on every repeat of a seed.

    The world is built ``setups_per_iteration`` times (set-up is short,
    so each build is one ``setup_s`` sample) and the last build is run;
    set-up work the run does itself (:attr:`build_s`) moves from its
    wall time to its set-up sample.  Garbage is collected before each
    build and before the run, so a collection during the timed run only
    ever walks this iteration's heap.  The world is dropped once its
    results are read.
    """

    def __init__(self, workloads, name: str, seed: int, scale: float, tracer=None):
        cls = workloads.WORKLOADS[name]
        self.setups: List[float] = []
        for _ in range(cls.setups_per_iteration):
            world = None
            gc.collect()
            t0 = time.perf_counter()
            world = cls(seed, scale)
            self.setups.append(time.perf_counter() - t0)
        gc.collect()
        t1 = time.perf_counter()
        if tracer is not None:
            tracer.install()
        try:
            world.run()
        finally:
            t2 = time.perf_counter()
            if tracer is not None:
                tracer.uninstall()
        marks = world.host_marks()
        self.segments = [b - a for a, b in zip([t1, *marks], [*marks, t2])]
        # Zone shards are built inside the run; that is set-up, not
        # simulation.  (They are built before the first mark.)
        self.build_s = world.build_s
        self.segments[0] -= self.build_s
        self.wall_s = t2 - t1 - self.build_s
        self.setups[-1] += self.build_s
        self.sizes = world.sizes
        self.workers = world.workers
        self.outcome = world.outcome()
        #: what every iteration of a seed must repeat exactly
        self.signature = (self.outcome.digest(), self.outcome.events, len(self.segments))
        self.layers = world.layers()
        self.traced = tracer is not None
        self.spans: List[tuple] = []
        if tracer is not None:
            self.spans = tracer.export()
            for worker_spans in world.worker_traces():
                self.spans.extend(worker_spans)


def run_iterations(workloads, args, traced: bool) -> List[Iteration]:
    """Untraced iterations, or alternating untraced/traced ones."""
    from perfbench import tracing

    done: List[Iteration] = []
    start = time.perf_counter()
    step = 2 if traced else 1  # traced runs add untraced/traced pairs
    while True:
        t0 = time.perf_counter()
        for k in range(step):
            tracer = tracing.LayerTracer() if traced and k == 1 else None
            done.append(Iteration(workloads, args.workload, args.seed, args.scale, tracer))
            # Only the newest iteration keeps its per-request results,
            # so the heap, and with it the peak RSS of this process and
            # of the shard workers it forks, does not grow with the
            # number of iterations.
            if len(done) > 1:
                done[-2].outcome = None
        took = time.perf_counter() - t0
        # Stop when another round would overrun the measuring time.
        if len(done) >= MIN_ITERATIONS and time.perf_counter() - start + took > args.seconds:
            return done


def fastest_run_s(its: List[Iteration]) -> float:
    """Host seconds of the run with each segment at its fastest repeat.

    The host's speed drifts in phases from seconds to minutes, longer
    than a segment and often longer than a whole repeat; the fastest
    time of each segment is the one that drift slowed least.
    """
    return sum(min(segment) for segment in zip(*(it.segments for it in its)))


def end_to_end(its: List[Iteration]) -> Dict[str, float]:
    outcome = its[-1].outcome
    wall = fastest_run_s(its)
    return {
        "setup_s": min(t for it in its for t in it.setups),
        "wall_s": wall,
        "req_per_s": outcome.answered / wall,
        "events_per_s": outcome.events / wall,
        "peak_rss_mb": peak_rss_mb(),
        "sim_p50_s": outcome.percentile(0.50),
        "sim_p99_s": outcome.percentile(0.99),
        "ok_frac": 1.0 - outcome.failed / outcome.attempted,
        "energy_j_per_req": outcome.energy_j / max(outcome.answered, 1),
    }


def per_layer(untraced: List[Iteration], traced: List[Iteration]) -> Dict[str, float]:
    """The per-layer metrics this run computed.

    A layer with no spans has no ``self_s``, and a rate whose base is 0
    is left out, so a metric missing here is one nothing measured.
    """
    from perfbench import tracing

    last = traced[-1]
    selfs = [tracing.self_seconds(it.spans) for it in traced]
    metrics: Dict[str, float] = {
        f"{layer}.self_s": statistics.median(s.get(layer, 0.0) for s in selfs)
        for layer in tracing.LAYERS if layer in selfs[-1]
    }
    counts = tracing.span_counts(last.spans)
    layers = dict(last.layers)
    dedup_hits = layers.pop("platform.dedup_hits")
    if counts["OffloadingIOLayer.stage"]:
        metrics["platform.dedup_hit_rate"] = dedup_hits / counts["OffloadingIOLayer.stage"]
    if counts["Link.transmit"]:
        metrics["network.transfers"] = counts["Link.transmit"]
    metrics["sim.events"] = last.outcome.events
    metrics["trace.overhead_frac"] = (
        fastest_run_s(traced) / fastest_run_s(untraced) - 1.0
    )
    metrics.update(layers)
    return metrics


def layer_problems(computed: Dict[str, float], declared, idle, may_read_zero) -> Dict[str, List[str]]:
    """Declared per-layer metrics the run got wrong, by kind of fault."""
    return {
        "not computed where the layer works": sorted(set(declared) - set(computed) - idle),
        "read 0 where the layer works": sorted(
            name for name, value in computed.items()
            if value == 0 and name not in idle and name not in may_read_zero
        ),
        "not 0 where the layer is idle": sorted(n for n in idle if computed.get(n, 0) != 0),
        "computed but not declared": sorted(set(computed) - set(declared)),
    }


def write_spans(path: Path, spans: List[tuple]) -> None:
    with path.open("w") as fh:
        fh.write("id\tparent\tlayer\tfunction\trequest\ttotal_s\tself_s\n")
        for span in spans:
            fh.write("\t".join(map(str, span)) + "\n")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="multiply every device/request count (smoke tests)")
    args = parser.parse_args(argv)

    if not (SRC / "repro").is_dir():
        print(f"error: program under test not found at {SRC / 'repro'}", file=sys.stderr)
        return 2
    for path in (str(ROOT), str(SRC)):
        if path not in sys.path:
            sys.path.insert(0, path)
    from perfbench import tracing, workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")
    declared = catalogue()
    section = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in declared[section]}

    its = run_iterations(workloads, args, traced=bool(args.trace))
    untraced = [it for it in its if not it.traced]
    traced = [it for it in its if it.traced]
    last = its[-1]
    outcome = last.outcome
    checks = dict(outcome.checks)
    checks["identical simulated results on every iteration"] = (
        len({it.signature for it in its}) == 1
    )
    problems: Dict[str, List[str]] = {}
    if args.trace:
        computed = per_layer(untraced, traced)
        problems = layer_problems(
            computed, units, workloads.IDLE_METRICS[args.workload], workloads.MAY_READ_ZERO
        )
        for kind, names in problems.items():
            checks[f"no per-layer metric {kind}"] = not names
        # Metrics of a layer idle by design are reported as 0.
        values = {name: computed.get(name, 0) for name in units}
        workers = max(1, last.workers)
        # Shard workers run side by side, so their self times may add
        # up to the wall time once per worker.
        checks["per-layer self times sum to no more than the traced wall time"] = all(
            sum(tracing.self_seconds(it.spans).values())
            <= (it.wall_s + it.build_s) * workers
            for it in traced
        )
    else:
        values = end_to_end(its)
        checks["every declared metric reported"] = set(values) == set(units)

    info = manifest(args, last.sizes, last.workers)
    correct = all(checks.values())
    metrics = {
        name: {"value": values[name], "unit": units[name]}
        for name in units if name in values
    }
    record = {
        "manifest": info,
        "attempted": outcome.attempted,
        "completed": outcome.completed,
        "local": outcome.local,
        "shed": outcome.shed,
        "failed": outcome.failed,
        "fail_frac": outcome.failed / outcome.attempted,
        "failures_by_type": outcome.failures,
        "response_samples": len(outcome.rows),
        "sim.events": outcome.events,
        "outcome_digest": outcome.digest(),
        "checks": checks,
        "iterations": [
            {"traced": it.traced, "setups_s": it.setups, "wall_s": it.wall_s,
             "segments": len(it.segments)}
            for it in its
        ],
        "extra": outcome.extra,
        # medians of the host timings, for comparison with the fastest
        "median_wall_s": statistics.median(it.wall_s for it in its),
        "median_setup_s": statistics.median(t for it in its for t in it.setups),
        "metrics": metrics,
    }
    if args.trace:
        record["per_layer_problems"] = problems
        # the benchmark's own driver time, charged to no layer
        record["bench_self_s"] = statistics.median(
            tracing.self_seconds(it.spans).get(tracing.BENCH, 0.0) for it in traced
        )
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    if traced:
        write_spans(OUT / f"{stem}-spans.tsv", traced[-1].spans)

    print("manifest " + json.dumps(info, sort_keys=True))
    print(
        f"requests: attempted {outcome.attempted}, completed {outcome.completed}, "
        f"local {outcome.local}, shed {outcome.shed}, failed {outcome.failed} "
        f"{outcome.failures or ''}(fail_frac {outcome.failed / outcome.attempted:.6g}); "
        f"latency samples {len(outcome.rows)}"
    )
    print(f"sim.events {outcome.events}  outcome digest {outcome.digest()}")
    for name, ok in checks.items():
        print(f"check {'ok  ' if ok else 'FAIL'} {name}")
    for kind, names in problems.items():
        if names:
            print(f"  {kind}: {', '.join(names)}")
    for name, metric in metrics.items():
        print(f"{name} {metric['value']:.6g} {metric['unit']}")
    print(json.dumps({
        "correct": correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
