"""Smoke tests for the benchmark itself, at a few percent of full size.

Run from the repository root with ``python3 -m pytest -q perfbench``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
for _path in (str(ROOT), str(ROOT / "src")):
    if _path not in sys.path:
        sys.path.insert(0, _path)

from perfbench import run, tracing, workloads  # noqa: E402
from repro.platform import RattrapPlatform  # noqa: E402

SMOKE = {"fleet-scan": 0.02, "sessions-mixed": 0.05, "zones-sharded": 0.05}


def declared(section):
    return {m["name"]: m["unit"] for m in run.catalogue()[section]}


def bench(capsys, workload, trace):
    code = run.main([
        "--workload", workload, "--seed", "3", "--seconds", "0",
        "--trace", str(trace), "--scale", str(SMOKE[workload]),
    ])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    return code, result


@pytest.mark.parametrize("workload", sorted(SMOKE))
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_reported_with_its_unit(capsys, workload, trace):
    code, result = bench(capsys, workload, trace)
    assert code == 0 and result["correct"] is True
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    units = declared("per_layer" if trace else "end_to_end")
    assert {k: v["unit"] for k, v in result["metrics"].items()} == units
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())


@pytest.mark.parametrize("workload", sorted(SMOKE))
def test_host_marks_split_the_run_the_same_way_on_every_repeat(workload):
    its = [run.Iteration(workloads, workload, 3, SMOKE[workload]) for _ in range(2)]
    assert len(its[0].segments) > 1
    assert its[0].signature == its[1].signature
    for it in its:
        assert sum(it.segments) == pytest.approx(it.wall_s)
    assert run.fastest_run_s(its) <= min(it.wall_s for it in its) + 1e-9


class InjectedFault(RuntimeError):
    pass


@pytest.fixture
def failing_requests(monkeypatch):
    """Every request whose id is 3 mod 4 dies after executing."""
    original = RattrapPlatform.after_execution

    def after_execution(self, request, runtime):
        if request.request_id % 4 == 3:
            raise InjectedFault(request.request_id)
        return original(self, request, runtime)

    monkeypatch.setattr(RattrapPlatform, "after_execution", after_execution)


@pytest.mark.parametrize("workload", sorted(SMOKE))
def test_injected_request_exception_is_counted_not_raised(failing_requests, workload):
    world = workloads.WORKLOADS[workload](3, SMOKE[workload])
    world.run()
    outcome = world.outcome()
    assert outcome.failed > 0
    assert outcome.failures == {"InjectedFault": outcome.failed}
    assert all(outcome.checks.values()), outcome.checks
    assert outcome.percentile(1.0) == float("inf")


@pytest.mark.parametrize("workload", sorted(SMOKE))
def test_layer_self_times_sum_to_at_most_the_traced_wall_time(workload):
    world = workloads.WORKLOADS[workload](3, SMOKE[workload])
    tracer = tracing.LayerTracer().install()
    try:
        t0 = run.time.perf_counter()
        world.run()
        wall = run.time.perf_counter() - t0
    finally:
        tracer.uninstall()
    spans = tracer.export() + [s for trace in world.worker_traces() for s in trace]
    selfs = tracing.self_seconds(spans)
    # shard workers run side by side: up to the wall time once each
    assert 0 < sum(selfs.values()) <= wall * world.workers
    assert selfs["sim"] > 0 and selfs["platform"] > 0 and selfs["network"] > 0
    # the benchmark's own drivers are timed apart from every layer
    assert selfs[tracing.BENCH] > 0
    # every serve span carries the id of the request it serves
    serve = [s for s in spans if s[3] == "CloudPlatform._serve"]
    assert serve and all(s[4] >= 0 for s in serve)


def test_layer_problems_name_missing_silent_and_busy_idle_metrics():
    declared = {"a.self_s": "s", "b.count": "count", "c.rate": "frac", "d.count": "count"}
    computed = {"a.self_s": 0.5, "b.count": 0, "c.rate": 0.0, "d.count": 3, "e": 1}
    problems = run.layer_problems(computed, declared, idle={"d.count"}, may_read_zero={"c.rate"})
    assert problems == {
        "not computed where the layer works": [],
        "read 0 where the layer works": ["b.count"],
        "not 0 where the layer is idle": ["d.count"],
        "computed but not declared": ["e"],
    }
    problems = run.layer_problems({"a.self_s": 0.5}, declared, idle=set(), may_read_zero=set())
    assert problems["not computed where the layer works"] == ["b.count", "c.rate", "d.count"]


def test_uninstall_restores_every_entry_point():
    import repro.network.link as link

    before = vars(link.Link)["transmit"]
    tracer = tracing.LayerTracer().install()
    assert vars(link.Link)["transmit"] is not before
    tracer.uninstall()
    assert vars(link.Link)["transmit"] is before
    assert tracing.active() is None


def test_fails_without_a_result_when_the_program_is_missing(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fleet-scan",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
