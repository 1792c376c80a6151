"""Tests for the multi-server cluster and the hybrid (decision-driven)
client extensions."""

import pytest

from repro.network import make_link
from repro.offload import (
    DecisionEngine,
    MobileDevice,
    replay_partitioned,
    run_inflow_experiment,
)
from repro.platform import ClusterPlatform, RattrapPlatform, VMCloudPlatform
from repro.sim import Environment
from repro.workloads import CHESS_GAME, LINPACK, VIRUS_SCAN, generate_inflow


# ------------------------------------------------------------------ cluster
def test_cluster_validation():
    env = Environment()
    with pytest.raises(ValueError):
        ClusterPlatform(env, servers=0)
    with pytest.raises(ValueError):
        ClusterPlatform(env, servers=2, policy="chaos")


def test_cluster_sticky_routing_is_stable():
    env = Environment()
    cluster = ClusterPlatform(env, servers=3, policy="device-sticky")
    plans = generate_inflow(LINPACK, devices=6, requests_per_device=4, seed=2)
    results = run_inflow_experiment(env, cluster, plans, make_link("lan-wifi"))
    assert len(results) == 24
    # Every device's requests land on one node.
    per_device = {}
    for r in results:
        per_device.setdefault(r.request.device_id, set()).add(r.executed_on)
    assert all(len(cids) == 1 for cids in per_device.values())
    # More than one node got traffic.
    assert sum(1 for n in cluster.node_loads() if n > 0) >= 2


def test_cluster_least_loaded_spreads():
    env = Environment()
    cluster = ClusterPlatform(env, servers=3, policy="least-loaded")
    plans = generate_inflow(LINPACK, devices=6, requests_per_device=4, seed=2)
    results = run_inflow_experiment(env, cluster, plans, make_link("lan-wifi"))
    assert len(results) == 24
    loads = cluster.node_loads()
    assert all(load > 0 for load in loads)


def test_cluster_memory_and_runtime_totals():
    env = Environment()
    cluster = ClusterPlatform(env, servers=2)
    plans = generate_inflow(LINPACK, devices=4, requests_per_device=2, seed=0)
    run_inflow_experiment(env, cluster, plans, make_link("lan-wifi"))
    assert cluster.runtime_count() == 4
    assert cluster.total_memory_mb() == 4 * 96.0


def test_cluster_custom_factory_vm_nodes():
    env = Environment()
    cluster = ClusterPlatform(env, servers=2, platform_factory=VMCloudPlatform)
    plans = generate_inflow(LINPACK, devices=2, requests_per_device=1, seed=0)
    results = run_inflow_experiment(env, cluster, plans, make_link("lan-wifi"))
    assert len(results) == 2
    assert cluster.total_memory_mb() == 2 * 512.0


def test_cluster_idle_reaper_runs_on_all_nodes():
    env = Environment()
    cluster = ClusterPlatform(env, servers=2)
    procs = cluster.start_idle_reaper(idle_timeout_s=50.0, check_interval_s=10.0)
    assert len(procs) == 2


# ------------------------------------------------------------------- hybrid
def _hybrid(profile, scenario, platform_name="rattrap", devices_n=3, per_device=4):
    env = Environment()
    platform = (
        RattrapPlatform(env) if platform_name == "rattrap" else VMCloudPlatform(env)
    )
    plans = generate_inflow(profile, devices=devices_n,
                            requests_per_device=per_device, seed=3)
    devices = {
        f"device-{i}": MobileDevice(f"device-{i}", make_link(scenario))
        for i in range(devices_n)
    }
    engine = DecisionEngine()
    proc = env.process(
        replay_partitioned(env, platform, plans, devices, decider=engine))
    results = env.run(until=proc)
    return platform, devices, results


def test_hybrid_offloads_when_profitable():
    platform, devices, results = _hybrid(LINPACK, "lan-wifi")
    assert all(not r.executed_locally for r in results)
    assert all(d.offloaded_requests > 0 for d in devices.values())


def test_hybrid_runs_locally_on_bad_network():
    # VirusScan on 3G: ~900 KB per request over 0.38 Mbps never pays.
    platform, devices, results = _hybrid(VIRUS_SCAN, "3g")
    assert all(r.executed_locally for r in results)
    assert len(platform.results) == 0  # nothing reached the cloud
    assert all(d.local_executions > 0 for d in devices.values())
    # Local runs are not offloading failures by definition.
    assert all(not r.offloading_failure for r in results)


def test_hybrid_avoids_vm_cold_start_failures():
    # ChessGame vs a cold VM cloud: the engine predicts the 28.72 s boot
    # kills the first request, so it keeps early requests local; once no
    # cold start looms it still refuses (cold forever, VM never boots).
    platform, devices, results = _hybrid(CHESS_GAME, "lan-wifi", platform_name="vm")
    assert results[0].executed_locally
    assert sum(r.offloading_failure for r in results) == 0


def test_hybrid_missing_device_rejected():
    env = Environment()
    platform = RattrapPlatform(env)
    plans = generate_inflow(LINPACK, devices=2, requests_per_device=1, seed=0)
    with pytest.raises(ValueError, match="no device"):
        env.run(until=env.process(
            replay_partitioned(env, platform, plans, {},
                               decider=DecisionEngine())))


def test_closed_loop_missing_device_rejected_up_front():
    # A device map lacking a plan's device is rejected before anything
    # is simulated, not with a KeyError partway through the run.
    env = Environment()
    platform = RattrapPlatform(env)
    plans = generate_inflow(LINPACK, devices=2, requests_per_device=2, seed=0)
    devices = {"device-0": MobileDevice("device-0", make_link("lan-wifi"))}
    with pytest.raises(ValueError, match=r"no device object for: \['device-1'\]"):
        run_inflow_experiment(env, platform, plans, make_link("lan-wifi"),
                              devices=devices)
    assert env.now == 0.0
    assert platform.results == []


def test_platform_estimates_cold_then_warm():
    env = Environment()
    platform = RattrapPlatform(env)
    plans = generate_inflow(CHESS_GAME, devices=1, requests_per_device=1, seed=0)
    request = plans[0].request
    cold = platform.expected_preparation_s(request)
    assert cold == pytest.approx(1.75, abs=0.01)
    assert not platform.code_cached(request)
    env.run(until=platform.submit(request, make_link("lan-wifi")))
    warm = platform.expected_preparation_s(request)
    assert warm < 0.01
    assert platform.code_cached(request)


def test_vm_platform_estimates():
    env = Environment()
    platform = VMCloudPlatform(env)
    plans = generate_inflow(CHESS_GAME, devices=1, requests_per_device=1, seed=0)
    request = plans[0].request
    assert platform.expected_preparation_s(request) == pytest.approx(28.72, abs=0.01)
    assert not platform.code_cached(request)


# ------------------------------------------------------------------ deadline
def test_deadline_aborts_vm_cold_start():
    from repro.offload.client import replay_with_deadline

    env = Environment()
    platform = VMCloudPlatform(env)
    plans = generate_inflow(CHESS_GAME, devices=1, requests_per_device=3, seed=0)
    devices = {"device-0": MobileDevice("device-0", make_link("lan-wifi"))}
    proc = env.process(replay_with_deadline(env, platform, plans, devices, 5.0))
    results = env.run(until=proc)
    # The first request hits the 28.72 s boot and is aborted at 5 s.
    assert results[0].deadline_aborted
    assert results[0].executed_locally
    # The VM keeps booting in the background, so later requests land warm
    # (chess response ~1.5 s < 5 s deadline).
    assert not results[-1].deadline_aborted
    # Bounded worst case: aborted response = deadline + local time.
    assert results[0].response_time == pytest.approx(5.0 + CHESS_GAME.local_time_s,
                                                     rel=0.01)


def test_deadline_not_triggered_on_fast_platform():
    from repro.offload.client import replay_with_deadline

    env = Environment()
    platform = RattrapPlatform(env)
    plans = generate_inflow(CHESS_GAME, devices=2, requests_per_device=2, seed=0)
    devices = {
        f"device-{i}": MobileDevice(f"device-{i}", make_link("lan-wifi"))
        for i in range(2)
    }
    proc = env.process(replay_with_deadline(env, platform, plans, devices, 10.0))
    results = env.run(until=proc)
    assert not any(r.deadline_aborted for r in results)
    assert platform.scheduler.active_requests == 0


def test_deadline_validation():
    from repro.offload.client import replay_with_deadline

    env = Environment()
    platform = RattrapPlatform(env)
    plans = generate_inflow(CHESS_GAME, devices=1, requests_per_device=1, seed=0)
    with pytest.raises(ValueError):
        env.run(until=env.process(
            replay_with_deadline(env, platform, plans, {}, 5.0)))
    devices = {"device-0": MobileDevice("device-0", make_link("lan-wifi"))}
    with pytest.raises(ValueError):
        env.run(until=env.process(
            replay_with_deadline(env, platform, plans, devices, 0.0)))


class _PacedPlatform:
    """Stub platform serving every request in exactly ``service_s``
    simulated seconds, split into two hops so the completion event is
    scheduled *after* the client's deadline timer — the adversarial
    ordering for the deadline/completion same-tick race."""

    def __init__(self, env, service_s, split_s=1.0):
        self.env = env
        self.service_s = service_s
        self.split_s = split_s

    def submit(self, request, link):
        """Return the serving process (same contract as CloudPlatform)."""
        from repro.offload.request import PhaseTimeline, RequestResult

        def serve(env):
            started = env.now
            yield env.timeout(self.split_s)
            yield env.timeout(self.service_s - self.split_s)
            return RequestResult(
                request=request,
                timeline=PhaseTimeline(),
                started_at=started,
                finished_at=env.now,
                executed_on="stub-0",
            )

        return self.env.process(serve(self.env))


def test_deadline_same_tick_completion_is_kept():
    # The response lands in the exact tick the deadline fires, with the
    # expiry timer processing first: the condition wakes on the expiry,
    # but the completed response must not be thrown away.
    from repro.offload.client import replay_with_deadline

    env = Environment()
    platform = _PacedPlatform(env, service_s=5.0)
    plans = generate_inflow(CHESS_GAME, devices=1, requests_per_device=1, seed=0)
    devices = {"device-0": MobileDevice("device-0", make_link("lan-wifi"))}
    proc = env.process(replay_with_deadline(env, platform, plans, devices, 5.0))
    [result] = env.run(until=proc)
    assert not result.deadline_aborted
    assert not result.executed_locally
    assert result.executed_on == "stub-0"
    assert result.finished_at == pytest.approx(5.0)
    assert devices["device-0"].offloaded_requests == 1


def test_deadline_abort_reports_honest_start_time():
    # Aborted requests must carry started_at = submission time, so the
    # deadline + local-execution penalty shows up in response_time.
    from repro.offload.client import replay_with_deadline

    env = Environment()
    platform = _PacedPlatform(env, service_s=50.0)
    plans = generate_inflow(CHESS_GAME, devices=1, requests_per_device=2,
                            think_time_s=2.0, seed=0)
    devices = {"device-0": MobileDevice("device-0", make_link("lan-wifi"))}
    proc = env.process(replay_with_deadline(env, platform, plans, devices, 5.0))
    results = env.run(until=proc)
    assert all(r.deadline_aborted and r.executed_locally for r in results)
    for r in results:
        assert r.response_time == pytest.approx(5.0 + CHESS_GAME.local_time_s)
    # The second request was submitted one think-gap after the first
    # finished — its honest start time is that submission instant.
    first, second = results
    assert first.started_at == pytest.approx(plans[0].gap_s)
    assert second.started_at == pytest.approx(
        first.finished_at + plans[1].gap_s
    )
