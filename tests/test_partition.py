"""Tests for dynamic offload partitioning (repro.offload.partition).

Covers the decision cost model (golden table + hypothesis properties),
the partitioned replay client (byte-identity when detached, span
tiling on every path, the budget-abort same-tick race), the
QoSBudgetBook, and the partition experiment's Pareto headline.
"""

import hashlib
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.network import make_link
from repro.network.link import Link, Mbps
from repro.obs import Observability
from repro.offload import (
    MobileDevice,
    OffloadDecider,
    OffloadRequest,
    PartitionConfig,
    StaticDecider,
    replay_partitioned,
)
from repro.platform import RattrapPlatform
from repro.platform.qos import QoSBudgetBook
from repro.sim import Environment
from repro.workloads import CHESS_GAME, LINPACK, VIRUS_SCAN, generate_inflow

PROFILES = (CHESS_GAME, VIRUS_SCAN, LINPACK)


def _request(profile, rid=0, **kw):
    return OffloadRequest(
        request_id=rid, device_id="d0", app_id=profile.name,
        profile=profile, **kw,
    )


def _decide(profile, scenario, decider=None, link=None):
    """One decision against a fresh platform/device (pure snapshot)."""
    env = Environment()
    platform = RattrapPlatform(env, optimized=True)
    device = MobileDevice("d0", link or make_link(scenario))
    decider = decider or OffloadDecider()
    return decider.decide(_request(profile), device, platform)


# ----------------------------------------------------------- config / basics
def test_partition_config_validation():
    with pytest.raises(ValueError):
        PartitionConfig(decide_s=-0.1)
    with pytest.raises(ValueError):
        PartitionConfig(amortize_requests=0)
    with pytest.raises(ValueError):
        PartitionConfig(energy_weight_s_per_j=-1.0)
    with pytest.raises(ValueError):
        PartitionConfig(low_battery_threshold=1.5)
    with pytest.raises(ValueError):
        PartitionConfig(queue_weight=-0.5)
    with pytest.raises(ValueError):
        StaticDecider("maybe")


def test_energy_weight_ramps_when_battery_is_low():
    cfg = PartitionConfig(energy_weight_s_per_j=0.1,
                          low_battery_energy_weight_s_per_j=5.0)
    assert cfg.energy_weight(1.0) == pytest.approx(0.1)
    assert cfg.energy_weight(0.19) == pytest.approx(5.0)


def test_low_battery_biases_toward_energy():
    # Same 3g state; a drained battery flips linpack's close call only
    # if energy dominates — here it stays offload (offload is cheaper
    # in joules too), but chess must stay local either way.
    env = Environment()
    platform = RattrapPlatform(env, optimized=True)
    device = MobileDevice("d0", make_link("3g"))
    device.energy_used_j = 0.9 * device.battery_capacity_j
    decider = OffloadDecider()
    assert decider.decide(_request(CHESS_GAME), device, platform).choice == "local"
    assert decider.decide(_request(LINPACK), device, platform).choice == "offload"


# -------------------------------------------------------- golden decisions
GOLDEN = {
    # scenario -> {app: expected choice}; offloading pays everywhere
    # except 3g, where only the compute-bound app survives the uplink.
    "lan-wifi": {"chess": "offload", "linpack": "offload", "virusscan": "offload"},
    "wan-wifi": {"chess": "offload", "linpack": "offload", "virusscan": "offload"},
    "4g": {"chess": "offload", "linpack": "offload", "virusscan": "offload"},
    "3g": {"chess": "local", "linpack": "offload", "virusscan": "local"},
}


@pytest.mark.parametrize("scenario", sorted(GOLDEN))
def test_golden_decision_table(scenario):
    for profile in PROFILES:
        decision = _decide(profile, scenario)
        assert decision.choice == GOLDEN[scenario][profile.name], (
            f"{profile.name} on {scenario}: {decision}"
        )


def test_decision_carries_estimates_and_tallies():
    decision = _decide(CHESS_GAME, "lan-wifi")
    assert decision.local.latency_s == pytest.approx(CHESS_GAME.local_time_s)
    assert decision.offload is not None
    assert decision.offload.latency_s < decision.local.latency_s
    assert decision.budget_s == math.inf
    decider = OffloadDecider()
    env = Environment()
    platform = RattrapPlatform(env, optimized=True)
    device = MobileDevice("d0", make_link("lan-wifi"))
    decider.decide(_request(CHESS_GAME), device, platform)
    decider.decide(_request(CHESS_GAME), device, platform)
    assert (decider.offloads, decider.locals, decider.sheds) == (2, 0, 0)


def test_decider_picks_cheapest_of_several_platforms():
    env = Environment()
    fast = RattrapPlatform(env, optimized=True)
    slow = RattrapPlatform(env, optimized=False)  # VM-style cold boots
    device = MobileDevice("d0", make_link("lan-wifi"))
    decision = OffloadDecider().decide(
        _request(CHESS_GAME), device, [slow, fast]
    )
    assert decision.choice == "offload"
    assert decision.target == 1  # the optimized platform


def test_decide_is_deterministic():
    first = _decide(VIRUS_SCAN, "4g")
    second = _decide(VIRUS_SCAN, "4g")
    assert first == second


# ---------------------------------------------------- hypothesis properties
@settings(max_examples=25, deadline=None)
@given(
    profile=st.sampled_from(PROFILES),
    up_mbps=st.floats(0.05, 10.0),
    down_mbps=st.floats(0.05, 10.0),
    latency_s=st.floats(0.001, 0.3),
    scale=st.floats(1.0, 50.0),
)
def test_more_goodput_never_flips_offload_to_local(
    profile, up_mbps, down_mbps, latency_s, scale
):
    # Monotonicity in bandwidth: if the decider offloads at some
    # goodput, it still offloads when both directions get faster.
    slow = Link("slow", latency_s, up_mbps * Mbps, down_mbps * Mbps)
    fast = Link("fast", latency_s, scale * up_mbps * Mbps,
                scale * down_mbps * Mbps)
    before = _decide(profile, "", link=slow)
    after = _decide(profile, "", link=fast)
    if before.choice == "offload":
        assert after.choice == "offload"


@settings(max_examples=25, deadline=None)
@given(
    profile=st.sampled_from(PROFILES),
    scenario=st.sampled_from(sorted(GOLDEN)),
    local_scale=st.floats(1.0, 20.0),
)
def test_costlier_local_never_flips_offload_to_local(
    profile, scenario, local_scale
):
    # Monotonicity in local CPU cost: growing local_time_s (offload
    # estimates untouched) never flips an offload decision back local.
    before = _decide(profile, scenario)
    slower = profile.derive(
        f"{profile.name}-slow", local_time_s=profile.local_time_s * local_scale
    )
    after = _decide(slower, scenario)
    if before.choice == "offload":
        assert after.choice == "offload"


# ------------------------------------------------------------ budget gating
def test_budget_prefers_request_over_book():
    book = QoSBudgetBook()
    book.set_budget("chess", 9.0)
    decider = OffloadDecider(budgets=book)
    assert decider.budget_for(_request(CHESS_GAME)) == pytest.approx(9.0)
    assert decider.budget_for(
        _request(CHESS_GAME, deadline_budget_s=1.5)
    ) == pytest.approx(1.5)
    assert OffloadDecider().budget_for(_request(CHESS_GAME)) == math.inf


def test_unmeetable_budget_sheds_when_configured():
    env = Environment()
    platform = RattrapPlatform(env, optimized=True)
    device = MobileDevice("d0", make_link("3g"))
    tight = _request(VIRUS_SCAN, deadline_budget_s=0.01)
    fallback = OffloadDecider().decide(tight, device, platform)
    assert fallback.choice == "local"  # cheapest path, budget busted
    assert "unsatisfiable" in fallback.reason
    shedder = OffloadDecider(PartitionConfig(shed_over_budget=True))
    assert shedder.decide(tight, device, platform).choice == "shed"
    assert shedder.sheds == 1


# -------------------------------------------------------------- QoS budgets
def test_budget_book_validation():
    with pytest.raises(ValueError):
        QoSBudgetBook(default_budget_s=0.0)
    with pytest.raises(ValueError):
        QoSBudgetBook(alpha=0.0)
    with pytest.raises(ValueError):
        QoSBudgetBook(slack=-1.0)
    with pytest.raises(ValueError):
        QoSBudgetBook(floor_s=2.0, ceil_s=1.0)
    book = QoSBudgetBook()
    with pytest.raises(ValueError):
        book.set_budget("chess", 0.0)
    with pytest.raises(ValueError):
        book.observe("chess", -1.0)


def test_budget_book_static_wins_and_defaults_to_inf():
    book = QoSBudgetBook(adaptive=True)
    assert book.budget_for("chess") == math.inf
    book.observe("chess", 2.0)
    book.set_budget("chess", 1.0)
    assert book.budget_for("chess") == pytest.approx(1.0)


def test_budget_book_adapts_with_slack_and_clamps():
    book = QoSBudgetBook(adaptive=True, alpha=0.5, slack=2.0,
                         floor_s=0.5, ceil_s=6.0)
    book.observe("chess", 2.0)
    assert book.observed_response_s("chess") == pytest.approx(2.0)
    assert book.budget_for("chess") == pytest.approx(4.0)
    book.observe("chess", 4.0)  # EWMA -> 3.0, slack -> 6.0 (at ceil)
    assert book.budget_for("chess") == pytest.approx(6.0)
    book.observe("chess", 100.0)  # EWMA explodes; ceiling holds
    assert book.budget_for("chess") == pytest.approx(6.0)
    tiny = QoSBudgetBook(adaptive=True, floor_s=0.5)
    tiny.observe("chess", 0.01)
    assert tiny.budget_for("chess") == pytest.approx(0.5)


def test_decider_feeds_observations_into_the_book():
    book = QoSBudgetBook(adaptive=True)
    decider = OffloadDecider(budgets=book)
    results = _replay("lan-wifi", decider, requests=2)
    assert book.observed_response_s("chess") is not None


# ------------------------------------------------------- partitioned replay
def _replay(scenario, decider, requests=3, devices=1, obs=False,
            profile=CHESS_GAME, platform_factory=None):
    env = Environment()
    observer = Observability(env) if obs else None
    platform = (
        platform_factory(env) if platform_factory
        else RattrapPlatform(env, optimized=True)
    )
    plans = generate_inflow(profile, devices=devices,
                            requests_per_device=requests, seed=3)
    fleet = {
        f"device-{d}": MobileDevice(f"device-{d}", make_link(scenario))
        for d in range(devices)
    }
    results = env.run(until=env.process(
        replay_partitioned(env, platform, plans, fleet, decider=decider)
    ))
    if obs:
        return results, observer, fleet
    return results


def _fingerprint(results):
    return [
        (r.request.request_id, r.started_at, r.finished_at,
         r.executed_locally, r.shed, r.executed_on)
        for r in results
    ]


def test_detached_decider_is_byte_identical_to_always_offload():
    # The invariant the default suite rests on: an attached decider
    # that always answers "offload" (static, or adaptive with infinite
    # budgets and a full battery) perturbs nothing.
    detached = _fingerprint(_replay("lan-wifi", None, requests=4, devices=2))
    static = _fingerprint(
        _replay("lan-wifi", StaticDecider("offload"), requests=4, devices=2))
    adaptive = _fingerprint(
        _replay("lan-wifi", OffloadDecider(budgets=QoSBudgetBook()),
                requests=4, devices=2))
    assert detached == static == adaptive


def test_partition_report_identical_serial_and_parallel():
    from repro.experiments import partition

    serial = partition.report(partition.run(jobs=0, smoke=True))
    parallel = partition.report(partition.run(jobs=4, smoke=True))
    assert serial == parallel


def test_local_path_tiles_to_full_coverage():
    # chess on 3g goes local; decide + local_exec spans must tile the
    # response exactly even with a nonzero decision cost.
    decider = OffloadDecider(PartitionConfig(decide_s=0.05))
    results, observer, fleet = _replay("3g", decider, requests=3, obs=True)
    assert all(r.executed_locally for r in results)
    total = observer.tracer.phase_total_s()
    e2e = sum(r.response_time for r in results)
    assert total == pytest.approx(e2e, rel=1e-12)
    kinds = {s.kind for s in observer.tracer.spans}
    assert kinds == {"decide", "local_exec"}
    # decision latency is part of the honest response time
    assert all(r.response_time == pytest.approx(
        0.05 + CHESS_GAME.local_time_s) for r in results)
    assert fleet["device-0"].local_executions == 3


def test_offload_path_tiles_with_decide_span():
    decider = OffloadDecider(PartitionConfig(decide_s=0.05))
    results, observer, fleet = _replay("lan-wifi", decider, requests=3, obs=True)
    assert not any(r.executed_locally for r in results)
    total = observer.tracer.phase_total_s()
    e2e = sum(r.response_time for r in results)
    assert total == pytest.approx(e2e, rel=1e-9)
    kinds = {s.kind for s in observer.tracer.spans}
    assert "decide" in kinds and "execute" in kinds
    assert fleet["device-0"].offloaded_requests == 3


def test_shed_path_tiles_and_counts():
    decider = OffloadDecider(
        PartitionConfig(decide_s=0.05, shed_over_budget=True),
        budgets=QoSBudgetBook(default_budget_s=0.001),
    )
    results, observer, _ = _replay("lan-wifi", decider, requests=2, obs=True)
    assert all(r.shed for r in results)
    assert all(r.response_time == pytest.approx(0.05) for r in results)
    total = observer.tracer.phase_total_s()
    assert total == pytest.approx(sum(r.response_time for r in results))
    assert decider.sheds == 2


# ------------------------------------------- budget enforcement at runtime
class _PacedPlatform:
    """Stub serving in exactly ``service_s``, split into two hops so the
    completion event schedules *after* the client's budget timer — the
    adversarial ordering for the budget/completion same-tick race.
    Carries the client-estimate API the decider probes."""

    class _Dispatcher:
        warm_dispatch_s = 0.002

    def __init__(self, env, service_s, split_s=1.0):
        self.env = env
        self.service_s = service_s
        self.split_s = split_s
        self.dispatcher = self._Dispatcher()

    def expected_preparation_s(self, request):
        return 0.0

    def expected_queueing_s(self, request):
        return 0.0

    def expected_cache_hit_p(self, request):
        return 0.0

    def code_cached(self, request):
        return True

    def submit(self, request, link):
        from repro.offload.request import PhaseTimeline, RequestResult

        def serve(env):
            started = env.now
            yield env.timeout(self.split_s)
            yield env.timeout(self.service_s - self.split_s)
            return RequestResult(
                request=request, timeline=PhaseTimeline(),
                started_at=started, finished_at=env.now,
                executed_on="stub-0",
            )

        return self.env.process(serve(self.env))


#: chess with the app-profile budget the QoS gate and the deadline
#: client must both honour
_BUDGETED_CHESS = CHESS_GAME.derive("chess", deadline_budget_s=5.0)


def test_budget_same_tick_completion_is_kept():
    # The offload completes in the exact tick the budget expires, with
    # the expiry processing first: the result must not be thrown away.
    decider = OffloadDecider(PartitionConfig(enforce_budget=True))
    results = _replay(
        "lan-wifi", decider, requests=1, profile=_BUDGETED_CHESS,
        platform_factory=lambda env: _PacedPlatform(env, service_s=5.0),
    )
    [result] = results
    assert not result.deadline_aborted
    assert not result.executed_locally
    assert result.executed_on == "stub-0"


def test_budget_abort_falls_back_to_local():
    decider = OffloadDecider(PartitionConfig(enforce_budget=True))
    results = _replay(
        "lan-wifi", decider, requests=2, profile=_BUDGETED_CHESS,
        platform_factory=lambda env: _PacedPlatform(env, service_s=50.0),
    )
    assert all(r.deadline_aborted and r.executed_locally for r in results)
    for r in results:
        assert r.response_time == pytest.approx(5.0 + CHESS_GAME.local_time_s)


def test_deadline_client_reads_profile_budget():
    # replay_with_deadline with no explicit deadline honours the app
    # profile's deadline_budget_s — the same clock as the QoS gate:
    # both anchor at the submission instant.
    from repro.offload.client import replay_with_deadline

    env = Environment()
    platform = _PacedPlatform(env, service_s=50.0)
    plans = generate_inflow(_BUDGETED_CHESS, devices=1, requests_per_device=1,
                            seed=0)
    devices = {"device-0": MobileDevice("device-0", make_link("lan-wifi"))}
    proc = env.process(replay_with_deadline(env, platform, plans, devices))
    [result] = env.run(until=proc)
    assert result.deadline_aborted and result.executed_locally
    assert result.response_time == pytest.approx(5.0 + CHESS_GAME.local_time_s)
    # same profile through the QoS-enforcing partition client: the
    # abort lands at the identical instant
    decider = OffloadDecider(PartitionConfig(enforce_budget=True))
    [partitioned] = _replay(
        "lan-wifi", decider, requests=1, profile=_BUDGETED_CHESS,
        platform_factory=lambda env: _PacedPlatform(env, service_s=50.0),
    )
    assert partitioned.finished_at == pytest.approx(result.finished_at)


def test_unbudgeted_deadline_replay_never_aborts():
    from repro.offload.client import replay_with_deadline

    env = Environment()
    platform = _PacedPlatform(env, service_s=50.0)
    plans = generate_inflow(CHESS_GAME, devices=1, requests_per_device=1, seed=0)
    devices = {"device-0": MobileDevice("device-0", make_link("lan-wifi"))}
    proc = env.process(replay_with_deadline(env, platform, plans, devices))
    [result] = env.run(until=proc)
    assert not result.deadline_aborted
    assert result.executed_on == "stub-0"


def test_profile_budget_validation():
    with pytest.raises(ValueError):
        CHESS_GAME.derive("bad", deadline_budget_s=0.0)
    with pytest.raises(ValueError):
        _request(CHESS_GAME, deadline_budget_s=-1.0)


# ------------------------------------------------------------- replay edges
def test_replay_partitioned_validates_inputs():
    env = Environment()
    platform = RattrapPlatform(env)
    plans = generate_inflow(CHESS_GAME, devices=1, requests_per_device=1, seed=0)
    with pytest.raises(ValueError):
        env.run(until=env.process(
            replay_partitioned(env, [], plans, {})))
    with pytest.raises(ValueError):
        env.run(until=env.process(
            replay_partitioned(env, platform, plans, {})))


def test_decision_metrics_counters():
    from repro.obs import metrics_of

    env = Environment()
    observer = Observability(env, tracing=False, metrics=True)
    platform = RattrapPlatform(env, optimized=True)
    plans = generate_inflow(CHESS_GAME, devices=1, requests_per_device=3, seed=3)
    fleet = {"device-0": MobileDevice("device-0", make_link("3g"))}
    env.run(until=env.process(replay_partitioned(
        env, platform, plans, fleet, decider=OffloadDecider())))
    snapshot = observer.metrics.snapshot()
    assert snapshot["counters"]["client.decisions.local"] == 3


# --------------------------------------------------------------- experiment
def test_partition_experiment_pareto_headline():
    from repro.experiments import partition

    data = partition.run(jobs=0, smoke=True)
    assert set(data) == {
        (scenario, arm)
        for scenario in partition.PARTITION_SCENARIOS
        for arm in partition.ARMS
    }
    # the adaptive arm must dominate both statics somewhere (3g is the
    # engineered arm: chess/virusscan local, linpack offloaded)
    winners = partition.pareto_dominant_arms(data)
    assert "3g" in winners
    cell = data[("3g", "adaptive")]
    assert 0.0 < cell["local_fraction"] < 1.0
    # static arms are pure
    assert data[("3g", "offload")]["local_fraction"] == 0.0
    assert data[("3g", "local")]["local_fraction"] == 1.0
    # every cell tiles exactly
    for m in data.values():
        assert m["phase_sum_s"] == pytest.approx(m["e2e_sum_s"], rel=1e-9)
    text = partition.report(data)
    # Pinned report (rule: the digest may change only in a change whose
    # CHANGES.md entry names this experiment and why its output moved).
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "6d9670b27ea3a07a86e5b166527eb3d8de45b7d84f631fe16c9449f3f562bbb4"
    )
    assert "Pareto-dominates" in text
    assert "span cover %" in text
