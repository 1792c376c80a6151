"""Per-tenant isolation: accounting ledger, enforcement, adversaries.

Covers the tenancy ledger and its metrics mirror, per-tenant airtime
fair share on the fluid channel (weighted and capped), residency quotas
with burn-on-over-quota, warm-pool reservation floors, the adversary
library, and the abuse experiment's smoke configuration.
"""

import hashlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments import abuse
from repro.faults import (
    Adversary,
    AirtimeHog,
    PermissionStorm,
    ResidencySquatter,
    ResourceExhausted,
    RetryAmplifier,
    WarmPoolSquatter,
)
from repro.hostos.server import CloudServer, ServerSpec
from repro.network.link import FluidChannel
from repro.obs import Observability
from repro.platform import (
    PredictiveConfig,
    RattrapPlatform,
    TenancyConfig,
    TenancyManager,
    attribution_from_snapshot,
    tenancy_of,
    top_offenders,
)
from repro.platform.shared_layer import OffloadingIOLayer
from repro.platform.tenancy import render_attribution
from repro.sim import Environment

BPS = 1_000_000.0
MB = 1024 * 1024


# ------------------------------------------------------------------ config
def test_tenancy_config_validation():
    with pytest.raises(ValueError):
        TenancyConfig(airtime_cap=0.0)
    with pytest.raises(ValueError):
        TenancyConfig(airtime_cap=1.5)
    with pytest.raises(ValueError):
        TenancyConfig(airtime_weights={"app": -1.0})
    with pytest.raises(ValueError):
        TenancyConfig(residency_quota_bytes=0)
    cfg = TenancyConfig(airtime_weights={"heavy": 3.0})
    assert cfg.weight_of("heavy") == 3.0
    assert cfg.weight_of("other") == 1.0


def test_tenancy_of_and_attachment():
    assert tenancy_of(None) is None
    env = Environment()
    assert tenancy_of(env) is None
    manager = TenancyManager(env)
    assert tenancy_of(env) is manager and env.tenancy is manager


# ------------------------------------------------------------------ ledger
def test_ledger_counters_gauges_and_peaks():
    env = Environment()
    t = TenancyManager(env)
    t.account_airtime("a", 2.0)
    t.account_airtime("a", 1.0)
    t.account_cpu("a", 0.5)
    t.account_dedup("b", 100.0)
    t.account_eviction("b", 50.0)
    t.account_violations("a", 3)
    t.account_blocked("a")
    t.residency_set("b", 900.0)
    t.residency_set("b", 400.0)
    t.pool_set("a", 2.0)
    assert t.usage("airtime_s", "a") == pytest.approx(3.0)
    assert t.usage("cpu_s", "a") == pytest.approx(0.5)
    assert t.usage("violations", "a") == 3.0
    assert t.usage("blocked_requests", "a") == 1.0
    assert t.usage("resident_bytes", "b") == 400.0
    assert t.peak("resident_bytes", "b") == 900.0  # high-water mark
    assert t.peak("pool_slots", "a") == 2.0
    assert t.usage("airtime_s", "nobody") == 0.0
    # gauges clamp below zero (satellite: no negative residency)
    t.residency_set("b", -5.0)
    assert t.usage("resident_bytes", "b") == 0.0


def test_snapshot_attribution_and_offenders():
    env = Environment()
    t = TenancyManager(env)
    t.account_airtime("hog", 9.0)
    t.account_airtime("victim", 1.0)
    t.residency_set("squat", 800.0)
    t.residency_set("squat", 100.0)
    snap = t.snapshot()
    attr = attribution_from_snapshot(snap)
    assert attr["airtime_s"] == {"hog": 9.0, "victim": 1.0}
    assert attr["resident_bytes"]["squat"] == 800.0  # max, not current
    offenders = top_offenders(snap)
    assert offenders["airtime_s"] == ("hog", 9.0)
    assert offenders["resident_bytes"] == ("squat", 800.0)
    table = render_attribution(snap)
    assert "hog" in table and "airtime_s" in table


def test_ledger_mirrors_into_metrics_registry():
    env = Environment()
    obs = Observability(env, tracing=False, metrics=True)
    t = TenancyManager(env)
    t.account_airtime("hog", 4.0)
    t.residency_set("squat", 700.0)
    t.residency_set("squat", 200.0)
    snap = obs.metrics.snapshot()
    assert snap["counters"]["tenant.airtime_s.hog"] == pytest.approx(4.0)
    offenders = top_offenders(snap)
    assert offenders["airtime_s"][0] == "hog"
    assert offenders["resident_bytes"] == ("squat", 700.0)


# ---------------------------------------------------------- airtime share
def _timed_flows(env, channel, specs):
    """Start (nbytes, tenant) flows at t=0; return name->finish dict."""
    finished = {}
    flows = []
    for label, nbytes, tenant in specs:
        flow = channel.add(nbytes, BPS, tenant=tenant)
        flow.done.add_callback(
            lambda _ev, label=label: finished.setdefault(label, env.now)
        )
        flows.append(flow)
    env.run()
    return finished


def test_per_tenant_fair_share_nullifies_extra_flows():
    env = Environment()
    TenancyManager(env, TenancyConfig())
    channel = FluidChannel(env)
    specs = [("victim", BPS, "v")] + [
        (f"hog-{i}", BPS, "h") for i in range(4)
    ]
    finished = _timed_flows(env, channel, specs)
    # Tenants split airtime 50/50 no matter the flow count: the victim
    # moves 1 MB at BPS/2 (t=2); each hog flow gets BPS/8 until then,
    # BPS/4 after, finishing at t=5.
    assert finished["victim"] == pytest.approx(2.0)
    for i in range(4):
        assert finished[f"hog-{i}"] == pytest.approx(5.0)
    tenancy = env.tenancy
    assert tenancy.usage("airtime_s", "v") == pytest.approx(1.0)
    assert tenancy.usage("airtime_s", "h") == pytest.approx(4.0)


def test_per_flow_share_without_enforcement():
    env = Environment()
    TenancyManager(env, TenancyConfig(enforce=False))
    channel = FluidChannel(env)
    specs = [("victim", BPS, "v")] + [
        (f"hog-{i}", BPS, "h") for i in range(4)
    ]
    finished = _timed_flows(env, channel, specs)
    # Legacy per-flow split: 5 equal flows all finish together at t=5,
    # and the hog's 4 flows bought it 4x the victim's airtime.
    assert finished["victim"] == pytest.approx(5.0)
    assert env.tenancy.usage("airtime_s", "h") == pytest.approx(4.0)
    assert env.tenancy.usage("airtime_s", "v") == pytest.approx(1.0)


def test_airtime_cap_water_filling():
    env = Environment()
    TenancyManager(env, TenancyConfig(airtime_cap=0.25))
    channel = FluidChannel(env)
    specs = [("victim", BPS, "v"), ("hog-0", BPS, "h"), ("hog-1", BPS, "h")]
    finished = _timed_flows(env, channel, specs)
    # Both tenants clamp at 25%; capped airtime stays unused, so the
    # victim needs 4s for 1 MB and each hog flow (12.5% each) drains at
    # 25% tenant share throughout: 1 MB at BPS/8 until t=4 then BPS/8
    # still -> 8s total.
    assert finished["victim"] == pytest.approx(4.0)
    assert finished["hog-0"] == pytest.approx(8.0)
    assert finished["hog-1"] == pytest.approx(8.0)


def test_airtime_weights_favor_designated_tenant():
    env = Environment()
    TenancyManager(env, TenancyConfig(airtime_weights={"v": 3.0}))
    channel = FluidChannel(env)
    finished = _timed_flows(
        env, channel, [("victim", BPS, "v"), ("hog", BPS, "h")]
    )
    # weight 3 vs 1: victim holds 75% airtime and finishes in 4/3 s.
    assert finished["victim"] == pytest.approx(4.0 / 3.0)
    assert finished["hog"] > finished["victim"]
    total = env.tenancy.usage("airtime_s", "v") + env.tenancy.usage(
        "airtime_s", "h"
    )
    assert total == pytest.approx(finished["hog"])  # conservation


def test_untagged_flows_keep_legacy_split():
    env = Environment()
    TenancyManager(env, TenancyConfig())
    channel = FluidChannel(env)
    finished = _timed_flows(
        env, channel, [("a", BPS, ""), ("b", BPS, "")]
    )
    assert finished["a"] == pytest.approx(2.0)
    assert finished["b"] == pytest.approx(2.0)


# ------------------------------------------------------- residency quota
def _io_layer(tmpfs_mb=32.0, config=None):
    env = Environment()
    if config is not None:
        TenancyManager(env, config)
    server = CloudServer(env, spec=ServerSpec(tmpfs_mb=tmpfs_mb))
    return env, OffloadingIOLayer(server.tmpfs, env=env)


def test_residency_quota_burns_oldest_entries():
    env, io = _io_layer(config=TenancyConfig(residency_quota_bytes=1000))
    io.stage("k1", 600, tenant="sq")
    assert io.tenant_resident_bytes("sq") == 600
    io.stage("k2", 600, tenant="sq")  # 1200 > 1000: k1 burns
    assert not io.has_staged("k1") and io.has_staged("k2")
    assert io.tenant_resident_bytes("sq") == 600
    assert io.quota_evictions == 1 and io.quota_evicted_bytes == 600
    assert env.tenancy.usage("evicted_bytes", "sq") == 600.0
    assert env.tenancy.peak("resident_bytes", "sq") == 1200.0


def test_single_over_quota_payload_survives_until_own_burn():
    env, io = _io_layer(config=TenancyConfig(residency_quota_bytes=1000))
    io.stage("big", 1500, tenant="sq")
    assert io.has_staged("big")  # eviction never burns the newest key
    assert io.tenant_resident_bytes("sq") == 1500
    io.burn("big")
    assert io.tenant_resident_bytes("sq") == 0


def test_quota_ignored_without_enforcement():
    env, io = _io_layer(
        config=TenancyConfig(enforce=False, residency_quota_bytes=1000)
    )
    io.stage("k1", 600, tenant="sq")
    io.stage("k2", 600, tenant="sq")
    assert io.has_staged("k1") and io.has_staged("k2")
    assert io.quota_evictions == 0
    # accounting still attributes the squatter
    assert env.tenancy.usage("resident_bytes", "sq") == 1200.0


def test_dedup_credit_attributed_to_tenant():
    env, io = _io_layer(config=TenancyConfig())
    assert io.stage("k1", 500, digest="d", tenant="a")
    assert not io.stage("k2", 500, digest="d", tenant="b")  # dedup hit
    assert env.tenancy.usage("dedup_credit_bytes", "b") == 500.0


def test_staging_exhaustion_is_retryable_under_tenancy():
    env, io = _io_layer(tmpfs_mb=1.0, config=TenancyConfig())
    with pytest.raises(ResourceExhausted):
        io.stage("huge", 2 * MB, tenant="sq")
    # without a tenancy manager the original IOError surfaces
    env2, io2 = _io_layer(tmpfs_mb=1.0)
    with pytest.raises(IOError):
        io2.stage("huge", 2 * MB)


# -------------------------------------------------------- warm-pool floors
def test_pool_floor_reserves_capacity_for_owner():
    env = Environment()
    TenancyManager(env, TenancyConfig())
    platform = RattrapPlatform(env, dispatch_policy="app-affinity")
    platform.enable_predictive(
        PredictiveConfig(pool_capacity=3, pool_floors=(("chess", 2),))
    )
    dispatcher = platform.dispatcher
    # one slot is free for anyone, the remaining two stay reserved
    assert dispatcher.preboot("greedy") is not None
    assert dispatcher.preboot("greedy") is None
    assert dispatcher.preboot_refusals == 1
    # the floor's owner can still claim its reservation
    assert dispatcher.preboot("chess") is not None
    assert dispatcher.preboot("chess") is not None
    env.run()
    # tenancy ledger saw the slots
    assert env.tenancy.peak("pool_slots", "greedy") == 1.0
    assert env.tenancy.peak("pool_slots", "chess") == 2.0


def test_pool_capacity_hard_stop():
    env = Environment()
    platform = RattrapPlatform(env, dispatch_policy="app-affinity")
    platform.enable_predictive(PredictiveConfig(pool_capacity=2))
    dispatcher = platform.dispatcher
    assert dispatcher.preboot("a") is not None
    assert dispatcher.preboot("b") is not None
    assert dispatcher.preboot("c") is None
    env.run()


# ------------------------------------------------------------ adversaries
def test_adversary_validation_and_kinds():
    with pytest.raises(ValueError):
        AirtimeHog("hog", link=None, start_s=-1.0)
    with pytest.raises(ValueError):
        ResidencySquatter("sq", duration_s=0.0)
    assert WarmPoolSquatter("p").kind == "pool-squat"
    assert ResidencySquatter("s").kind == "residency-squat"
    assert AirtimeHog("h", link=None).kind == "airtime-hog"
    with pytest.raises(NotImplementedError):
        Adversary("base").run(None, None)


# ------------------------------------------------------- abuse experiment
def test_abuse_cells_cover_all_scenarios_and_arms():
    cs = abuse.cells(seed=1, smoke=True)
    assert len(cs) == len(abuse.SCENARIOS) * len(abuse.ARMS)
    keys = {c.key for c in cs}
    assert ("pool-squat", "on") in keys and ("airtime-hog", "none") in keys


def test_abuse_smoke_scorecard_contains_all_attacks():
    data = abuse.run(seed=1, jobs=0, smoke=True)
    report = abuse.report(data)
    # Pinned report (rule: the digest may change only in a change whose
    # CHANGES.md entry names this experiment and why its output moved).
    assert hashlib.sha256(report.encode()).hexdigest() == (
        "a14749a794d624db5353a280a834f723b0497c4f8d6603bb0a55ff7bf744eee4"
    )
    assert "attack classes contained" in report
    for scenario in abuse.SCENARIOS:
        assert scenario in report
    # every attacked arm identifies its offender from one snapshot
    for scenario in abuse.SCENARIOS:
        off = data[(scenario, "off")]
        resource = abuse.ATTRIBUTED_RESOURCE[scenario]
        assert off["offenders"][resource][0] == abuse.ADVERSARY_APP[scenario]
        assert off["adversary_actions"] > 0
        on = data[(scenario, "on")]
        assert on["availability"] >= 0.99


# ------------------------------------------------- fair-share properties
@st.composite
def _tenant_workloads(draw):
    """Random tenant population: weights, per-tenant flow sizes, cap."""
    n = draw(st.integers(min_value=2, max_value=4))
    weights = [draw(st.floats(min_value=0.5, max_value=4.0)) for _ in range(n)]
    flows = [
        [
            draw(st.floats(min_value=10_000.0, max_value=400_000.0))
            for _ in range(draw(st.integers(min_value=1, max_value=3)))
        ]
        for _ in range(n)
    ]
    cap = draw(
        st.one_of(st.none(), st.floats(min_value=0.25, max_value=1.0))
    )
    return weights, flows, cap


@settings(max_examples=60, deadline=None)
@given(_tenant_workloads())
def test_capped_fair_share_conserves_airtime_and_floors_goodput(workload):
    """The two guarantees the enforcement arm rests on.

    1. Conservation: each tenant's delivered bytes equal ``BPS`` times
       its accounted airtime, and the accounted airtime never exceeds
       the makespan (the medium is never over-allocated).
    2. Weighted-share floor: under water-filling every tenant holds at
       least ``min(cap, w_i / W)`` of the medium while active, so its
       flows drain no later than ``bytes / (BPS * floor_share)`` —
       an honest tenant's goodput never falls below its weighted share
       no matter what the other tenants do.
    """
    weights, flows, cap = workload
    env = Environment()
    TenancyManager(
        env,
        TenancyConfig(
            airtime_cap=cap,
            airtime_weights={f"t{i}": w for i, w in enumerate(weights)},
        ),
    )
    channel = FluidChannel(env)
    done_at = {}
    for i, sizes in enumerate(flows):
        for flow_index, size in enumerate(sizes):
            flow = channel.add(size, BPS, tenant=f"t{i}")
            flow.done.add_callback(
                lambda _ev, i=i: done_at.__setitem__(
                    i, max(done_at.get(i, 0.0), env.now)
                )
            )
    env.run()
    makespan = env.now
    total_weight = sum(weights)
    total_airtime = 0.0
    for i, sizes in enumerate(flows):
        airtime = env.tenancy.usage("airtime_s", f"t{i}")
        total_airtime += airtime
        # conservation: bytes delivered == BPS x accounted airtime
        assert sum(sizes) == pytest.approx(BPS * airtime, rel=1e-6)
        # weighted-share floor on completion time
        floor_share = weights[i] / total_weight
        if cap is not None:
            floor_share = min(cap, floor_share)
        bound = sum(sizes) / (BPS * floor_share)
        assert done_at[i] <= bound * (1 + 1e-6)
    # the medium is never over-allocated
    assert total_airtime <= makespan * (1 + 1e-6)


def test_abuse_cell_deterministic():
    a = abuse._abuse_cell("permission-storm", "on", seed=7, smoke=True)
    b = abuse._abuse_cell("permission-storm", "on", seed=7, smoke=True)
    a.pop("snapshot"), b.pop("snapshot")
    assert a == b
