"""Tests for the content-addressed compute-result cache.

Covers the node tier (LRU + byte budget, cost-aware admission), the
cluster tier (rendezvous ownership, cross-node hits, bounded mirror),
the serve-path integration (hit skips execute, spans still tile,
affinity survives hit-only sessions), tenancy quotas and the
hypothesis property that a hit never changes the observable result.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faults import CacheSquatter
from repro.network import make_link
from repro.obs import Observability
from repro.offload import Phase
from repro.offload.request import OffloadRequest
from repro.platform import ClusterPlatform, RattrapPlatform, TenancyManager
from repro.platform.compute_cache import (
    ClusterCacheDirectory,
    ComputeCacheConfig,
    ComputeResultCache,
    rendezvous_owner,
)
from repro.platform.tenancy import TenancyConfig
from repro.sim import Environment
from repro.workloads import CHESS_GAME, OCR, VIRUS_SCAN

KB = 1024


def _req(i, digest, app="scan", device=None, profile=OCR, version="v1"):
    return OffloadRequest(
        request_id=i,
        device_id=device or f"d{i}",
        app_id=app,
        profile=profile,
        payload_digest=digest,
        code_version=version,
    )


def _greedy():
    """Admit-everything config for tests that target LRU mechanics."""
    return ComputeCacheConfig(capacity_bytes=100 * KB, adaptive=False)


# ------------------------------------------------------------------ keys
def test_key_covers_app_version_and_digest():
    a = ComputeResultCache.key_for(_req(0, "x"))
    b = ComputeResultCache.key_for(_req(1, "x", version="v2"))
    c = ComputeResultCache.key_for(_req(2, "y"))
    d = ComputeResultCache.key_for(_req(3, "x", app="ocr"))
    assert len({a, b, c, d}) == 4  # any component change is a new key


def test_payload_digest_auto_computed_from_profile_identity():
    # A profile naming its payload (the shared virus database) gives
    # every request content identity without opt-in at call sites...
    scan = OffloadRequest(0, "d0", "scan", VIRUS_SCAN)
    assert scan.payload_digest == VIRUS_SCAN.payload_key == "virus-db-v1"
    # ...while payload-unique profiles stay uncacheable by default.
    ocr = OffloadRequest(1, "d1", "ocr", OCR)
    assert ocr.payload_digest is None
    assert ComputeResultCache.key_for(ocr) is None
    # An explicit digest always wins over the profile identity.
    explicit = OffloadRequest(2, "d2", "scan", VIRUS_SCAN, payload_digest="mine")
    assert explicit.payload_digest == "mine"


# ------------------------------------------------------- node tier: LRU
def test_lru_eviction_respects_byte_budget_and_recency():
    cache = ComputeResultCache(_greedy())
    for i, digest in enumerate(("a", "b", "c")):
        assert cache.offer(_req(i, digest), execute_s=1.0, nbytes=30 * KB)
    assert cache.total_bytes == 90 * KB and len(cache) == 3
    # Touch "a" so "b" becomes the least recently used...
    assert cache.lookup(_req(10, "a")) is not None
    # ...then a fourth entry must evict exactly "b" to fit the budget.
    assert cache.offer(_req(11, "d"), execute_s=1.0, nbytes=30 * KB)
    assert ("scan", "v1", "b") not in cache
    for digest in ("a", "c", "d"):
        assert ("scan", "v1", digest) in cache
    assert cache.total_bytes == 90 * KB
    assert cache.evictions == 1 and cache.evicted_bytes == 30 * KB


def test_oversized_and_duplicate_offers_rejected():
    cache = ComputeResultCache(_greedy())
    assert not cache.offer(_req(0, "big"), execute_s=1.0, nbytes=101 * KB)
    assert cache.rejected == 1 and len(cache) == 0
    assert cache.offer(_req(1, "x"), execute_s=1.0, nbytes=KB)
    assert not cache.offer(_req(2, "x"), execute_s=1.0, nbytes=KB)
    assert cache.stores == 1


# ------------------------------------------------- cost-aware admission
def test_adaptive_admission_self_primes_via_ghost_list():
    cache = ComputeResultCache(ComputeCacheConfig(repeat_alpha=0.3))
    request = _req(0, "x")
    # Never-seen app: repeat probability 0, expected saving 0 — reject.
    assert not cache.offer(request, execute_s=5.0, nbytes=1 * KB)
    assert cache.rejected == 1
    # First lookup ghosts the key (still a miss, p stays 0)...
    assert cache.lookup(request) is None
    assert cache.repeat_probability("scan") == 0.0
    # ...the second sighting raises the EWMA, and the offer now clears
    # the residency bar (5 s x 0.3 >> 0.05 s/MB x 1 KB).
    assert cache.lookup(request) is None
    assert cache.repeat_probability("scan") == pytest.approx(0.3)
    assert cache.offer(request, execute_s=5.0, nbytes=1 * KB)
    assert cache.lookup(request) is not None


def test_adaptive_admission_rejects_cheap_bulky_results():
    cache = ComputeResultCache(ComputeCacheConfig(repeat_alpha=1.0))
    request = _req(0, "x")
    cache.lookup(request)
    cache.lookup(request)  # repeat probability now 1.0
    # 1 ms of compute saved does not pay for 50 MB of residency.
    assert not cache.offer(request, execute_s=0.001, nbytes=50 * 1024 * KB)
    assert cache.offer(request, execute_s=10.0, nbytes=50 * KB)


def test_ghost_list_is_bounded():
    cache = ComputeResultCache(
        ComputeCacheConfig(ghost_entries=4, adaptive=True)
    )
    for i in range(20):
        cache.lookup(_req(i, f"unique-{i}"))
    assert len(cache._ghosts) == 4


# ------------------------------------------------- cluster tier: routing
def test_rendezvous_owner_stable_under_membership_change():
    keys = [("app", "v1", f"digest-{i}") for i in range(200)]
    three = {k: rendezvous_owner(range(3), k) for k in keys}
    # Growing the fleet only remaps keys the new node now wins...
    four = {k: rendezvous_owner(range(4), k) for k in keys}
    moved = [k for k in keys if four[k] != three[k]]
    assert all(four[k] == 3 for k in moved)
    assert 0 < len(moved) < len(keys) // 2  # ~1/4 expected, never a reshuffle
    # ...and shrinking only remaps the keys the lost node owned.
    two = {k: rendezvous_owner(range(2), k) for k in keys}
    for k in keys:
        if three[k] != 2:
            assert two[k] == three[k]
    with pytest.raises(ValueError):
        rendezvous_owner([], keys[0])


def test_cluster_directory_cross_node_hit_and_bounded_mirror():
    cfg = ComputeCacheConfig(adaptive=False, mirror_entries=2)
    caches = [ComputeResultCache(cfg) for _ in range(3)]
    directory = ClusterCacheDirectory(caches)
    request = _req(0, "shared")
    key = ComputeResultCache.key_for(request)
    owner = directory.owner_index(key)
    # An offer from any node lands on the digest's owning node.
    asker = (owner + 1) % 3
    assert caches[asker].offer(request, execute_s=1.0, nbytes=KB)
    assert key in caches[owner]
    # A lookup from a third node resolves through the directory...
    other = (owner + 2) % 3
    assert caches[other].lookup(_req(1, "shared")) is not None
    assert caches[other].cluster_hits == 1
    assert directory.remote_lookups >= 1
    # ...and repeats are served from the local mirror, not the wire.
    assert caches[other].lookup(_req(2, "shared")) is not None
    assert caches[other].mirror_hits == 1
    # The mirror is bounded: hot remote entries rotate through it.
    for i, digest in enumerate(("m1", "m2", "m3", "m4")):
        r = _req(10 + i, digest)
        k = ComputeResultCache.key_for(r)
        target = directory.owner_index(k)
        caches[target]._store(k, "scan", KB, 1.0, 0.0)
        if target != other:
            caches[other].lookup(r)
    assert len(caches[other]._mirror) <= 2
    assert directory.stats()["hits"] == sum(c.hits for c in caches)


# -------------------------------------------------- serve-path semantics
def _serve(platform, request):
    return platform.env.run(until=platform.submit(request, make_link("lan-wifi")))


def test_serve_path_hit_skips_execute_and_spans_still_tile():
    env = Environment()
    obs = Observability(env)
    plat = RattrapPlatform(env, optimized=True)
    plat.enable_compute_cache(ComputeCacheConfig(adaptive=False))
    r1 = _serve(plat, OffloadRequest(0, "d0", "scan", VIRUS_SCAN))
    r2 = _serve(plat, OffloadRequest(1, "d1", "scan", VIRUS_SCAN))
    assert not r1.result_cache_hit and r2.result_cache_hit
    # The hit's whole execution phase is the constant cache-serve cost.
    assert r2.phase(Phase.EXECUTION) == pytest.approx(
        plat.compute_cache.cfg.hit_s
    )
    assert r2.response_time < r1.response_time
    # Phase spans — with "cache_hit" standing in for "execute" — still
    # tile the two responses exactly.
    assert obs.tracer.phase_total_s() == pytest.approx(
        r1.response_time + r2.response_time, rel=1e-9
    )
    assert sum(1 for s in obs.tracer.spans if s.kind == "cache_hit") == 1
    # Identical observable result: the device downloads the same bytes.
    # (bytes_up legitimately differs — r1 carried the app code.)
    assert r2.bytes_down == r1.bytes_down


def test_hit_still_binds_app_affinity():
    # Regression: a hit skips _execute, but must still register the
    # runtime as the app's affinity target — otherwise every hit-only
    # session cold-boots a fresh container.
    env = Environment()
    plat = RattrapPlatform(env, optimized=True, dispatch_policy="app-affinity")
    plat.enable_compute_cache(ComputeCacheConfig(adaptive=False))
    for i in range(4):
        _serve(plat, OffloadRequest(i, f"d{i}", "scan", VIRUS_SCAN))
    assert plat.runtime_count() == 1
    assert plat.compute_cache.hits == 3


def test_cluster_hit_waits_for_in_flight_code_upload():
    # Regression: a cluster-tier hit landing on a node whose first
    # upload of the app's code is still in flight must wait for that
    # upload before binding the app, exactly like a cold code load —
    # registering earlier raised KeyError("no preserved code").
    env = Environment()
    obs = Observability(env)
    cluster = ClusterPlatform(env, servers=2)
    cluster.enable_compute_cache(ComputeCacheConfig(adaptive=False))
    home, other = cluster.nodes
    link = make_link("lan-wifi")
    # The result for digest "x" is computed (and offered) on one node.
    r0 = _serve(home, _req(0, "x", profile=VIRUS_SCAN))
    # On the other node, d1 reserves and starts uploading the code;
    # d2 follows, skips the upload and hits "x" through the directory
    # while d1's code is still on the wire.
    carrier = other.submit(_req(1, "y", profile=VIRUS_SCAN), link)
    env.run(until=env.now + 0.1)
    hitter = other.submit(_req(2, "x", profile=VIRUS_SCAN), link)
    env.run(until=env.all_of([carrier, hitter]))
    r1, r2 = carrier.value, hitter.value
    assert not r1.code_cache_hit and r2.code_cache_hit
    assert r2.result_cache_hit and not r1.result_cache_hit
    # The hit returned only after the code landed and was registered.
    assert other.warehouse.containers_for("scan") == sorted(
        {r1.executed_on, r2.executed_on}
    )
    assert r2.phase(Phase.EXECUTION) > other.compute_cache.cfg.hit_s
    # The wait sits inside the cache_hit span: spans still tile.
    assert obs.tracer.phase_total_s() == pytest.approx(
        sum(r.response_time for r in (r0, r1, r2)), rel=1e-9
    )


def test_requests_with_operations_always_execute():
    # Declared workflow operations must pass the access filter, so the
    # serve path never shortcuts them through the cache.
    env = Environment()
    plat = RattrapPlatform(env, optimized=True)
    plat.enable_compute_cache(ComputeCacheConfig(adaptive=False))
    for i in range(2):
        result = _serve(
            plat,
            OffloadRequest(
                i, f"d{i}", "scan", VIRUS_SCAN, operations=("net.outbound",)
            ),
        )
        assert not result.result_cache_hit
    assert plat.compute_cache.lookups == 0


# ------------------------------------------------------------- tenancy
def test_tenant_quota_burns_own_oldest_never_a_neighbour():
    env = Environment()
    tenancy = TenancyManager(env, TenancyConfig(cache_quota_bytes=60 * KB))
    cache = ComputeResultCache(_greedy()).bind_env(env)
    assert cache.offer(_req(0, "v", app="victim"), execute_s=1.0, nbytes=20 * KB)
    for i, digest in enumerate(("a1", "a2", "a3")):
        assert cache.offer(
            _req(1 + i, digest, app="hog"), execute_s=1.0, nbytes=30 * KB
        )
    # The hog's third store burned its own oldest entry ("a1"); the
    # victim's entry survived even though it is the global LRU.
    assert ("hog", "v1", "a1") not in cache
    assert ("victim", "v1", "v") in cache
    assert cache.tenant_bytes("hog") == 60 * KB
    # Ledger rolls: gauge tracks residency, counter the burned bytes.
    assert tenancy.usage("cache_bytes", "hog") == 60 * KB
    assert tenancy.usage("cache_evicted_bytes", "hog") == 30 * KB
    assert tenancy.usage("cache_bytes", "victim") == 20 * KB
    # A single result larger than the quota is rejected outright.
    assert not cache.offer(_req(9, "huge", app="hog"), execute_s=1.0, nbytes=61 * KB)


def test_cache_hits_roll_into_tenant_ledger():
    env = Environment()
    tenancy = TenancyManager(env)
    cache = ComputeResultCache(_greedy()).bind_env(env)
    cache.offer(_req(0, "x"), execute_s=1.0, nbytes=KB)
    cache.lookup(_req(1, "x"))
    cache.lookup(_req(2, "x"))
    assert tenancy.usage("cache_hits", "scan") == 2.0


def test_cache_squatter_contained_by_quota():
    env = Environment()
    TenancyManager(env, TenancyConfig(cache_quota_bytes=64 * KB))
    cache = ComputeResultCache(
        ComputeCacheConfig(capacity_bytes=128 * KB, adaptive=False)
    ).bind_env(env)
    victim = _req(0, "db", app="victim")
    assert cache.offer(victim, execute_s=2.0, nbytes=30 * KB)
    attacker = CacheSquatter("spam", OCR.derive("spam", cloud_cpu_s=1.0))
    # Forge the squatter's loop by hand: unique digests, inflated cost.
    for i in range(20):
        forged = _req(100 + i, f"squat-{i}", app="spam")
        cache.lookup(forged)
        cache.lookup(forged)
        cache.offer(forged, execute_s=attacker.execute_s, nbytes=32 * KB)
    # The squatter holds at most its quota and the victim entry stays.
    assert cache.tenant_bytes("spam") <= 64 * KB
    assert cache.lookup(_req(999, "db", app="victim")) is not None


# ------------------------------------------------------- reproducibility
def test_cachebench_cells_identical_serial_and_parallel():
    from repro.experiments import cachebench

    def strip_wall(data):
        # wall_s is host wall-clock — everything else must be identical
        return {
            key: {f: v for f, v in cell.items() if f != "wall_s"}
            for key, cell in data.items()
        }

    assert strip_wall(cachebench.run(seed=1, jobs=2, smoke=True)) == strip_wall(
        cachebench.run(seed=1, jobs=0, smoke=True)
    )


@settings(max_examples=12, deadline=None)
@given(
    digests=st.lists(
        st.sampled_from(["a", "b", "c", None]), min_size=1, max_size=6
    )
)
def test_hit_never_changes_observable_result(digests):
    # Property: for any request sequence, serving with the cache
    # changes *when* results arrive, never *what* arrives — and the
    # conserved totals (requests served, bytes moved) are identical.
    def run(with_cache):
        env = Environment()
        plat = RattrapPlatform(env, optimized=True)
        if with_cache:
            plat.enable_compute_cache(ComputeCacheConfig(adaptive=False))
        out = []
        for i, digest in enumerate(digests):
            out.append(
                _serve(
                    plat,
                    OffloadRequest(
                        i, f"d{i}", "chess", CHESS_GAME, payload_digest=digest
                    ),
                )
            )
        return out

    cached, plain = run(True), run(False)
    assert len(cached) == len(plain)
    for c, p in zip(cached, plain):
        assert (c.bytes_up, c.bytes_down, c.blocked) == (
            p.bytes_up,
            p.bytes_down,
            p.blocked,
        )
        assert c.response_time <= p.response_time + 1e-9
    assert sum(c.bytes_down for c in cached) == sum(p.bytes_down for p in plain)
