"""Tests for warehouse, container DB, scheduler, shared layer, access control."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.android import build_android_image, customize_os
from repro.hostos import CloudServer
from repro.platform import (
    AppWarehouse,
    ContainerDB,
    MonitorScheduler,
    OffloadingIOLayer,
    RequestAccessController,
    SharedResourceLayer,
)
from repro.platform.access import FORBIDDEN_OPERATIONS
from repro.runtime import AndroidVM
from repro.sim import Environment

MB = 1024 * 1024


# -------------------------------------------------------------- warehouse
def test_warehouse_miss_then_hit():
    wh = AppWarehouse()
    assert wh.lookup("ocr") is None
    assert wh.misses == 1
    wh.store("ocr", 1_400_000, now=5.0)
    entry = wh.lookup("ocr")
    assert entry is not None
    assert entry.aid == "ocr"
    assert entry.hits == 1
    assert wh.hit_rate == pytest.approx(0.5)


def test_warehouse_reference_stable_and_distinct():
    wh = AppWarehouse()
    assert wh.reference_for("ocr") == wh.reference_for("ocr")
    assert wh.reference_for("ocr") != wh.reference_for("chess")
    assert wh.reference_for("ocr", "op1") != wh.reference_for("ocr", "op2")


def test_warehouse_duplicate_store_rejected():
    wh = AppWarehouse()
    wh.store("ocr", 100)
    with pytest.raises(ValueError):
        wh.store("ocr", 100)


def test_warehouse_negative_size_rejected():
    with pytest.raises(ValueError):
        AppWarehouse().store("x", -1)


def test_warehouse_cid_mapping():
    wh = AppWarehouse()
    wh.store("chess", 2_130_000)
    wh.register_execution("chess", "cid-1")
    wh.register_execution("chess", "cid-2")
    wh.register_execution("chess", "cid-1")  # idempotent
    assert wh.containers_for("chess") == ["cid-1", "cid-2"]
    assert wh.lookup("chess").index == 2
    assert wh.containers_for("ghost") == []


def test_warehouse_register_unknown_app_rejected():
    with pytest.raises(KeyError):
        AppWarehouse().register_execution("ghost", "cid-1")


def test_warehouse_evict():
    wh = AppWarehouse()
    wh.store("ocr", 100)
    wh.evict("ocr")
    assert not wh.has_code("ocr")
    assert wh.lookup("ocr") is None
    with pytest.raises(KeyError):
        wh.evict("ocr")


def test_warehouse_lru_eviction_order():
    # Capacity fits three entries; touching "a" must spare it so the
    # least-recently-used "b" is evicted first, then "c".
    wh = AppWarehouse(capacity_bytes=300)
    wh.store("a", 100)
    wh.store("b", 100)
    wh.store("c", 100)
    assert wh.lookup("a") is not None  # refresh "a"
    wh.store("d", 100)  # evicts "b"
    assert wh.has_code("a") and wh.has_code("c") and wh.has_code("d")
    assert not wh.has_code("b")
    assert wh.evictions == 1
    wh.store("e", 200)  # evicts "c" then "a" (in LRU order)
    assert not wh.has_code("c") and not wh.has_code("a")
    assert wh.has_code("d") and wh.has_code("e")
    assert wh.evictions == 3
    assert wh.total_code_bytes() == 300


def test_warehouse_total_bytes_and_len():
    wh = AppWarehouse()
    wh.store("a", 100)
    wh.store("b", 200)
    assert wh.total_code_bytes() == 300
    assert len(wh) == 2


@given(st.lists(st.text(alphabet="abcxyz", min_size=1, max_size=6), unique=True,
                max_size=20))
def test_warehouse_property_store_then_always_hit(apps):
    wh = AppWarehouse()
    for app in apps:
        assert wh.lookup(app) is None
        wh.store(app, 10)
    for app in apps:
        assert wh.lookup(app) is not None
    # misses == number of distinct apps, hits cover the second sweep.
    assert wh.misses == len(apps)


# ------------------------------------------------------------ container db
def _server():
    env = Environment()
    return CloudServer(env)


def _owned_by_scan(db, device):
    """Reference for ``by_device``: a scan in registration order."""
    return [r for r in db.all_records() if r.owner_device == device]


def test_db_by_device_keeps_registration_order():
    server = _server()
    db = ContainerDB()
    owners = ["d0", "d1", "d0", "", "d0"]
    recs = [
        db.register(AndroidVM(server, db.new_cid()), owner_device=o, now=1.0)
        for o in owners
    ]
    assert db.by_device("d0") == [recs[0], recs[2], recs[4]]
    db.unregister(recs[2].cid)
    assert db.by_device("d0") == [recs[0], recs[4]]
    db.unregister(recs[2].cid)  # idempotent
    db.unregister(recs[1].cid)
    assert db.by_device("d1") == []
    # Re-registering a runtime puts it last, as a fresh registration.
    again = db.register(recs[2].runtime, owner_device="d0", now=2.0)
    assert db.by_device("d0") == [recs[0], recs[4], again]
    for device in ("d0", "d1", "", "d9"):
        assert db.by_device(device) == _owned_by_scan(db, device)
    # The returned list is a copy: editing it leaves the index alone.
    db.by_device("d0").clear()
    assert len(db.by_device("d0")) == 3


def test_db_by_device_across_migration():
    from repro.network import make_link
    from repro.offload import OffloadRequest
    from repro.platform import MigrationManager, RattrapPlatform
    from repro.workloads import CHESS_GAME

    env = Environment()
    src, dst = RattrapPlatform(env), RattrapPlatform(env)
    link = make_link("lan-wifi")
    served = env.run(until=src.submit(OffloadRequest(0, "d0", "chess", CHESS_GAME), link))
    env.run(until=dst.submit(OffloadRequest(1, "d0", "chess", CHESS_GAME), link))
    [before] = dst.db.by_device("d0")
    record = src.db.get(served.executed_on)
    report = env.run(until=env.process(MigrationManager().migrate(record, src, dst)))
    moved = dst.db.get(report.new_cid)
    # Migration re-registers under the same owner: last in the order.
    assert dst.db.by_device("d0") == [before, moved]
    # The stopped source record stays listed until it is unregistered.
    assert src.db.by_device("d0") == [record]
    src.db.unregister(record.cid)
    assert src.db.by_device("d0") == []
    for db in (src.db, dst.db):
        assert db.by_device("d0") == _owned_by_scan(db, "d0")
    # The dispatcher takes the first live record of the device.
    assert dst.dispatcher._record_for_key("d0") is before


def test_db_register_and_queries():
    server = _server()
    db = ContainerDB()
    vm = AndroidVM(server, db.new_cid())
    rec = db.register(vm, owner_device="device-0", now=1.0)
    assert db.exists(rec.cid)
    assert db.get(rec.cid) is rec
    assert db.by_device("device-0") == [rec]
    assert len(db) == 1
    with pytest.raises(ValueError):
        db.register(vm)
    with pytest.raises(KeyError):
        db.get("cid-999")


def test_db_with_app_requires_ready_runtime():
    server = _server()
    env = server.env
    db = ContainerDB()
    vm = AndroidVM(server, db.new_cid())
    db.register(vm)
    vm.mark_loaded("ocr")
    assert db.with_app("ocr") == []  # not booted yet
    env.run(until=env.process(vm.boot()))
    assert len(db.with_app("ocr")) == 1


def test_db_request_accounting():
    server = _server()
    db = ContainerDB()
    vm = AndroidVM(server, db.new_cid())
    rec = db.register(vm)
    db.begin_request(rec.cid)
    db.begin_request(rec.cid)
    assert rec.active_requests == 2
    assert rec.total_requests == 2
    db.end_request(rec.cid)
    assert rec.active_requests == 1
    db.end_request(rec.cid)
    with pytest.raises(ValueError):
        db.end_request(rec.cid)


def test_db_resource_totals_follow_lifecycle():
    server = _server()
    env = server.env
    db = ContainerDB()
    vm = AndroidVM(server, db.new_cid())
    db.register(vm)
    assert db.total_memory_mb() == 0  # CREATED not counted
    env.run(until=env.process(vm.boot()))
    assert db.total_memory_mb() == 512.0
    vm.stop()
    assert db.total_memory_mb() == 0


# --------------------------------------------------------------- scheduler
def test_scheduler_tracks_concurrency():
    server = _server()
    env = server.env
    db = ContainerDB()
    sched = MonitorScheduler(env, db)
    vm = AndroidVM(server, db.new_cid())
    rec = db.register(vm)
    sched.request_started(rec.cid)
    sched.request_started(rec.cid)
    assert sched.active_requests == 2
    assert sched.peak_active == 2
    sched.request_finished(rec.cid)
    assert sched.active_requests == 1


def test_scheduler_picks_least_loaded():
    server = _server()
    env = server.env
    db = ContainerDB()
    sched = MonitorScheduler(env, db)
    vms = [AndroidVM(server, db.new_cid()) for _ in range(3)]
    recs = [db.register(vm) for vm in vms]
    for vm in vms:
        env.run(until=env.process(vm.boot()))
    sched.request_started(recs[0].cid)
    sched.request_started(recs[0].cid)
    sched.request_started(recs[1].cid)
    pick = sched.pick_least_loaded(recs)
    assert pick is recs[2]
    assert sched.pick_least_loaded([]) is None


def test_scheduler_tie_break_prefers_warmer():
    server = _server()
    env = server.env
    db = ContainerDB()
    sched = MonitorScheduler(env, db)
    vms = [AndroidVM(server, db.new_cid()) for _ in range(2)]
    recs = [db.register(vm) for vm in vms]
    for vm in vms:
        env.run(until=env.process(vm.boot()))
    recs[1].total_requests = 5
    assert sched.pick_least_loaded(recs) is recs[1]


# ------------------------------------------------------------ shared layer
def test_offloading_io_layer_stage_and_burn():
    server = _server()
    io = OffloadingIOLayer(server.tmpfs)
    io.stage("req-1", 1000, now=1.0)
    io.stage("req-2", 500)
    assert io.resident_bytes == 1500
    assert server.tmpfs.bytes_stored == 1500
    assert io.staged_requests() == ["req-1", "req-2"]
    assert io.burn("req-1") == 1000
    assert io.resident_bytes == 500
    assert server.tmpfs.bytes_stored == 500
    assert io.total_staged == 1500
    assert io.total_burned == 1000


def test_offloading_io_layer_validation():
    server = _server()
    io = OffloadingIOLayer(server.tmpfs)
    with pytest.raises(ValueError):
        io.stage("r", -1)
    io.stage("r", 10)
    with pytest.raises(ValueError):
        io.stage("r", 10)
    with pytest.raises(KeyError):
        io.burn("ghost")


def test_offloading_io_zero_byte_requests():
    server = _server()
    io = OffloadingIOLayer(server.tmpfs)
    io.stage("r", 0)
    assert io.burn("r") == 0


def test_offloading_io_dedup_shares_physical_copy():
    server = _server()
    io = OffloadingIOLayer(server.tmpfs)
    assert io.stage("req-1", 1000, digest="sig-db") is True  # materialized
    assert io.stage("req-2", 1000, digest="sig-db") is False  # hit
    assert io.resident_bytes == 1000  # one physical copy
    assert server.tmpfs.bytes_stored == 1000
    assert io.total_staged == 2000  # logical accounting is per request
    assert io.dedup_hits == 1
    assert io.dedup_bytes_saved == 1000
    assert io.layer.nlink("/offload/sig-db") == 2


def test_offloading_io_dedup_frees_on_last_burn():
    server = _server()
    io = OffloadingIOLayer(server.tmpfs)
    io.stage("req-1", 1000, digest="sig-db")
    io.stage("req-2", 1000, digest="sig-db")
    assert io.burn("req-1") == 1000
    # First burn drops a reference, not the bytes.
    assert io.resident_bytes == 1000
    assert server.tmpfs.bytes_stored == 1000
    assert io.layer.nlink("/offload/sig-db") == 1
    assert io.burn("req-2") == 1000
    assert io.resident_bytes == 0
    assert server.tmpfs.bytes_stored == 0
    assert io.layer.nlink("/offload/sig-db") == 0
    assert io.total_burned == io.total_staged == 2000


def test_offloading_io_digest_size_mismatch_rejected():
    server = _server()
    io = OffloadingIOLayer(server.tmpfs)
    io.stage("a", 1000, digest="d")
    with pytest.raises(ValueError, match="digest"):
        io.stage("b", 999, digest="d")


def test_offloading_io_without_digest_stays_private():
    server = _server()
    io = OffloadingIOLayer(server.tmpfs)
    io.stage("a", 1000)
    io.stage("b", 1000)  # same size, but no digest: never shared
    assert io.resident_bytes == 2000
    assert io.dedup_hits == 0
    assert io.dedup_bytes_saved == 0


def test_shared_resource_layer_accounts_base_once():
    server = _server()
    custom = customize_os(build_android_image())
    srl = SharedResourceLayer(server, custom)
    assert server.disk.bytes_stored == srl.base_bytes
    assert srl.base_bytes == pytest.approx(274 * MB, abs=1)
    # Fleet disk: Table I — one base + N x 7.1 MB.
    fleet = srl.fleet_disk_bytes(int(7.1 * MB), 10)
    assert fleet == srl.base_bytes + 10 * int(7.1 * MB)
    # vs 10 full VM images (1.1 GB each): >= 79 % saved.
    assert 1 - fleet / (10 * 1126.4 * MB) >= 0.79
    srl.release()
    assert server.disk.bytes_stored == 0
    srl.release()  # idempotent
    with pytest.raises(ValueError):
        srl.fleet_disk_bytes(-1, 1)


# ------------------------------------------------------------------ access
def test_access_admit_generates_table_once():
    ac = RequestAccessController()
    d1 = ac.admit("ocr", now=1.0)
    assert d1.allowed
    assert ac.analyses == 1
    assert not ac.analysis_needed("ocr")
    ac.admit("ocr")
    assert ac.analyses == 1  # shared table, analyzed once
    table = ac.table_for("ocr")
    assert table.allows("cpu.execute")
    assert not table.allows("kernel.module_load")


def test_access_violations_block_after_threshold():
    ac = RequestAccessController(violation_threshold=3)
    ac.admit("malware")
    for i in range(2):
        decision = ac.filter_operation("malware", "devns.escape")
        assert not decision.allowed
        assert not ac.is_blocked("malware")
    decision = ac.filter_operation("malware", "warehouse.poison")
    assert not decision.allowed
    assert ac.is_blocked("malware")
    assert ac.blocked_apps() == ["malware"]
    # Subsequent requests from this app are refused at admission.
    assert not ac.admit("malware").allowed


def test_access_granted_operations_pass():
    ac = RequestAccessController()
    ac.admit("ocr")
    assert ac.filter_operation("ocr", "cpu.execute").allowed
    assert ac.filter_operation("ocr", "fs.offload_read").allowed
    assert ac.table_for("ocr").violations == 0


def test_access_ungranted_known_permission_is_violation():
    ac = RequestAccessController()
    ac.admit("ocr", requested_permissions=frozenset({"cpu.execute"}))
    assert not ac.filter_operation("ocr", "net.outbound").allowed
    assert ac.table_for("ocr").violations == 1


def test_access_filter_without_admit_rejected():
    ac = RequestAccessController()
    with pytest.raises(KeyError):
        ac.filter_operation("ghost", "cpu.execute")


def test_access_unblock_resets():
    ac = RequestAccessController(violation_threshold=1)
    ac.admit("app")
    ac.filter_operation("app", "devns.escape")
    assert ac.is_blocked("app")
    ac.unblock("app")
    assert not ac.is_blocked("app")
    assert ac.table_for("app").violations == 0
    assert ac.admit("app").allowed


def test_access_validation():
    with pytest.raises(ValueError):
        RequestAccessController(violation_threshold=0)
    with pytest.raises(ValueError):
        RequestAccessController(analysis_time_s=-1)


def test_forbidden_operations_never_grantable():
    ac = RequestAccessController()
    ac.admit("sneaky", requested_permissions=FORBIDDEN_OPERATIONS)
    table = ac.table_for("sneaky")
    for op in FORBIDDEN_OPERATIONS:
        assert not table.allows(op)


def test_warehouse_capacity_lru_eviction():
    wh = AppWarehouse(capacity_bytes=1000)
    wh.store("a", 400)
    wh.store("b", 400)
    wh.lookup("a")  # a becomes most-recently-used
    wh.store("c", 400)  # evicts b (LRU)
    assert wh.has_code("a") and wh.has_code("c")
    assert not wh.has_code("b")
    assert wh.evictions == 1
    assert wh.total_code_bytes() <= 1000


def test_warehouse_oversized_entry_rejected():
    wh = AppWarehouse(capacity_bytes=100)
    with pytest.raises(ValueError, match="exceeds"):
        wh.store("big", 200)
    with pytest.raises(ValueError):
        AppWarehouse(capacity_bytes=0)


def test_warehouse_eviction_forces_reupload_end_to_end():
    from repro.network import make_link
    from repro.offload import OffloadRequest
    from repro.platform import RattrapPlatform
    from repro.sim import Environment
    from repro.workloads import CHESS_GAME

    env = Environment()
    plat = RattrapPlatform(env)
    # Tiny warehouse: ChessGame's 2.1 MB code fits, nothing else with it.
    plat.warehouse = AppWarehouse(capacity_bytes=3 * 1024 * 1024)
    plat.dispatcher.warehouse = plat.warehouse
    link = make_link("lan-wifi")
    r1 = env.run(until=plat.submit(OffloadRequest(0, "d0", "chess", CHESS_GAME), link))
    assert not r1.code_cache_hit
    plat.warehouse.evict("chess")
    r2 = env.run(until=plat.submit(
        OffloadRequest(1, "d0", "chess", CHESS_GAME, seq_on_device=1), link))
    assert not r2.code_cache_hit  # had to re-upload after eviction
