"""Unit tests for KRCORE's internal components: the hybrid pool, the
meta server/client, ValidMR/MRStore, and wr_id token encoding."""

import time
import tracemalloc

import pytest

from repro.cluster import Cluster, timing
from repro.krcore import KrcoreError, KrcoreLib
from repro.krcore.meta import MetaClient, MetaServer, dct_key
from repro.krcore.mrstore import MrStore, ValidMr
from repro.krcore.pool import HybridQpPool
from repro.krcore.vqp import Vqp
from repro.kvs import RecordTooLargeError
from repro.sim import MS, Simulator
from repro.verbs import RecvBuffer, WorkRequest
from tests.conftest import krcore_cluster, quick_dc_qp, quick_rc_pair


# ---------------------------------------------------------------------------
# HybridQpPool
# ---------------------------------------------------------------------------


def _pool(sim, cluster, dc_count=2, max_rc=2):
    dc_qps = [quick_dc_qp(cluster.node(0)) for _ in range(dc_count)]
    return HybridQpPool(sim, cpu_id=0, dc_qps=dc_qps, max_rc=max_rc)


def test_pool_round_robins_dc(sim):
    cluster = Cluster(sim, num_nodes=1)
    pool = _pool(sim, cluster, dc_count=3)
    picks = [pool.select_dc() for _ in range(6)]
    assert picks[:3] == picks[3:]
    assert len(set(id(qp) for qp in picks[:3])) == 3


def test_pool_empty_dc_raises(sim):
    cluster = Cluster(sim, num_nodes=1)
    pool = HybridQpPool(sim, cpu_id=0, dc_qps=[], max_rc=2)
    with pytest.raises(LookupError):
        pool.select_dc()


def test_pool_rc_insert_and_lookup(sim):
    cluster = Cluster(sim, num_nodes=3)
    pool = _pool(sim, cluster)
    rc1, _ = quick_rc_pair(cluster.node(0), cluster.node(1))
    assert pool.insert_rc("node1", rc1) is None
    assert pool.has_rc("node1")
    assert pool.select_rc("node1") is rc1


def test_pool_lru_evicts_least_recent(sim):
    cluster = Cluster(sim, num_nodes=3)
    pool = _pool(sim, cluster, max_rc=2)
    rc_a, _ = quick_rc_pair(cluster.node(0), cluster.node(1))
    rc_b, _ = quick_rc_pair(cluster.node(0), cluster.node(2))
    rc_c, _ = quick_rc_pair(cluster.node(0), cluster.node(2))
    pool.insert_rc("a", rc_a)

    def advance_then_touch():
        yield 100
        pool.select_rc("a")  # refresh a's recency
        yield 100

    pool.insert_rc("b", rc_b)
    sim.run_process(advance_then_touch())
    evicted = pool.insert_rc("c", rc_c)
    assert evicted is not None
    assert evicted[0] == "b"  # b was least recently used
    assert pool.has_rc("a") and pool.has_rc("c") and not pool.has_rc("b")


def test_pool_reinsert_same_gid_does_not_evict(sim):
    cluster = Cluster(sim, num_nodes=2)
    pool = _pool(sim, cluster, max_rc=1)
    rc1, _ = quick_rc_pair(cluster.node(0), cluster.node(1))
    rc2, _ = quick_rc_pair(cluster.node(0), cluster.node(1))
    pool.insert_rc("x", rc1)
    assert pool.insert_rc("x", rc2) is None
    assert pool.select_rc("x") is rc2


def test_pool_memory_accounting(sim):
    cluster = Cluster(sim, num_nodes=2)
    pool = _pool(sim, cluster, dc_count=2)
    base = pool.memory_bytes()
    assert base == 2 * timing.dc_qp_memory_bytes()
    rc, _ = quick_rc_pair(cluster.node(0), cluster.node(1))
    pool.insert_rc("y", rc)
    assert pool.memory_bytes() == base + timing.rc_qp_memory_bytes()


# ---------------------------------------------------------------------------
# MetaServer / MetaClient
# ---------------------------------------------------------------------------


def test_meta_server_publish_and_retract(sim):
    cluster = Cluster(sim, num_nodes=2)
    meta = MetaServer(cluster.node(0))
    meta.publish_dct("nodeX", 7, 1234)
    client = MetaClient(cluster.node(1), meta)

    def proc():
        value = yield from client.lookup_dct("nodeX")
        meta.retract_node("nodeX")
        gone = yield from client.lookup_dct("nodeX")
        return value, gone

    value, gone = sim.run_process(proc())
    assert value == (7, 1234)
    assert gone is None


def test_meta_server_mr_records(sim):
    cluster = Cluster(sim, num_nodes=2)
    meta = MetaServer(cluster.node(0))
    meta.publish_mr("nodeX", 42, 0x1000, 4096)
    client = MetaClient(cluster.node(1), meta)

    def proc():
        record = yield from client.lookup_mr("nodeX", 42)
        missing = yield from client.lookup_mr("nodeX", 99)
        meta.retract_mr("nodeX", 42)
        retracted = yield from client.lookup_mr("nodeX", 42)
        return record, missing, retracted

    record, missing, retracted = sim.run_process(proc())
    assert record == (0x1000, 4096)
    assert missing is None
    assert retracted is None


def test_meta_client_serializes_concurrent_lookups(sim):
    cluster = Cluster(sim, num_nodes=2)
    meta = MetaServer(cluster.node(0))
    meta.publish_dct("a", 1, 1)
    meta.publish_dct("b", 2, 2)
    client = MetaClient(cluster.node(1), meta)
    results = []

    def lookup(gid):
        value = yield from client.lookup_dct(gid)
        results.append((gid, value, sim.now))

    sim.process(lookup("a"))
    sim.process(lookup("b"))
    sim.run()
    assert {r[0] for r in results} == {"a", "b"}
    assert all(r[1] is not None for r in results)
    # The shared scratch buffer forces serialization: completions separated
    # by at least one lookup's latency.
    times = sorted(r[2] for r in results)
    assert times[1] - times[0] >= 3_000


def test_meta_client_reports_an_oversize_record_as_a_sizing_error(sim):
    # A 100 B record past a 64 B scratch buffer used to read as an outage
    # (MetaUnavailableError): retried with backoff, then an RC fallback.
    cluster = Cluster(sim, num_nodes=2)
    meta = MetaServer(cluster.node(0))
    gid = "n" * 80  # header 4 + key 84 + value 12 = 100 B
    meta.store.put(dct_key(gid), bytes(12))  # behind the shard's publish check
    client = MetaClient(cluster.node(1), meta)  # a one-bucket (64 B) scratch buffer
    with pytest.raises(RecordTooLargeError):
        sim.run_process(client.lookup_dct(gid))


def test_an_oversize_meta_record_fails_a_connect_without_retry_or_fallback():
    sim = Simulator()
    cluster, meta, modules = krcore_cluster(sim, num_nodes=3)
    module = modules[1]
    gid = "n" * 80
    meta.store.put(dct_key(gid), bytes(12))
    with pytest.raises(RecordTooLargeError):
        sim.run_process(module.create_vqp().connect(gid))
    assert (module.stats_meta_lookups, module.stats_rc_fallbacks) == (1, 0)


def test_meta_server_refuses_a_record_longer_than_a_client_reads(sim):
    cluster = Cluster(sim, num_nodes=2)
    meta = MetaServer(cluster.node(0))
    with pytest.raises(RecordTooLargeError):
        meta.publish_dct("n" * 80, 7, 1234)
    assert meta.store.get_local(dct_key("n" * 80)) is None
    # The longest MR record of a 10 000-node cluster fits a one-bucket buffer.
    meta.publish_mr("node9999", 2**32 - 1, 0x1000, 4096)
    client = MetaClient(cluster.node(1), meta)
    assert client.kv.scratch_len == 64
    assert sim.run_process(client.lookup_mr("node9999", 2**32 - 1)) == (0x1000, 4096)


def test_uncached_connects_to_one_incarnation_share_its_dct_tuple():
    sim = Simulator()
    cluster, meta, modules = krcore_cluster(sim, num_nodes=3)
    module, gid = modules[1], cluster.node(2).gid
    vqps = []

    def proc():
        for cpu in (0, 1, 0):  # two meta clients, one per CPU
            module.dc_cache.pop(gid, None)  # each connect looks the target up
            vqp = module.create_vqp(cpu_id=cpu)
            yield from vqp.connect(gid)
            vqps.append(vqp)

    sim.run_process(proc())
    assert module.stats_meta_lookups == 3
    assert vqps[0].dct_meta == modules[2].own_dct_meta
    assert all(vqp.dct_meta is vqps[0].dct_meta for vqp in vqps)


# ---------------------------------------------------------------------------
# ValidMr / MrStore
# ---------------------------------------------------------------------------


def test_valid_mr_records_and_checks(sim):
    cluster = Cluster(sim, num_nodes=1)
    node = cluster.node(0)
    registry = ValidMr(node)
    addr = node.memory.alloc(4096)
    region = node.memory.register(addr, 4096)
    registry.record(region)
    assert registry.check_local(region.lkey, addr, 4096)
    assert not registry.check_local(region.lkey, addr, 4097)
    assert not registry.check_local(999, addr, 8)
    assert registry.lookup_rkey(region.rkey) == (addr, 4096)
    assert registry.lookup_region_by_lkey(region.lkey) is region
    registry.forget(region)
    assert registry.lookup_rkey(region.rkey) is None


def test_mrstore_epoch_expiry():
    sim = Simulator()
    cluster, meta, modules = krcore_cluster(sim, num_nodes=3)
    store = modules[1].mr_store
    store._cache[("g", 1)] = (store._epoch(), (0, 64))
    assert store.cached("g", 1) == (0, 64)

    def advance():
        yield store.lease_ns + 1

    sim.run_process(advance())
    assert store.cached("g", 1) is None  # lease boundary crossed


def test_mrstore_invalidate_by_gid():
    sim = Simulator()
    cluster, meta, modules = krcore_cluster(sim, num_nodes=3)
    store = modules[1].mr_store
    epoch = store._epoch()
    store._cache[("g", 1)] = (epoch, (0, 64))
    store._cache[("g", 2)] = (epoch, (64, 64))
    store._cache[("h", 1)] = (epoch, (0, 64))
    store.invalidate("g")
    assert store.cached("g", 1) is None
    assert store.cached("g", 2) is None
    assert store.cached("h", 1) == (0, 64)
    store.invalidate("h", 1)
    assert store.cached("h", 1) is None


# ---------------------------------------------------------------------------
# wr_id token table
# ---------------------------------------------------------------------------


def test_token_encode_decode_roundtrip():
    sim = Simulator()
    cluster, meta, modules = krcore_cluster(sim, num_nodes=3)
    module = modules[1]
    token = module.encode_wr_id("vqp-sentinel", 5)
    decoded = module.decode_wr_id(token)
    assert decoded.vqp == "vqp-sentinel"
    assert decoded.covers == 5
    # Tokens are one-shot.
    assert module.decode_wr_id(token) is None
    assert module.decode_wr_id(987654321) is None


# ---------------------------------------------------------------------------
# VQP tables: the connected-VQP index, destroy_vqp, slim VQPs
# ---------------------------------------------------------------------------


def _connect_many(sim, module, gids, cpu_id=0):
    """Create one VQP per entry of ``gids`` and connect it (DCCache warm
    after the first connect per target, so the rest cost no simulated
    time)."""

    def proc():
        vqps = []
        for gid in gids:
            vqp = module.create_vqp(cpu_id=cpu_id)
            yield from vqp.connect(gid)
            vqps.append(vqp)
        return vqps

    return sim.run_process(proc())


def test_reconnecting_a_vqp_is_idempotent():
    sim = Simulator()
    cluster, meta, modules = krcore_cluster(sim, num_nodes=3)
    module, gid = modules[1], cluster.node(2).gid
    first, second, third = _connect_many(sim, module, [gid] * 3)
    sim.run_process(first.connect(gid))  # again: same slot, same position
    sim.run_process(second.connect(gid))
    assert list(module._connected_vqps[gid]) == [first, second, third]


def test_vqps_to_different_targets_never_share_an_entry():
    sim = Simulator()
    cluster, meta, modules = krcore_cluster(sim, num_nodes=4)
    module = modules[1]
    gid_a, gid_b = cluster.node(2).gid, cluster.node(3).gid
    a1, b1, a2, b2 = _connect_many(sim, module, [gid_a, gid_b, gid_a, gid_b])
    assert list(module._connected_vqps[gid_a]) == [a1, a2]
    assert list(module._connected_vqps[gid_b]) == [b1, b2]
    with pytest.raises(KrcoreError):
        sim.run_process(a1.connect(gid_b))  # a VQP has one target for life
    assert list(module._connected_vqps[gid_b]) == [b1, b2]


def test_transfer_paths_visit_vqps_in_connect_order(monkeypatch):
    # Background promotion (DC -> RC) and the LRU retire path (RC -> DC)
    # walk the per-target index; the switch times below were recorded on
    # the list-based table this index replaced and must not move.
    switched = []
    original = Vqp.transfer_to

    def recording(self, new_qp, *args, **kwargs):
        yield from original(self, new_qp, *args, **kwargs)
        switched.append((self.id, self.sim.now, self.is_rc_backed))

    monkeypatch.setattr(Vqp, "transfer_to", recording)
    sim = Simulator()
    cluster, meta, modules = krcore_cluster(
        sim, num_nodes=4, rc_traffic_threshold=8, max_rc_per_cpu=1
    )
    module = modules[1]
    gid_a, gid_b = cluster.node(2).gid, cluster.node(3).gid
    lib = KrcoreLib(cluster.node(1))
    lib_a, lib_b = KrcoreLib(cluster.node(2)), KrcoreLib(cluster.node(3))

    def proc():
        laddr = cluster.node(1).memory.alloc(64)
        lmr = yield from lib.reg_mr(laddr, 64)
        remotes = {}
        for gid, rlib in ((gid_a, lib_a), (gid_b, lib_b)):
            raddr = rlib.node.memory.alloc(64)
            remotes[gid] = (raddr, (yield from rlib.reg_mr(raddr, 64)))
        # Connect order differs from creation (id) order.
        vqps = [module.create_vqp() for _ in range(5)]
        for vqp in (vqps[3], vqps[0], vqps[4], vqps[1]):
            yield from vqp.connect(gid_a)
        yield from vqps[2].connect(gid_b)
        for gid, vqp in ((gid_a, vqps[3]), (gid_b, vqps[2])):
            raddr, rmr = remotes[gid]
            for _ in range(10):  # cross the promotion threshold
                yield from lib.read_sync(vqp, laddr, lmr.lkey, raddr, rmr.rkey, 8)
            yield 8 * MS

    sim.run_process(proc())
    assert module.stats_transfers == 9
    assert switched == [
        # gid_a promoted: its VQPs move in connect order 4, 1, 5, 2 ...
        (4, 2270159, True), (1, 2272719, True), (5, 2274680, True), (2, 2276640, True),
        # ... gid_b promoted, gid_a's RCQP evicted: same order back onto DC
        # (VQP 3's own promotion interleaves).
        (4, 10306915, False), (3, 10306917, True),
        (1, 10308875, False), (5, 10310834, False), (2, 10312793, False),
    ]


def test_idle_vqp_allocates_no_queues_until_used():
    sim = Simulator()
    cluster, meta, modules = krcore_cluster(sim, num_nodes=3)
    module = modules[1]
    (vqp,) = _connect_many(sim, module, [cluster.node(2).gid])
    queues = ("comp_queue", "recv_queue", "recv_completions", "pending_msgs")
    assert all(getattr(vqp, name) == () for name in queues)
    assert not hasattr(vqp, "__dict__")
    assert vqp.poll_cq() is None
    assert sim.run_process(vqp.poll_recv()) is None
    # First two-sided use materializes exactly the queue it touches.
    buf = RecvBuffer(cluster.node(1).memory.alloc(64), 64, 0)
    vqp.post_recv(buf)
    assert list(vqp.recv_queue) == [buf]
    assert vqp.pending_msgs == () and vqp.recv_completions == ()


def test_destroy_vqp_unlinks_every_table_and_refuses_when_busy():
    sim = Simulator()
    cluster, meta, modules = krcore_cluster(sim, num_nodes=3)
    module, gid = modules[1], cluster.node(2).gid
    lib, rlib = KrcoreLib(cluster.node(1)), KrcoreLib(cluster.node(2))

    def proc():
        laddr = cluster.node(1).memory.alloc(64)
        lmr = yield from lib.reg_mr(laddr, 64)
        raddr = cluster.node(2).memory.alloc(64)
        rmr = yield from rlib.reg_mr(raddr, 64)
        keep = yield from lib.create_vqp()
        yield from lib.qconnect(keep, gid)
        vqp = yield from lib.create_vqp()
        yield from lib.qconnect(vqp, gid)
        yield from lib.qbind(vqp, 21)
        # An un-polled completion pins the VQP.
        yield from lib.post_send(vqp, WorkRequest.read(laddr, 8, lmr.lkey, raddr, rmr.rkey))
        with pytest.raises(KrcoreError, match="busy"):
            yield from lib.destroy_vqp(vqp)
        entry = yield from vqp.wait_send_completion()
        assert entry.ok
        before = sim.now
        yield from lib.destroy_vqp(vqp)
        assert sim.now - before == timing.SYSCALL_NS
        yield from lib.destroy_vqp(vqp)  # idempotent
        with pytest.raises(KrcoreError):
            yield from lib.post_send(vqp, WorkRequest.read(laddr, 8, lmr.lkey, raddr, rmr.rkey))
        return keep, vqp

    keep, vqp = sim.run_process(proc())
    assert vqp.destroyed and vqp not in set(module.indexed_vqps())
    assert list(module._connected_vqps[gid]) == [keep]
    assert 21 not in module._bound and vqp.id not in module._vqps_by_id
    module.bind(21, keep)  # the port is free again
    module.destroy_vqp(keep)
    assert gid not in module._connected_vqps and not list(module.indexed_vqps())


def test_destroy_during_an_uncached_connect_fails_the_connect():
    sim = Simulator()
    cluster, meta, modules = krcore_cluster(sim, num_nodes=3)
    module, gid = modules[1], cluster.node(2).gid
    vqp = module.create_vqp()
    outcome = []

    def connect():
        try:
            yield from vqp.connect(gid)
        except KrcoreError as err:
            outcome.append(err)

    sim.process(connect())
    sim.run(until=sim.now + 1000)  # the meta lookup is on the wire
    module.destroy_vqp(vqp)
    sim.run()
    assert outcome and "destroyed" in str(outcome[0])
    assert vqp.qp is None and not list(module.indexed_vqps())


def test_destroying_a_reply_vqp_forgets_its_reply_slot():
    sim = Simulator()
    cluster, meta, modules = krcore_cluster(sim, num_nodes=3)
    server, client = cluster.node(2), cluster.node(1)
    lib_s, lib_c = KrcoreLib(server), KrcoreLib(client)

    def proc():
        saddr = server.memory.alloc(512)
        smr = yield from lib_s.reg_mr(saddr, 512)
        caddr = client.memory.alloc(64)
        cmr = yield from lib_c.reg_mr(caddr, 64)
        bound = yield from lib_s.create_vqp()
        yield from lib_s.qbind(bound, 13)
        replies = []
        for _ in range(2):
            yield from lib_s.post_recv(bound, RecvBuffer(saddr, 512, smr.lkey))
            sender = yield from lib_c.create_vqp()
            yield from lib_c.qconnect(sender, server.gid, 13)
            yield from lib_c.post_send(sender, WorkRequest.send(caddr, 8, cmr.lkey))
            results = yield from lib_s.qpop_msgs_wait(bound)
            replies.append(results[0][0])
        return bound, replies

    bound, replies = sim.run_process(proc())
    module = modules[2]
    assert len(module._reply_vqps) == 2
    module.destroy_vqp(replies[0])
    assert list(module._reply_vqps.values()) == [replies[1]]
    module.destroy_vqp(bound)  # the bound VQP goes; its other reply VQP stays usable
    assert list(module._reply_vqps.values()) == [replies[1]] and not module._bound


def test_connect_cost_does_not_grow_with_the_table():
    # A per-connect membership scan of the per-target table made a burst
    # quadratic: 8 000 connects cost ~16x more *each* than 500 did.
    def per_connect_s(count):
        best = float("inf")
        for _ in range(3):
            sim = Simulator()
            cluster, meta, modules = krcore_cluster(sim, num_nodes=3)
            module, gid = modules[1], cluster.node(2).gid
            _connect_many(sim, module, [gid])  # warm the DCCache
            started = time.perf_counter()
            _connect_many(sim, module, [gid] * count)
            best = min(best, (time.perf_counter() - started) / count)
        return best

    assert per_connect_s(8000) < 3 * per_connect_s(500)


def test_idle_connected_vqp_is_small():
    sim = Simulator()
    cluster, meta, modules = krcore_cluster(sim, num_nodes=3)
    module, gid = modules[1], cluster.node(2).gid
    _connect_many(sim, module, [gid])
    count = 4000
    tracemalloc.start()
    try:
        before, _peak = tracemalloc.get_traced_memory()
        _connect_many(sim, module, [gid] * count)
        after, _peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # Object (Algorithm-1 state only, 12 slots), id-table slot and
    # per-target index slot: 232 B on 3.11.  Four eager deques alone were
    # 3 KB; 20 slots with the two-sided fields inline were 296 B.
    assert (after - before) / count <= 256
