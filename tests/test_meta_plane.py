"""The sharded meta plane, plus regression tests for the control-path
bugs fixed alongside it (lease re-stamping, leaked RC eviction, the
unbalanced meta.rpc span, and the retract_mr guard)."""

import json

import pytest

from repro.cluster import Cluster, timing
from repro.krcore import KrcoreError, KrcoreLib, MetaPlane, MetaServer
from repro.krcore import meta as meta_module
from repro.krcore.meta import MetaClient, dct_key, mr_key
from repro.sim import Simulator
from repro.verbs.errors import MetaUnavailableError
from tests.conftest import krcore_cluster


# ---------------------------------------------------------------------------
# Routing
# ---------------------------------------------------------------------------


def _bare_plane(shards, replication=2):
    """A plane over stub shards (routing needs no simulator)."""

    class _Node:
        def __init__(self, gid):
            self.gid = gid

    class _Shard:
        def __init__(self, index):
            self.node = _Node(f"meta{index}")

    return MetaPlane([_Shard(i) for i in range(shards)], replication=replication)


def test_routing_is_deterministic_across_constructions():
    keys = [dct_key(f"node{i}") for i in range(40)]
    keys += [mr_key(f"node{i}", i * 7) for i in range(40)]
    first = [_bare_plane(4).owner_indices(k) for k in keys]
    second = [_bare_plane(4).owner_indices(k) for k in keys]
    assert first == second


def test_routing_spreads_keys_and_replicates_distinctly():
    plane = _bare_plane(4)
    keys = [dct_key(f"node{i}") for i in range(64)]
    primaries = {plane.primary_index(k) for k in keys}
    assert primaries == {0, 1, 2, 3}  # every shard owns something
    for key in keys:
        owners = plane.owner_indices(key)
        assert len(owners) == 2
        assert owners[0] != owners[1]


def test_single_shard_plane_routes_everything_to_shard_zero():
    plane = _bare_plane(1)
    for i in range(16):
        assert plane.owner_indices(dct_key(f"node{i}")) == [0]
    assert plane.replication == 1


def test_single_shard_plane_has_no_ring_and_hashes_nothing(monkeypatch):
    import repro.krcore.meta as meta_module

    def no_hashing(data):
        raise AssertionError(f"one shard owns every key: {data!r} needs no ring point")

    monkeypatch.setattr(meta_module, "_ring_hash", no_hashing)
    plane = _bare_plane(1)
    assert plane._ring == []
    assert plane.owner_indices(mr_key("node3", 11)) == [0]
    assert plane.primary_index(dct_key("node3")) == 0
    assert plane.owner_gids(dct_key("node3")) == ["meta0"]


def test_ensure_wraps_bare_server_and_passes_planes_through(sim):
    cluster = Cluster(sim, num_nodes=1)
    server = MetaServer(cluster.node(0))
    plane = MetaPlane.ensure(server)
    assert len(plane.shards) == 1 and plane.shards[0] is server
    assert MetaPlane.ensure(plane) is plane


def test_ensure_gives_one_plane_per_bare_server(sim):
    cluster, server, modules = krcore_cluster(sim, num_nodes=3)
    assert MetaPlane.ensure(server) is MetaPlane.ensure(server)
    assert {id(module.meta_plane) for module in modules} == {id(MetaPlane.ensure(server))}
    other = MetaServer(Cluster(sim, num_nodes=1).node(0))
    assert MetaPlane.ensure(other) is not MetaPlane.ensure(server)


def test_a_full_meta_table_names_its_load_and_the_way_out(sim, monkeypatch):
    """One deployment takes ~4 000 nodes' boot records (ROADMAP item 2); what
    a bigger ``krcore_cluster`` dies of must say how full the table was and
    that ``meta_shards`` spreads the records."""
    from repro.kvs import StoreFullError

    monkeypatch.setattr(meta_module, "BUCKETS", 2)
    server = MetaServer(Cluster(sim, num_nodes=1).node(0))
    with pytest.raises(StoreFullError) as full:
        for index in range(9):
            server.publish_dct(f"node{index}", index, 7)
    assert "8 of 8 slots are in use" in str(full.value)
    assert "meta table on node0" in str(full.value) and "meta_shards" in str(full.value)


def test_writes_land_on_every_owner_shard(sim):
    cluster = Cluster(sim, num_nodes=4)
    shards = [MetaServer(cluster.node(i)) for i in range(4)]
    plane = MetaPlane(shards)
    plane.publish_mr("nodeX", 42, 0x1000, 4096)
    key = mr_key("nodeX", 42)
    owners = plane.owner_indices(key)
    for index, shard in enumerate(shards):
        present = shard.store.get_local(key) is not None
        assert present == (index in owners)
    plane.retract_mr("nodeX", 42)
    assert all(s.store.get_local(key) is None for s in shards)


# ---------------------------------------------------------------------------
# Per-(cpu, shard) clients and failover
# ---------------------------------------------------------------------------


def test_meta_clients_are_per_cpu_per_shard():
    sim = Simulator()
    cluster, plane, modules = krcore_cluster(
        sim, num_nodes=5, meta_shards=2, background_rc=False
    )
    module = modules[3]
    assert module.meta_client(0, shard=0) is module.meta_client(0, shard=0)
    assert module.meta_client(0, shard=0) is not module.meta_client(0, shard=1)
    cores = cluster.node(3).cores
    assert module.meta_client(cores, shard=0) is module.meta_client(0, shard=0)
    assert module.meta_client(0, shard=1).shard_index == 1


def test_lookup_fails_over_when_primary_shard_is_dark():
    sim = Simulator()
    cluster, plane, modules = krcore_cluster(
        sim, num_nodes=6, meta_shards=2, background_rc=False
    )
    module = modules[4]
    target = cluster.node(5).gid
    primary = plane.primary_index(dct_key(target))
    plane.set_outage(50 * timing.MS, shard=primary)

    def proc():
        return (yield from module.plane_lookup_dct(0, target))

    meta_value = sim.run_process(proc())
    assert meta_value is not None
    assert module.stats_meta_failovers >= 1


def test_qconnect_survives_one_dark_shard():
    sim = Simulator()
    cluster, plane, modules = krcore_cluster(
        sim, num_nodes=6, meta_shards=2, background_rc=False
    )
    client_node = cluster.node(4)
    target = cluster.node(5).gid
    plane.set_outage(50 * timing.MS, shard=plane.primary_index(dct_key(target)))
    lib = KrcoreLib(client_node, cpu_id=0)

    def proc():
        vqp = yield from lib.create_vqp()
        yield from lib.qconnect(vqp, target)
        return vqp

    vqp = sim.run_process(proc())
    assert vqp.dct_meta is not None  # DC path: metadata came from the replica
    assert not vqp.is_rc_backed


def test_all_shards_dark_degrades_to_rc_fallback():
    sim = Simulator()
    cluster, plane, modules = krcore_cluster(
        sim, num_nodes=6, meta_shards=2, background_rc=False
    )
    client_node = cluster.node(4)
    target = cluster.node(5).gid
    plane.set_outage(500 * timing.MS)  # whole plane
    lib = KrcoreLib(client_node, cpu_id=0)

    def proc():
        vqp = yield from lib.create_vqp()
        yield from lib.qconnect(vqp, target)
        return vqp

    vqp = sim.run_process(proc())
    assert vqp.is_rc_backed  # the paper's old control path


# ---------------------------------------------------------------------------
# Regression: stale accepts must keep their original epoch (lease safety)
# ---------------------------------------------------------------------------


def test_stale_accept_revalidates_after_meta_recovers():
    lease = 2 * timing.MS
    sim = Simulator()
    cluster, meta, modules = krcore_cluster(
        sim, num_nodes=3, background_rc=False, mr_lease_ns=lease
    )
    store = modules[1].mr_store
    meta.publish_mr("node2", 7, 0x2000, 4096)

    def proc():
        # Epoch 0: a real lookup caches the record.
        first = yield from store.check("node2", 7, 0x2000, 64)
        # The meta service goes dark across the next lease boundary, and
        # the MR is retracted while it is dark.
        meta.set_outage(int(1.5 * lease))
        meta.retract_mr("node2", 7)
        yield int(1.1 * lease) - sim.now  # into epoch 1, still dark
        stale = yield from store.check("node2", 7, 0x2000, 64)
        yield int(1.6 * lease) - sim.now  # still epoch 1, outage over
        after = yield from store.check("node2", 7, 0x2000, 64)
        return first, stale, after

    first, stale, after = sim.run_process(proc())
    assert first is True
    assert stale is True  # degraded-mode acceptance of the expired entry
    assert store.stats_stale_accepts == 1
    # The buggy code re-stamped the stale entry with the current epoch,
    # so this check hit the cache and returned True without ever seeing
    # the retraction.
    assert after is False


# ---------------------------------------------------------------------------
# Regression: accept-path LRU eviction must retire the victim QP
# ---------------------------------------------------------------------------


def test_rc_accept_eviction_unregisters_victim_qp():
    sim = Simulator()
    cluster = Cluster(sim, num_nodes=5, cores=1)
    meta = MetaServer(cluster.node(0))
    from repro.krcore import KrcoreModule

    modules = [
        KrcoreModule(node, meta, background_rc=False, max_rc_per_cpu=2)
        for node in cluster.nodes
    ]
    target = modules[1]
    accepted = {}

    def connect_from(module):
        yield from module.establish_rc("node1", module.pool(0))
        # Snapshot the QP the target accepted for this client (pool.rc is
        # read directly so LRU recency is not disturbed).
        accepted[module.node.gid] = target.pool(0).rc[module.node.gid]

    def driver():
        for module in (modules[2], modules[3], modules[4]):
            yield from connect_from(module)
        yield 10 * timing.MS  # let the background retirement finish

    sim.run_process(driver())
    pool = target.pool(0)
    assert len(pool.rc) == 2  # the third accept evicted the LRU entry
    evicted_gids = set(accepted) - set(pool.rc)
    assert len(evicted_gids) == 1
    victim = accepted[evicted_gids.pop()]
    # The buggy accept path dropped the eviction result, leaving the
    # victim registered on the RNIC forever.
    assert cluster.node(1).rnic.qp(victim.qpn) is None
    for gid in pool.rc:
        assert cluster.node(1).rnic.qp(accepted[gid].qpn) is accepted[gid]


# ---------------------------------------------------------------------------
# Regression: meta.rpc spans stay balanced when the lookup fails
# ---------------------------------------------------------------------------


def test_meta_rpc_span_balanced_on_unavailable():
    from repro import obs

    sim = Simulator()
    cluster = Cluster(sim, num_nodes=2)
    meta = MetaServer(cluster.node(0))
    meta.publish_dct("nodeX", 7, 1234)

    with obs.observe() as (tracer, _registry):
        client = MetaClient(cluster.node(1), meta)

        def proc():
            value = yield from client.lookup_dct("nodeX")
            meta.set_outage(10 * timing.MS)
            try:
                yield from client.lookup_dct("nodeX")
            except MetaUnavailableError:
                pass
            return value

        assert sim.run_process(proc()) == (7, 1234)
        events = json.loads(tracer.to_json())["traceEvents"]

    opens = {}
    for event in events:
        key = (event.get("tid"), event.get("name"))
        if event.get("ph") == "B":
            opens[key] = opens.get(key, 0) + 1
        elif event.get("ph") == "E":
            # An E with no open B would corrupt nesting just as badly.
            assert opens.get(key, 0) > 0, f"unmatched end for {key}"
            opens[key] -= 1
    assert all(count == 0 for count in opens.values()), (
        f"unbalanced spans: { {k: c for k, c in opens.items() if c} }"
    )


# ---------------------------------------------------------------------------
# Regression: retract_mr gets the same misrouting guard as publish_mr
# ---------------------------------------------------------------------------


def test_retract_mr_on_non_meta_node_raises():
    sim = Simulator()
    cluster, meta, modules = krcore_cluster(sim, num_nodes=3, background_rc=False)
    header = {"type": "retract_mr", "gid": "node2", "rkey": 1}
    with pytest.raises(KrcoreError):
        sim.run_process(modules[1].messaging._handle_kernel_msg(dict(header)))
    # The meta node itself still accepts it (and it must not throw even
    # for a record that was never published).
    sim.run_process(modules[0].messaging._handle_kernel_msg(dict(header)))
