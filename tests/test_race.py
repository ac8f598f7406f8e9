"""Tests for the RACE-style disaggregated KV store over all three backends."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.race import (
    KrcoreBackend,
    LiteBackend,
    RaceClient,
    RaceError,
    RaceStorage,
    VerbsBackend,
)
from repro.apps.race.backends import register_storage
from repro.apps.race.hashing import fingerprint, pack_slot, unpack_slot
from repro.cluster import Cluster
from repro.lite import LiteModule
from repro.sim import MS, Simulator, US
from repro.verbs import ConnectionManager, DriverContext
from tests.conftest import krcore_cluster


# ---------------------------------------------------------------------------
# Slot packing
# ---------------------------------------------------------------------------


def test_slot_roundtrip():
    word = pack_slot(0x123, 10, 200, 0xDEADBEEF)
    assert unpack_slot(word) == (0x123, 10, 200, 0xDEADBEEF)


@settings(max_examples=50, deadline=None)
@given(
    fp=st.integers(1, 0xFFF),
    klen=st.integers(0, 255),
    vlen=st.integers(0, 4095),
    off=st.integers(0, 0xFFFFFFFF),
)
def test_slot_roundtrip_property(fp, klen, vlen, off):
    assert unpack_slot(pack_slot(fp, klen, vlen, off)) == (fp, klen, vlen, off)


def test_slot_rejects_oversize():
    with pytest.raises(RaceError):
        pack_slot(1, 300, 0, 0)
    with pytest.raises(RaceError):
        pack_slot(1, 0, 5000, 0)


def test_fingerprint_nonzero_and_stable():
    fp1, spread1 = fingerprint(b"key")
    fp2, spread2 = fingerprint(b"key")
    assert (fp1, spread1) == (fp2, spread2)
    assert fp1 != 0


# ---------------------------------------------------------------------------
# Local storage behaviour
# ---------------------------------------------------------------------------


def _local_storage():
    sim = Simulator()
    cluster = Cluster(sim, num_nodes=1)
    return sim, RaceStorage(cluster.node(0), num_buckets=256, heap_bytes=1 << 18)


def test_local_load_and_get():
    _, storage = _local_storage()
    storage.load(b"alpha", b"one")
    storage.load(b"beta", b"two")
    assert storage.get_local(b"alpha") == b"one"
    assert storage.get_local(b"beta") == b"two"
    assert storage.get_local(b"gamma") is None


def test_local_load_overwrites():
    _, storage = _local_storage()
    storage.load(b"k", b"v1")
    storage.load(b"k", b"v2")
    assert storage.get_local(b"k") == b"v2"


def test_storage_rejects_non_power_of_two():
    sim = Simulator()
    cluster = Cluster(sim, num_nodes=1)
    with pytest.raises(RaceError):
        RaceStorage(cluster.node(0), num_buckets=100)


# ---------------------------------------------------------------------------
# Remote clients: one per backend
# ---------------------------------------------------------------------------


def _verbs_env():
    sim = Simulator()
    cluster = Cluster(sim, num_nodes=3, memory_size=32 << 20)
    for node in cluster.nodes:
        ConnectionManager(node, DriverContext(node, kernel=True))
    storage = RaceStorage(cluster.node(1), num_buckets=1024, heap_bytes=1 << 19)
    backend = VerbsBackend(cluster.node(0))
    client = RaceClient(backend, [storage.catalog()])
    return sim, cluster, storage, client


def _lite_env():
    sim = Simulator()
    cluster = Cluster(sim, num_nodes=3, memory_size=32 << 20)
    modules = [LiteModule(node) for node in cluster.nodes]
    storage = RaceStorage(cluster.node(1), num_buckets=1024, heap_bytes=1 << 19)
    backend = LiteBackend(cluster.node(0))
    client = RaceClient(backend, [storage.catalog()])
    return sim, cluster, storage, client


def _krcore_env():
    sim = Simulator()
    cluster, meta, modules = krcore_cluster(sim, num_nodes=3)
    storage = RaceStorage(cluster.node(1), num_buckets=1024, heap_bytes=1 << 19, register=False)
    region = sim.run_process(register_storage(storage, krcore_module=modules[1]))
    backend = KrcoreBackend(cluster.node(0))
    client = RaceClient(backend, [storage.catalog(rkey=region.rkey)])
    return sim, cluster, storage, client


@pytest.mark.parametrize("make_env", [_verbs_env, _lite_env, _krcore_env])
def test_put_get_roundtrip_over_backend(make_env):
    sim, cluster, storage, client = make_env()

    def proc():
        yield from client.setup()
        yield from client.put(b"hello", b"world")
        value = yield from client.get(b"hello")
        missing = yield from client.get(b"nope")
        return value, missing

    value, missing = sim.run_process(proc())
    assert value == b"world"
    assert missing is None
    assert storage.get_local(b"hello") == b"world"


@pytest.mark.parametrize("make_env", [_verbs_env, _lite_env, _krcore_env])
def test_update_over_backend(make_env):
    sim, cluster, storage, client = make_env()

    def proc():
        yield from client.setup()
        yield from client.put(b"k", b"v1")
        yield from client.put(b"k", b"v2")
        return (yield from client.get(b"k"))

    assert sim.run_process(proc()) == b"v2"


@pytest.mark.parametrize("make_env", [_verbs_env, _lite_env, _krcore_env])
def test_batched_get_over_backend(make_env):
    sim, cluster, storage, client = make_env()
    keys = [b"user%04d" % i for i in range(16)]
    for i, key in enumerate(keys):
        storage.load(key, b"value%04d" % i)

    def proc():
        yield from client.setup()
        results = yield from client.get_batch(keys + [b"missing-key"])
        return results

    results = sim.run_process(proc())
    for i, key in enumerate(keys):
        assert results[key] == b"value%04d" % i
    assert results[b"missing-key"] is None


def _two_storage_env(stack):
    """A client on one node and storages A and B on two others, over
    ``stack``; both heaps start with the same known pattern."""
    sim = Simulator()
    if stack == "verbs":
        cluster = Cluster(sim, num_nodes=3, memory_size=32 << 20)
        for node in cluster.nodes:
            ConnectionManager(node, DriverContext(node, kernel=True))
        client_node, nodes = cluster.node(0), cluster.nodes[1:]
        storages = [RaceStorage(node, num_buckets=64, heap_bytes=1 << 16) for node in nodes]
        backend = VerbsBackend(client_node)
    else:
        cluster, meta, modules = krcore_cluster(sim, num_nodes=4)
        client_node, nodes = cluster.node(1), cluster.nodes[2:]
        storages = [
            RaceStorage(node, num_buckets=64, heap_bytes=1 << 16, register=False)
            for node in nodes
        ]
        for storage, module in zip(storages, modules[2:]):
            sim.run_process(register_storage(storage, krcore_module=module))
        backend = KrcoreBackend(client_node)
    pattern = bytes(range(256)) * 8
    for storage in storages:
        storage.node.memory.write(storage.heap_base, pattern)
    return sim, backend, storages, pattern


@pytest.mark.parametrize("stack, chain", [
    ("verbs", "one"), ("krcore", "one"), ("krcore", "past-sq-depth"),
])
def test_failed_batch_reaps_every_completion(stack, chain):
    """Four good READs to A, then a chain to B whose last READ names an
    unregistered rkey.  ``read_batch`` must reap every completion it
    posted before it returns: a stale one left behind would end the next
    synchronous READ before its bytes land.  ``past-sq-depth`` makes B's
    chain longer than the send queue, so KRCORE posts its first chunk
    before the pre-check refuses the second."""
    sim, backend, (a, b), pattern = _two_storage_env(stack)
    gids = [a.node.gid, b.node.gid]
    bad_rkey = b.region.rkey + 0x1000

    def proc():
        yield from backend.connect(gids)
        b_reads = 1
        if chain == "past-sq-depth":
            b_reads = backend.vqps[b.node.gid].qp.sq_depth + 8
        laddr, lkey = yield from backend.setup_buffer(64 * (6 + b_reads))
        requests = [
            (a.node.gid, laddr + 64 * i, lkey, a.heap_base + 64 * i, a.region.rkey, 64)
            for i in range(4)
        ]
        for i in range(b_reads):
            rkey = bad_rkey if i == b_reads - 1 else b.region.rkey
            requests.append(
                (b.node.gid, laddr + 64 * (6 + i), lkey, b.heap_base, rkey, 64)
            )
        outcome = yield from backend.read_batch(requests)
        # The next READ on each target still reachable returns its own bytes.
        landed = []
        for storage, slot in [(a, 4), (b, 5)][: 2 if chain == "past-sq-depth" else 1]:
            local, remote = laddr + 64 * slot, storage.heap_base + 64 * slot
            yield from backend.read(
                storage.node.gid, local, lkey, remote, storage.region.rkey, 64
            )
            landed.append(backend.node.memory.read(local, 64))
        client = RaceClient(backend, [b.catalog(rkey=bad_rkey)])
        yield from client.setup()
        with pytest.raises(RaceError):
            yield from client.get_batch([b"k0", b"k1"])
        return outcome, landed, b_reads

    (bytes_ok, failed), landed, b_reads = sim.run_process(proc())
    assert bytes_ok == 4 * 64
    assert failed == b_reads  # a refused KRCORE chain fails whole
    assert landed == [pattern[64 * slot : 64 * (slot + 1)] for slot in range(4, 4 + len(landed))]


def test_many_keys_roundtrip_verbs():
    sim, cluster, storage, client = _verbs_env()

    def proc():
        yield from client.setup()
        for i in range(80):
            yield from client.put(b"key%03d" % i, b"val%03d" % i)
        values = []
        for i in range(80):
            values.append((yield from client.get(b"key%03d" % i)))
        return values

    values = sim.run_process(proc())
    assert values == [b"val%03d" % i for i in range(80)]


def test_client_reads_data_loaded_locally():
    sim, cluster, storage, client = _verbs_env()
    storage.load(b"preloaded", b"bulk")

    def proc():
        yield from client.setup()
        return (yield from client.get(b"preloaded"))

    assert sim.run_process(proc()) == b"bulk"


def test_setup_cost_reflects_backend_control_path():
    # The heart of Fig 16: worker bootstrap is ~ms for verbs/LITE and ~us
    # for KRCORE (after the first worker warms LITE's kernel cache, LITE
    # gets cheap too -- but the *first* contact is what spikes care about).
    sim_v, _, _, client_v = _verbs_env()
    sim_l, _, _, client_l = _lite_env()
    sim_k, _, _, client_k = _krcore_env()

    def timed_setup(sim, client):
        def proc():
            start = sim.now
            yield from client.setup()
            return sim.now - start

        return sim.run_process(proc())

    verbs_cost = timed_setup(sim_v, client_v)
    lite_cost = timed_setup(sim_l, client_l)
    krcore_cost = timed_setup(sim_k, client_k)
    assert verbs_cost > 15 * MS  # driver init dominates
    assert 1 * MS < lite_cost < 4 * MS  # create+configure per connection
    assert krcore_cost < 50 * US  # qconnect + reg_mr
    assert krcore_cost < lite_cost / 10
    assert lite_cost < verbs_cost


def test_concurrent_writers_do_not_lose_updates():
    # Two workers inserting disjoint keys through the same storage node.
    sim, cluster, storage, client_a = _verbs_env()
    backend_b = VerbsBackend(cluster.node(2))
    client_b = RaceClient(backend_b, [storage.catalog()])

    def writer(client, prefix, count):
        yield from client.setup()
        for i in range(count):
            yield from client.put(b"%s%03d" % (prefix, i), b"v-%s%03d" % (prefix, i))

    sim.process(writer(client_a, b"aa", 30))
    sim.process(writer(client_b, b"bb", 30))
    sim.run()
    for prefix in (b"aa", b"bb"):
        for i in range(30):
            key = b"%s%03d" % (prefix, i)
            assert storage.get_local(key) == b"v-" + key


def test_contending_writers_same_key_one_wins():
    sim, cluster, storage, client_a = _verbs_env()
    backend_b = VerbsBackend(cluster.node(2))
    client_b = RaceClient(backend_b, [storage.catalog()])

    def writer(client, value):
        yield from client.setup()
        yield from client.put(b"contended", value)

    sim.process(writer(client_a, b"from-a"))
    sim.process(writer(client_b, b"from-b"))
    sim.run()
    assert storage.get_local(b"contended") in (b"from-a", b"from-b")


def test_delete_removes_key():
    sim, cluster, storage, client = _verbs_env()

    def proc():
        yield from client.setup()
        yield from client.put(b"doomed", b"value")
        present = yield from client.delete(b"doomed")
        value = yield from client.get(b"doomed")
        absent = yield from client.delete(b"doomed")
        return present, value, absent

    present, value, absent = sim.run_process(proc())
    assert present is True
    assert value is None
    assert absent is False
    assert storage.get_local(b"doomed") is None


def test_delete_does_not_break_probe_chains():
    # Keys that overflowed into later buckets stay reachable after an
    # earlier colliding key is deleted (lookups scan the full window).
    sim, cluster, storage, client = _verbs_env()
    from repro.apps.race.hashing import fingerprint

    target = fingerprint(b"seed")[1] % storage.num_buckets
    colliders = [b"seed"]
    i = 0
    while len(colliders) < 10:
        key = b"c%05d" % i
        if fingerprint(key)[1] % storage.num_buckets == target:
            colliders.append(key)
        i += 1

    def proc():
        yield from client.setup()
        for j, key in enumerate(colliders):
            yield from client.put(key, b"v%d" % j)
        # Delete the first (home-bucket) key...
        yield from client.delete(colliders[0])
        # ...and every overflowed key must still be found.
        values = []
        for key in colliders[1:]:
            values.append((yield from client.get(key)))
        return values

    values = sim.run_process(proc())
    assert values == [b"v%d" % j for j in range(1, 10)]


def test_put_after_delete_reuses_slot():
    sim, cluster, storage, client = _verbs_env()

    def proc():
        yield from client.setup()
        yield from client.put(b"cycled", b"v1")
        yield from client.delete(b"cycled")
        yield from client.put(b"cycled", b"v2")
        return (yield from client.get(b"cycled"))

    assert sim.run_process(proc()) == b"v2"


# ---------------------------------------------------------------------------
# One probe-window scan: a key past its home bucket, holes, fingerprint twins
# ---------------------------------------------------------------------------


def _colliders(storage, count, prefix=b"h"):
    """``count`` keys that share one home bucket of ``storage``."""
    target = fingerprint(prefix)[1] % storage.num_buckets
    keys = [prefix]
    i = 0
    while len(keys) < count:
        key = b"%s%05d" % (prefix, i)
        if fingerprint(key)[1] % storage.num_buckets == target:
            keys.append(key)
        i += 1
    return keys


def _fingerprint_twins(storage):
    """Two keys with one home bucket and one fingerprint."""
    seen = {}
    i = 0
    while True:
        key = b"t%06d" % i
        fp12, spread = fingerprint(key)
        twin = seen.setdefault((fp12, spread % storage.num_buckets), key)
        if twin != key:
            return twin, key
        i += 1


@pytest.mark.parametrize("make_env", [_verbs_env, _lite_env, _krcore_env])
def test_update_of_an_overflowed_key_after_a_hole_keeps_one_slot(make_env):
    """Eight keys fill the home bucket and a ninth overflows to home+1.  A
    delete opens a hole at home; the ninth is updated, then deleted: its
    update went into its own slot, so nothing of it is left behind."""
    sim, cluster, storage, client = make_env()
    *home_keys, overflowed = _colliders(storage, 9)

    def proc():
        yield from client.setup()
        for key in home_keys + [overflowed]:
            yield from client.put(key, b"v1")
        yield from client.delete(home_keys[0])
        yield from client.put(overflowed, b"v2")
        updated = yield from client.get(overflowed)
        present = yield from client.delete(overflowed)
        return updated, present, (yield from client.get(overflowed))

    assert sim.run_process(proc()) == (b"v2", True, None)
    assert storage.get_local(overflowed) is None


@pytest.mark.parametrize("make_env", [_verbs_env, _lite_env, _krcore_env])
def test_batched_get_finds_overflowed_keys_and_fingerprint_twins(make_env):
    sim, cluster, storage, client = make_env()
    *home_keys, overflowed = _colliders(storage, 9)
    twin, key = _fingerprint_twins(storage)
    for index, stored in enumerate(home_keys + [overflowed, twin, key]):
        storage.load(stored, b"value%d" % index)

    def proc():
        yield from client.setup()
        return (yield from client.get_batch([overflowed, key, twin, home_keys[3], b"absent"]))

    assert sim.run_process(proc()) == {
        overflowed: b"value8", key: b"value10", twin: b"value9",
        home_keys[3]: b"value3", b"absent": None,
    }


@pytest.mark.parametrize("make_env", [_verbs_env, _lite_env, _krcore_env])
def test_local_load_after_a_hole_updates_in_place(make_env):
    """``load`` of a key that overflowed to home+1, after a delete opened
    a hole at home, overwrites the key's own slot: ``get_local`` and a
    later client delete agree that the key is gone."""
    sim, cluster, storage, client = make_env()
    *home_keys, overflowed = _colliders(storage, 9)
    for key in home_keys + [overflowed]:
        storage.load(key, b"v1")

    def delete(key):
        def proc():
            yield from client.setup()
            return (yield from client.delete(key))
        return sim.run_process(proc())

    assert delete(home_keys[0]) is True
    storage.load(overflowed, b"v2")
    assert storage.get_local(overflowed) == b"v2"
    assert delete(overflowed) is True
    assert storage.get_local(overflowed) is None
