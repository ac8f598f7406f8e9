"""Tests for the DrTM-KV substrate: local semantics, remote lookups,
probe-chain invariants, and the two-READ cost that KRCORE relies on."""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cluster import Cluster, timing
from repro.kvs import store as kvs_store
from repro.kvs import DrtmKvClient, DrtmKvServer, StoreFullError, key_fingerprint
from repro.kvs.layout import BUCKET_BYTES, Layout
from repro.sim import Simulator
from tests.conftest import quick_rc_pair, register


def _make_store(bucket_count=64):
    sim = Simulator()
    cluster = Cluster(sim, num_nodes=2)
    server = DrtmKvServer(cluster.node(1), bucket_count=bucket_count)
    return sim, cluster, server


def _make_client(sim, cluster, server):
    qp, _ = quick_rc_pair(cluster.node(0), cluster.node(1))
    scratch_addr, scratch_mr = register(cluster.node(0), 4096)
    return DrtmKvClient(server.catalog, qp, scratch_addr, 4096, scratch_mr.lkey)


# ---------------------------------------------------------------------------
# Local semantics
# ---------------------------------------------------------------------------


def test_put_get_roundtrip():
    _, _, store = _make_store()
    store.put(b"node3", b"\x01\x02\x03")
    assert store.get_local(b"node3") == b"\x01\x02\x03"


def test_get_missing_returns_none():
    _, _, store = _make_store()
    assert store.get_local(b"nope") is None


def test_put_overwrites():
    _, _, store = _make_store()
    store.put(b"k", b"v1")
    store.put(b"k", b"v2")
    assert store.get_local(b"k") == b"v2"
    assert store.size == 1


def test_delete_removes_and_reports():
    _, _, store = _make_store()
    store.put(b"k", b"v")
    assert store.delete(b"k") is True
    assert store.get_local(b"k") is None
    assert store.delete(b"k") is False
    assert store.size == 0


def test_reinsert_after_delete_reuses_tombstone():
    _, _, store = _make_store()
    store.put(b"k", b"v")
    store.delete(b"k")
    store.put(b"k", b"v2")
    assert store.get_local(b"k") == b"v2"
    assert store.size == 1


def test_overflow_probes_to_next_bucket():
    # Force many keys into one home bucket by brute-force search.
    _, _, store = _make_store(bucket_count=4)
    target = store.layout.bucket_index(key_fingerprint(b"seed"))
    colliders = [b"seed"]
    i = 0
    while len(colliders) < 7:
        key = f"k{i}".encode()
        if store.layout.bucket_index(key_fingerprint(key)) == target:
            colliders.append(key)
        i += 1
    for j, key in enumerate(colliders):
        store.put(key, f"value{j}".encode())
    for j, key in enumerate(colliders):
        assert store.get_local(key) == f"value{j}".encode()


def test_store_full_raises():
    _, _, store = _make_store(bucket_count=1)
    with pytest.raises(StoreFullError):
        for i in range(100):
            store.put(f"key{i}".encode(), b"v")


def test_heap_exhaustion_raises(monkeypatch):
    monkeypatch.setattr(kvs_store, "HEAP_BYTES", 256)
    sim = Simulator()
    cluster = Cluster(sim, num_nodes=1)
    store = DrtmKvServer(cluster.node(0), bucket_count=1024)
    with pytest.raises(StoreFullError):
        for i in range(100):
            store.put(f"key{i}".encode(), b"x" * 32)


def test_fingerprint_is_stable_and_nonzero():
    assert key_fingerprint(b"abc") == key_fingerprint(b"abc")
    assert key_fingerprint(b"abc") != key_fingerprint(b"abd")
    assert key_fingerprint(b"") != 0


# ---------------------------------------------------------------------------
# Property tests: the table behaves like a dict
# ---------------------------------------------------------------------------


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    ops=st.lists(
        st.tuples(
            st.sampled_from(["put", "delete"]),
            st.binary(min_size=1, max_size=12),
            st.binary(max_size=20),
        ),
        max_size=60,
    )
)
def test_store_matches_dict_model(ops):
    _, _, store = _make_store(bucket_count=64)
    model = {}
    for op, key, value in ops:
        if op == "put":
            store.put(key, value)
            model[key] = value
        else:
            assert store.delete(key) == (key in model)
            model.pop(key, None)
    for key, value in model.items():
        assert store.get_local(key) == value
    assert store.size == len(model)


@settings(max_examples=20, deadline=None)
@given(keys=st.sets(st.binary(min_size=1, max_size=8), min_size=1, max_size=30))
def test_absent_keys_stay_absent(keys):
    _, _, store = _make_store(bucket_count=64)
    present = {k for i, k in enumerate(sorted(keys)) if i % 2 == 0}
    for key in present:
        store.put(key, b"v:" + key)
    for key in keys:
        if key in present:
            assert store.get_local(key) == b"v:" + key
        else:
            assert store.get_local(key) is None


# ---------------------------------------------------------------------------
# Remote lookups via one-sided READ
# ---------------------------------------------------------------------------


def test_remote_lookup_returns_value():
    sim, cluster, store = _make_store()
    store.put(b"node7", b"\xaa" * 12)
    client = _make_client(sim, cluster, store)

    def proc():
        value = yield from client.lookup(b"node7")
        return value

    assert sim.run_process(proc()) == b"\xaa" * 12


def test_remote_lookup_missing_returns_none():
    sim, cluster, store = _make_store()
    store.put(b"other", b"x")
    client = _make_client(sim, cluster, store)

    def proc():
        return (yield from client.lookup(b"node7"))

    assert sim.run_process(proc()) is None


def test_remote_lookup_costs_two_reads():
    # §4.2 / Fig 9a: a hit costs exactly two one-sided READs.
    sim, cluster, store = _make_store()
    store.put(b"node7", b"m" * 12)
    client = _make_client(sim, cluster, store)

    def proc():
        yield from client.lookup(b"node7")

    sim.run_process(proc())
    assert client.stats_reads == 2


def test_remote_lookup_latency_is_few_microseconds():
    # §4.2: "it can find the DCT metadata of a given server in several
    # microseconds"; the qconnect budget allows ~4.5 us for the lookup.
    sim, cluster, store = _make_store()
    store.put(b"node7", b"m" * 12)
    client = _make_client(sim, cluster, store)

    def proc():
        yield from client.lookup(b"node7")
        return sim.now

    elapsed = sim.run_process(proc())
    assert 3_000 <= elapsed <= 6_000


def test_remote_lookup_agrees_with_local_for_many_keys():
    sim, cluster, store = _make_store(bucket_count=32)
    for i in range(40):
        store.put(f"key{i}".encode(), f"value{i}".encode())
    client = _make_client(sim, cluster, store)

    def proc():
        results = {}
        for i in range(40):
            key = f"key{i}".encode()
            results[key] = yield from client.lookup(key)
        return results

    results = sim.run_process(proc())
    for i in range(40):
        assert results[f"key{i}".encode()] == f"value{i}".encode()


def test_layout_rejects_non_power_of_two():
    with pytest.raises(ValueError):
        Layout(0, 100, 1024)


def test_bucket_fits_meta_lookup_budget():
    # One bucket READ (64B) plus one small record READ must stay within the
    # 2 x 2.25 us budget that makes qconnect 5.4 us (Fig 8a).
    assert BUCKET_BYTES == 64
    per_read_budget = timing.META_KV_READ_RTT_NS
    assert per_read_budget >= 2_150  # a READ round trip fits
