"""Tests for the LITE baseline: caching, miss costs, and the overflow flaw."""

import pytest

from repro.cluster import Cluster, timing
from repro.lite import LiteError, LiteModule
from repro.sim import MS, Simulator, US
from repro.verbs import QpState
from repro.verbs.errors import QpOverflowError
from repro.verbs.wr import WorkRequest
from tests.conftest import register


def _make_env(num_nodes=3):
    sim = Simulator()
    cluster = Cluster(sim, num_nodes=num_nodes)
    modules = [LiteModule(node) for node in cluster.nodes]
    return sim, cluster, modules


def test_cache_miss_costs_about_2ms():
    sim, cluster, modules = _make_env()
    laddr, lmr = register(cluster.node(0), 64)
    raddr, rmr = register(cluster.node(1), 64)
    cluster.node(1).memory.write(raddr, b"litedata")

    def proc():
        yield from modules[0].read(
            cluster.node(1).gid, laddr, lmr.lkey, raddr, rmr.rkey, 8
        )
        return sim.now

    elapsed = sim.run_process(proc())
    # Issue #1: first contact pays Create+Configure (~2 ms) plus the read.
    assert 1_800 * US < elapsed < 2_600 * US
    assert cluster.node(0).memory.read(laddr, 8) == b"litedata"
    assert modules[0].stats_cache_misses == 1


def test_cache_hit_is_microseconds():
    sim, cluster, modules = _make_env()
    laddr, lmr = register(cluster.node(0), 64)
    raddr, rmr = register(cluster.node(1), 64)

    def proc():
        yield from modules[0].read(
            cluster.node(1).gid, laddr, lmr.lkey, raddr, rmr.rkey, 8
        )
        start = sim.now
        yield from modules[0].read(
            cluster.node(1).gid, laddr, lmr.lkey, raddr, rmr.rkey, 8
        )
        return sim.now - start

    elapsed = sim.run_process(proc())
    assert elapsed < 5 * US  # syscall + data path only
    assert modules[0].stats_cache_misses == 1


def test_concurrent_misses_share_one_handshake():
    sim, cluster, modules = _make_env()
    laddr, lmr = register(cluster.node(0), 64)
    raddr, rmr = register(cluster.node(1), 64)
    target = cluster.node(1).gid

    def one_read():
        yield from modules[0].read(target, laddr, lmr.lkey, raddr, rmr.rkey, 8)

    for _ in range(5):
        sim.process(one_read())
    sim.run()
    assert modules[0].stats_cache_misses == 1
    assert len(modules[0].pool) == 1


def test_write_roundtrip():
    sim, cluster, modules = _make_env()
    laddr, lmr = register(cluster.node(0), 64)
    raddr, rmr = register(cluster.node(1), 64)
    cluster.node(0).memory.write(laddr, b"from-lite")

    def proc():
        yield from modules[0].write(
            cluster.node(1).gid, laddr, lmr.lkey, raddr, rmr.rkey, 9
        )

    sim.run_process(proc())
    assert cluster.node(1).memory.read(raddr, 9) == b"from-lite"


def test_prewarm_gives_zero_cost_connection():
    sim, cluster, modules = _make_env()
    modules[0].prewarm(modules[1])
    laddr, lmr = register(cluster.node(0), 64)
    raddr, rmr = register(cluster.node(1), 64)

    def proc():
        yield from modules[0].read(
            cluster.node(1).gid, laddr, lmr.lkey, raddr, rmr.rkey, 8
        )
        return sim.now

    assert sim.run_process(proc()) < 5 * US
    assert modules[0].stats_cache_misses == 0


def test_accepted_connection_is_cached_on_server_too():
    sim, cluster, modules = _make_env()
    laddr, lmr = register(cluster.node(0), 64)
    raddr, rmr = register(cluster.node(1), 64)

    def proc():
        yield from modules[0].read(
            cluster.node(1).gid, laddr, lmr.lkey, raddr, rmr.rkey, 8
        )
        yield 2 * MS  # let the server finish configuring its side

    sim.run_process(proc())
    assert cluster.node(0).gid in modules[1].pool


def test_async_without_precheck_overflows_shared_qp():
    # Issue #3 / Fig 15b: concurrent posters with no capacity pre-check
    # overflow the shared QP and wreck it.
    sim, cluster, modules = _make_env()
    modules[0].prewarm(modules[1])
    laddr, lmr = register(cluster.node(0), 4096)
    raddr, rmr = register(cluster.node(1), 4096)
    target = cluster.node(1).gid
    window = 48
    failures = []

    def thread(index):
        wrs = [
            WorkRequest.read(laddr, 8, lmr.lkey, raddr, rmr.rkey, signaled=(i == window - 1))
            for i in range(window)
        ]
        yield index  # stagger starts by a nanosecond each
        try:
            modules[0].post_async(target, wrs)
        except QpOverflowError as exc:
            failures.append(exc)

    # 6 threads x 48 outstanding = 288 <= 292: fine.
    for i in range(6):
        sim.process(thread(i))
    sim.run()
    assert not failures
    assert modules[0].pool[target].state is not QpState.ERR

    # The 7th thread pushes it to 336 > 292: QP wrecked.
    sim2 = Simulator()
    cluster2 = Cluster(sim2, num_nodes=2)
    mods2 = [LiteModule(node) for node in cluster2.nodes]
    mods2[0].prewarm(mods2[1])
    laddr2, lmr2 = register(cluster2.node(0), 4096)
    raddr2, rmr2 = register(cluster2.node(1), 4096)
    failures2 = []

    def thread2(index):
        wrs = [
            WorkRequest.read(laddr2, 8, lmr2.lkey, raddr2, rmr2.rkey, signaled=(i == window - 1))
            for i in range(window)
        ]
        yield index
        try:
            mods2[0].post_async(cluster2.node(1).gid, wrs)
        except QpOverflowError as exc:
            failures2.append(exc)

    for i in range(7):
        sim2.process(thread2(i))
    sim2.run()
    assert failures2
    assert mods2[0].pool[cluster2.node(1).gid].state is QpState.ERR


def test_post_async_requires_cached_qp():
    sim, cluster, modules = _make_env()
    with pytest.raises(LiteError):
        modules[0].post_async(cluster.node(1).gid, [])


def test_memory_grows_linearly_with_cluster():
    # Issue #2 / Fig 15a: 5,000 cached RCQPs cost ~780 MB.
    per_qp = timing.RC_QP_MEMORY_BYTES
    assert LiteModule.cache_bytes_for(5_000) == 5_000 * per_qp
    assert 700e6 < LiteModule.cache_bytes_for(5_000) < 860e6
    assert LiteModule.cache_bytes_for(10_000) == 2 * LiteModule.cache_bytes_for(5_000)


