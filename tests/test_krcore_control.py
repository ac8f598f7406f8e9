"""KRCORE control-path tests: qconnect costs, DCCache, Algorithm 1."""

import pytest

from repro.cluster import timing
from repro.krcore import KrcoreError, KrcoreLib
from repro.sim import Simulator
from repro.verbs import QpType
from tests.conftest import krcore_cluster


@pytest.fixture
def env():
    sim = Simulator()
    cluster, meta, modules = krcore_cluster(sim, num_nodes=4)
    return sim, cluster, meta, modules


def test_qconnect_uncached_is_5_4us(env):
    sim, cluster, meta, modules = env
    lib = KrcoreLib(cluster.node(1))

    def proc():
        vqp = yield from lib.create_vqp()
        start = sim.now
        yield from lib.qconnect(vqp, cluster.node(2).gid)
        return sim.now - start, vqp

    elapsed, vqp = sim.run_process(proc())
    # Fig 8a: 5.4 us = syscall + 2 one-sided READs to the meta server.
    assert abs(elapsed - 5_400) < 800
    assert vqp.qp is not None
    assert vqp.qp.qp_type is QpType.DC
    assert vqp.dct_meta == modules[2].own_dct_meta


def test_qconnect_cached_is_0_9us(env):
    sim, cluster, meta, modules = env
    lib = KrcoreLib(cluster.node(1))
    target = cluster.node(2).gid

    def proc():
        first = yield from lib.create_vqp()
        yield from lib.qconnect(first, target)
        second = yield from lib.create_vqp()
        start = sim.now
        yield from lib.qconnect(second, target)
        return sim.now - start

    elapsed = sim.run_process(proc())
    # "Otherwise KRCORE only has system call overheads (0.9us)" (§5.1).
    assert abs(elapsed - timing.SYSCALL_NS) < 50


def test_qconnect_fills_dccache(env):
    sim, cluster, meta, modules = env
    lib = KrcoreLib(cluster.node(1))
    target = cluster.node(2).gid
    assert target not in modules[1].dc_cache

    def proc():
        vqp = yield from lib.create_vqp()
        yield from lib.qconnect(vqp, target)

    sim.run_process(proc())
    assert modules[1].dc_cache[target] == modules[2].own_dct_meta


def test_vqp_create_defers_physical_assignment(env):
    sim, cluster, meta, modules = env
    lib = KrcoreLib(cluster.node(1))

    def proc():
        vqp = yield from lib.create_vqp()
        return vqp

    vqp = sim.run_process(proc())
    # Algorithm 1 line 5: physical QP assigned only at qconnect.
    assert vqp.qp is None


def test_qconnect_prefers_pool_rc(env):
    sim, cluster, meta, modules = env
    target = cluster.node(2).gid
    # Plant an RCQP in node1's cpu-0 pool, as the background creator would.
    from tests.conftest import quick_rc_pair

    rc, _ = quick_rc_pair(cluster.node(1), cluster.node(2))
    modules[1].pool(0).insert_rc(target, rc)
    lib = KrcoreLib(cluster.node(1), cpu_id=0)

    def proc():
        vqp = yield from lib.create_vqp()
        yield from lib.qconnect(vqp, target)
        return vqp

    vqp = sim.run_process(proc())
    assert vqp.qp is rc
    assert vqp.is_rc_backed


def test_qconnect_unknown_node_raises(env):
    sim, cluster, meta, modules = env
    lib = KrcoreLib(cluster.node(1))

    def proc():
        vqp = yield from lib.create_vqp()
        with pytest.raises(KrcoreError):
            yield from lib.qconnect(vqp, "nowhere")

    sim.run_process(proc())


def test_reconnect_to_other_gid_rejected(env):
    sim, cluster, meta, modules = env
    lib = KrcoreLib(cluster.node(1))

    def proc():
        vqp = yield from lib.create_vqp()
        yield from lib.qconnect(vqp, cluster.node(2).gid)
        with pytest.raises(KrcoreError):
            yield from lib.qconnect(vqp, cluster.node(3).gid)

    sim.run_process(proc())


def test_pool_is_per_cpu(env):
    sim, cluster, meta, modules = env
    module = modules[1]
    assert module.pool(0) is not module.pool(1)
    assert module.pool(0).dc[0] is not module.pool(1).dc[0]
    # Round-robin DC selection inside one pool.
    pool = module.pool(0)
    first = pool.select_dc()
    second = pool.select_dc()
    assert first is not second or len(pool.dc) == 1


def test_connection_memory_is_small_and_constant(env):
    sim, cluster, meta, modules = env
    module = modules[1]
    pool = module.pool(0)
    entries, qps = len(module.dc_cache), (len(pool.dc), len(pool.rc))
    lib = KrcoreLib(cluster.node(1))

    def proc():
        for target in (2, 3):
            vqp = yield from lib.create_vqp()
            yield from lib.qconnect(vqp, cluster.node(target).gid)

    sim.run_process(proc())
    # Two new "connections" cost just two 12-byte DCT metadata entries,
    # and no QP.
    assert len(module.dc_cache) == entries + 2
    assert (len(pool.dc), len(pool.rc)) == qps


def test_meta_server_holds_all_boot_metadata(env):
    sim, cluster, meta, modules = env
    for module in modules:
        stored = meta.store.get_local(b"dct:" + module.node.gid.encode())
        assert stored is not None
