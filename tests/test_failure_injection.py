"""Failure injection: node death, metadata invalidation, QP repair.

§4.2: DCT metadata is "only invalidated when the corresponding host is
down" -- these tests exercise exactly those paths, plus the recovery of a
shared physical QP after a remote failure wrecks it.
"""

import pytest

from repro.krcore import KrcoreError, KrcoreLib
from repro.sim import MS, Simulator
from repro.verbs import QpState, WcStatus, WorkRequest
from tests.conftest import krcore_cluster


@pytest.fixture
def env():
    sim = Simulator()
    cluster, meta, modules = krcore_cluster(sim, num_nodes=4, background_rc=False)
    return sim, cluster, meta, modules


def _register(sim, lib, node, nbytes=4096):
    def proc():
        addr = node.memory.alloc(nbytes)
        region = yield from lib.reg_mr(addr, nbytes)
        return addr, region

    return sim.run_process(proc())


def test_qconnect_to_dead_node_fails_cleanly(env):
    sim, cluster, meta, modules = env
    victim = cluster.node(2)
    victim.fail()
    meta.retract_node(victim.gid)
    lib = KrcoreLib(cluster.node(1))

    def proc():
        vqp = yield from lib.create_vqp()
        with pytest.raises(KrcoreError):
            yield from lib.qconnect(vqp, victim.gid)

    sim.run_process(proc())


def test_read_after_remote_death_errors_and_qp_repairs(env):
    sim, cluster, meta, modules = env
    lib_s = KrcoreLib(cluster.node(2))
    raddr, rmr = _register(sim, lib_s, cluster.node(2))
    lib = KrcoreLib(cluster.node(1))
    laddr, lmr = _register(sim, lib, cluster.node(1))

    def proc():
        vqp = yield from lib.create_vqp()
        yield from lib.qconnect(vqp, cluster.node(2).gid)
        yield from lib.read_sync(vqp, laddr, lmr.lkey, raddr, rmr.rkey, 8)
        phys = vqp.qp
        cluster.node(2).fail()
        # The in-flight request fails: the user sees an error completion.
        yield from vqp.post_send(
            WorkRequest.read(laddr, 8, lmr.lkey, raddr, rmr.rkey)
        )
        entry = yield from vqp.wait_send_completion()
        assert entry.status is WcStatus.RETRY_EXC_ERR
        # The kernel repairs the shared physical QP in the background.
        yield 3 * MS
        assert phys.state is QpState.RTS
        return phys

    sim.run_process(proc())


def test_repaired_qp_carries_traffic_to_other_nodes(env):
    sim, cluster, meta, modules = env
    lib_2 = KrcoreLib(cluster.node(2))
    raddr2, rmr2 = _register(sim, lib_2, cluster.node(2))
    lib_3 = KrcoreLib(cluster.node(3))
    raddr3, rmr3 = _register(sim, lib_3, cluster.node(3))
    lib = KrcoreLib(cluster.node(1))
    laddr, lmr = _register(sim, lib, cluster.node(1))
    # A 1-DCQP pool: both VQPs share the same physical QP.
    pool = modules[1].pool(0)
    pool.dc = pool.dc[:1]

    def proc():
        vqp_dead = yield from lib.create_vqp()
        yield from lib.qconnect(vqp_dead, cluster.node(2).gid)
        vqp_live = yield from lib.create_vqp()
        yield from lib.qconnect(vqp_live, cluster.node(3).gid)
        assert vqp_dead.qp is vqp_live.qp
        cluster.node(2).fail()
        yield from vqp_dead.post_send(
            WorkRequest.read(laddr, 8, lmr.lkey, raddr2, rmr2.rkey)
        )
        entry = yield from vqp_dead.wait_send_completion()
        assert not entry.ok
        yield 3 * MS  # background repair
        # The innocent VQP sharing the QP works again after the repair.
        cluster.node(3).memory.write(raddr3, b"survivor")
        yield from lib.read_sync(vqp_live, laddr, lmr.lkey, raddr3, rmr3.rkey, 8)
        return cluster.node(1).memory.read(laddr, 8)

    assert sim.run_process(proc()) == b"survivor"


def test_post_to_wrecked_qp_raises_clean_error(env):
    sim, cluster, meta, modules = env
    lib_s = KrcoreLib(cluster.node(2))
    raddr, rmr = _register(sim, lib_s, cluster.node(2))
    lib = KrcoreLib(cluster.node(1))
    laddr, lmr = _register(sim, lib, cluster.node(1))

    def proc():
        vqp = yield from lib.create_vqp()
        yield from lib.qconnect(vqp, cluster.node(2).gid)
        yield from lib.read_sync(vqp, laddr, lmr.lkey, raddr, rmr.rkey, 8)
        cluster.node(2).fail()
        yield from vqp.post_send(WorkRequest.read(laddr, 8, lmr.lkey, raddr, rmr.rkey))
        yield from vqp.wait_send_completion()
        # Immediately reposting (before the background repair finishes)
        # surfaces a clean KRCORE error, not a corrupted-state crash.
        with pytest.raises(KrcoreError):
            yield from vqp.post_send(
                WorkRequest.read(laddr, 8, lmr.lkey, raddr, rmr.rkey)
            )

    sim.run_process(proc())


def test_fresh_connect_after_invalidation_fails_then_new_node_reuses_gid(env):
    sim, cluster, meta, modules = env
    victim = cluster.node(2)
    # The failure detector's one move (faults/injector.py): retract the
    # dead host at the meta plane.  The client's DCCache holds no entry,
    # so its qconnect looks the host up and fails typed.
    victim.fail()
    meta.retract_node(victim.gid)
    assert meta.store.get_local(b"dct:" + victim.gid.encode()) is None
    assert victim.gid not in modules[1].dc_cache
    lib = KrcoreLib(cluster.node(1))

    def proc():
        vqp = yield from lib.create_vqp()
        with pytest.raises(KrcoreError) as exc:
            yield from lib.qconnect(vqp, victim.gid)
        assert exc.value.code is WcStatus.REM_ACCESS_ERR

    sim.run_process(proc())

    # A replacement node comes up under the same address (gid reuse) and
    # broadcasts fresh metadata at boot.
    from repro.cluster.node import Node
    from repro.krcore import KrcoreModule

    replacement = Node(sim, cluster.fabric, victim.gid)
    module = KrcoreModule(replacement, meta, background_rc=False)
    lib2 = KrcoreLib(cluster.node(1))

    def proc2():
        vqp = yield from lib2.create_vqp()
        yield from lib2.qconnect(vqp, victim.gid)
        return vqp

    vqp = sim.run_process(proc2())
    assert vqp.dct_meta == module.own_dct_meta


def test_mr_retraction_blocks_new_validations(env):
    sim, cluster, meta, modules = env
    lib_s = KrcoreLib(cluster.node(2))
    raddr, rmr = _register(sim, lib_s, cluster.node(2))
    lib = KrcoreLib(cluster.node(1))
    laddr, lmr = _register(sim, lib, cluster.node(1))

    def proc():
        vqp = yield from lib.create_vqp()
        yield from lib.qconnect(vqp, cluster.node(2).gid)
        # Deregister before the client ever validated this MR.
        yield from lib_s.dereg_mr(rmr)
        with pytest.raises(KrcoreError):
            yield from lib.read_sync(vqp, laddr, lmr.lkey, raddr, rmr.rkey, 8)

    sim.run_process(proc())


def test_transfer_with_dead_peer_does_not_hang(env):
    sim, cluster, meta, modules = env
    server_node, client_node = cluster.node(2), cluster.node(1)
    lib_s = KrcoreLib(server_node)
    lib_c = KrcoreLib(client_node)
    PORT = 47
    saddr, smr = _register(sim, lib_s, server_node)
    caddr, cmr = _register(sim, lib_c, client_node)

    from repro.verbs import RecvBuffer
    from tests.conftest import quick_rc_pair

    def proc():
        server_vqp = yield from lib_s.create_vqp()
        yield from lib_s.qbind(server_vqp, PORT)
        yield from lib_s.post_recv(server_vqp, RecvBuffer(saddr, 512, smr.lkey))
        client_vqp = yield from lib_c.create_vqp()
        yield from lib_c.qconnect(client_vqp, server_node.gid, PORT)
        yield from lib_c.post_send(client_vqp, WorkRequest.send(caddr, 8, cmr.lkey))
        results = yield from lib_s.qpop_msgs_wait(server_vqp)
        reply_vqp = results[0][0]
        # The client dies; the server's transfer must not hang waiting for
        # an acknowledgment that can never arrive.
        client_node.fail()
        rc, _ = quick_rc_pair(server_node, client_node)
        start = sim.now
        yield from reply_vqp.transfer_to(rc)
        return sim.now - start

    elapsed = sim.run_process(proc())
    assert elapsed < 50 * 1_000_000  # bounded by the ack timeout
