"""Coverage for the user-space API shim (repro.krcore.api)."""

import pytest

from repro.cluster import timing
from repro.krcore import KrcoreError, KrcoreLib
from repro.sim import Simulator, US
from repro.verbs import RecvBuffer, WorkRequest
from tests.conftest import krcore_cluster


@pytest.fixture
def env():
    sim = Simulator()
    cluster, meta, modules = krcore_cluster(sim, num_nodes=4, background_rc=False)
    return sim, cluster, meta, modules


def _setup(sim, lib, node, nbytes=4096):
    def proc():
        addr = node.memory.alloc(nbytes)
        region = yield from lib.reg_mr(addr, nbytes)
        return addr, region

    return sim.run_process(proc())


def test_lib_requires_module():
    sim = Simulator()
    from repro.cluster import Cluster

    cluster = Cluster(sim, num_nodes=1)
    with pytest.raises(KrcoreError):
        KrcoreLib(cluster.node(0))


def test_every_call_charges_one_syscall(env):
    sim, cluster, meta, modules = env
    lib = KrcoreLib(cluster.node(1))

    def proc():
        start = sim.now
        vqp = yield from lib.create_vqp()
        return sim.now - start, vqp

    elapsed, _ = sim.run_process(proc())
    assert elapsed == timing.SYSCALL_NS


def test_charge_syscall_false_is_free(env):
    sim, cluster, meta, modules = env
    lib = KrcoreLib(cluster.node(1), charge_syscall=False)

    def proc():
        start = sim.now
        yield from lib.create_vqp()
        return sim.now - start

    assert sim.run_process(proc()) == 0


def test_poll_cq_nonblocking_returns_none_then_entry(env):
    sim, cluster, meta, modules = env
    lib_s = KrcoreLib(cluster.node(2))
    raddr, rmr = _setup(sim, lib_s, cluster.node(2))
    lib = KrcoreLib(cluster.node(1))
    laddr, lmr = _setup(sim, lib, cluster.node(1))

    def proc():
        vqp = yield from lib.create_vqp()
        yield from lib.qconnect(vqp, cluster.node(2).gid)
        empty = yield from lib.poll_cq(vqp)
        yield from lib.post_send(
            vqp, WorkRequest.read(laddr, 8, lmr.lkey, raddr, rmr.rkey, wr_id=3)
        )
        yield 100_000
        entry = yield from lib.poll_cq(vqp)
        return empty, entry

    empty, entry = sim.run_process(proc())
    assert empty is None
    assert entry.ok and entry.wr_id == 3


def test_post_send_multi_posts_across_vqps(env):
    sim, cluster, meta, modules = env
    libs_remote = [KrcoreLib(cluster.node(i)) for i in (2, 3)]
    remotes = [_setup(sim, libs_remote[i], cluster.node(i + 2)) for i in range(2)]
    lib = KrcoreLib(cluster.node(1))
    laddr, lmr = _setup(sim, lib, cluster.node(1))
    cluster.node(2).memory.write(remotes[0][0], b"from-two")
    cluster.node(3).memory.write(remotes[1][0], b"from-tre")

    def proc():
        vqps = []
        for index in (2, 3):
            vqp = yield from lib.create_vqp()
            yield from lib.qconnect(vqp, cluster.node(index).gid)
            vqps.append(vqp)
        posts = [
            (vqps[0], [WorkRequest.read(laddr, 8, lmr.lkey, remotes[0][0], remotes[0][1].rkey)]),
            (vqps[1], [WorkRequest.read(laddr + 8, 8, lmr.lkey, remotes[1][0], remotes[1][1].rkey)]),
        ]
        yield from lib.post_send_multi(posts)
        for vqp in vqps:
            entry = yield from vqp.wait_send_completion()
            assert entry.ok

    sim.run_process(proc())
    assert cluster.node(1).memory.read(laddr, 16) == b"from-twofrom-tre"


def test_write_sync_and_send_sync(env):
    sim, cluster, meta, modules = env
    lib_s = KrcoreLib(cluster.node(2))
    raddr, rmr = _setup(sim, lib_s, cluster.node(2))
    lib = KrcoreLib(cluster.node(1))
    laddr, lmr = _setup(sim, lib, cluster.node(1))
    cluster.node(1).memory.write(laddr, b"sync-write")

    def proc():
        vqp = yield from lib.create_vqp()
        yield from lib.qconnect(vqp, cluster.node(2).gid, 31)
        yield from lib.write_sync(vqp, laddr, lmr.lkey, raddr, rmr.rkey, 10)
        # send_sync needs a bound receiver.
        server_vqp = yield from lib_s.create_vqp()
        yield from lib_s.qbind(server_vqp, 31)
        yield from lib_s.post_recv(server_vqp, RecvBuffer(raddr + 1024, 512, rmr.lkey))
        entry = yield from lib.send_sync(vqp, laddr, lmr.lkey, 10)
        assert entry.ok
        results = yield from lib_s.qpop_msgs_wait(server_vqp)
        return results

    results = sim.run_process(proc())
    assert cluster.node(2).memory.read(raddr, 10) == b"sync-write"
    assert cluster.node(2).memory.read(raddr + 1024, 10) == b"sync-write"
    assert len(results) == 1


def test_post_send_and_wait_rejects_a_list_with_no_signaled_wr(env):
    """The blocking ioctl has nothing to block on: before the fix it
    posted, waited for no completion and returned None."""
    sim, cluster, meta, modules = env
    lib_s = KrcoreLib(cluster.node(2))
    raddr, rmr = _setup(sim, lib_s, cluster.node(2))
    lib = KrcoreLib(cluster.node(1))
    laddr, lmr = _setup(sim, lib, cluster.node(1))

    def proc():
        vqp = yield from lib.create_vqp()
        yield from lib.qconnect(vqp, cluster.node(2).gid)
        wrs = [
            WorkRequest.read(laddr, 8, lmr.lkey, raddr, rmr.rkey, signaled=False)
            for _ in range(2)
        ]
        start, posted = sim.now, vqp.qp._posted
        with pytest.raises(KrcoreError, match="no signaled WR"):
            yield from lib.post_send_and_wait(vqp, wrs)
        # Rejected before the syscall was charged or anything was posted.
        assert (sim.now, vqp.qp._posted) == (start, posted)
        wrs[-1].signaled = True
        entry = yield from lib.post_send_and_wait(vqp, wrs)
        return entry

    assert sim.run_process(proc()).ok


def test_qpop_respects_max_msgs(env):
    sim, cluster, meta, modules = env
    lib_s = KrcoreLib(cluster.node(2))
    raddr, rmr = _setup(sim, lib_s, cluster.node(2))
    lib = KrcoreLib(cluster.node(1))
    laddr, lmr = _setup(sim, lib, cluster.node(1))
    PORT = 33

    def proc():
        server_vqp = yield from lib_s.create_vqp()
        yield from lib_s.qbind(server_vqp, PORT)
        for i in range(6):
            yield from lib_s.post_recv(
                server_vqp, RecvBuffer(raddr + i * 64, 64, rmr.lkey, wr_id=i)
            )
        vqp = yield from lib.create_vqp()
        yield from lib.qconnect(vqp, cluster.node(2).gid, PORT)
        for _ in range(5):
            yield from lib.post_send(vqp, WorkRequest.send(laddr, 8, lmr.lkey))
        yield 200_000
        first = yield from lib_s.qpop_msgs(server_vqp, max_msgs=2)
        rest = yield from lib_s.qpop_msgs(server_vqp, max_msgs=16)
        return first, rest

    first, rest = sim.run_process(proc())
    assert len(first) == 2
    assert len(rest) == 3


def test_qpop_on_unbound_vqp_rejected(env):
    sim, cluster, meta, modules = env
    lib = KrcoreLib(cluster.node(1))

    def proc():
        vqp = yield from lib.create_vqp()
        with pytest.raises(KrcoreError):
            yield from lib.qpop_msgs(vqp)

    sim.run_process(proc())


def test_messages_wait_for_user_buffers(env):
    # ibv_post_recv after the message arrived: delivery is deferred, not
    # dropped (the kernel holds it in its own buffers).
    sim, cluster, meta, modules = env
    lib_s = KrcoreLib(cluster.node(2))
    raddr, rmr = _setup(sim, lib_s, cluster.node(2))
    lib = KrcoreLib(cluster.node(1))
    laddr, lmr = _setup(sim, lib, cluster.node(1))
    cluster.node(1).memory.write(laddr, b"deferred")
    PORT = 34

    def proc():
        server_vqp = yield from lib_s.create_vqp()
        yield from lib_s.qbind(server_vqp, PORT)
        vqp = yield from lib.create_vqp()
        yield from lib.qconnect(vqp, cluster.node(2).gid, PORT)
        yield from lib.post_send(vqp, WorkRequest.send(laddr, 8, lmr.lkey))
        yield 200_000
        nothing = yield from lib_s.qpop_msgs(server_vqp)
        assert nothing == []  # no user buffer posted yet
        yield from lib_s.post_recv(server_vqp, RecvBuffer(raddr, 64, rmr.lkey))
        results = yield from lib_s.qpop_msgs(server_vqp)
        return results

    results = sim.run_process(proc())
    assert len(results) == 1
    assert cluster.node(2).memory.read(raddr, 8) == b"deferred"


def test_dereg_then_use_own_lkey_rejected(env):
    sim, cluster, meta, modules = env
    lib_s = KrcoreLib(cluster.node(2))
    raddr, rmr = _setup(sim, lib_s, cluster.node(2))
    lib = KrcoreLib(cluster.node(1))
    laddr, lmr = _setup(sim, lib, cluster.node(1))

    def proc():
        vqp = yield from lib.create_vqp()
        yield from lib.qconnect(vqp, cluster.node(2).gid)
        yield from lib.dereg_mr(lmr)
        with pytest.raises(KrcoreError):
            yield from lib.post_send(
                vqp, WorkRequest.read(laddr, 8, lmr.lkey, raddr, rmr.rkey)
            )

    sim.run_process(proc())
