"""Tests for the QP transfer protocol (§4.6) and background RC creation."""

import pytest

from repro.cluster import timing
from repro.krcore import KrcoreLib
from repro.sim import MS, Simulator
from repro.verbs import QpType, RecvBuffer, WorkRequest
from tests.conftest import krcore_cluster, quick_rc_pair


@pytest.fixture
def env():
    sim = Simulator()
    cluster, meta, modules = krcore_cluster(sim, num_nodes=4)
    return sim, cluster, meta, modules


def _setup(sim, lib, node, nbytes=4096):
    def proc():
        addr = node.memory.alloc(nbytes)
        region = yield from lib.reg_mr(addr, nbytes)
        return addr, region

    return sim.run_process(proc())


def test_transfer_dc_to_rc_keeps_vqp_working(env):
    sim, cluster, meta, modules = env
    lib_s = KrcoreLib(cluster.node(2))
    raddr, rmr = _setup(sim, lib_s, cluster.node(2))
    cluster.node(2).memory.write(raddr, b"before+after")
    lib = KrcoreLib(cluster.node(1))
    laddr, lmr = _setup(sim, lib, cluster.node(1))

    def proc():
        vqp = yield from lib.create_vqp()
        yield from lib.qconnect(vqp, cluster.node(2).gid)
        assert vqp.qp.qp_type is QpType.DC
        yield from lib.read_sync(vqp, laddr, lmr.lkey, raddr, rmr.rkey, 6)
        # Plant an RCQP (as the background creator would) and transfer.
        rc, _ = quick_rc_pair(cluster.node(1), cluster.node(2))
        yield from vqp.transfer_to(rc)
        assert vqp.qp is rc
        yield from lib.read_sync(vqp, laddr + 16, lmr.lkey, raddr + 6, rmr.rkey, 6)
        return vqp

    vqp = sim.run_process(proc())
    assert vqp.is_rc_backed
    assert cluster.node(1).memory.read(laddr, 6) == b"before"
    assert cluster.node(1).memory.read(laddr + 16, 6) == b"+after"
    assert modules[1].stats_transfers == 1


def test_transfer_fences_old_qp_first(env):
    # The fake signaled fence means: by the time the swap happens, every
    # request previously posted on the old QP has completed (FIFO, §4.6).
    sim, cluster, meta, modules = env
    lib_s = KrcoreLib(cluster.node(2))
    raddr, rmr = _setup(sim, lib_s, cluster.node(2))
    lib = KrcoreLib(cluster.node(1))
    laddr, lmr = _setup(sim, lib, cluster.node(1))

    def proc():
        vqp = yield from lib.create_vqp()
        yield from lib.qconnect(vqp, cluster.node(2).gid)
        old_qp = vqp.qp
        # Leave 8 signaled reads in flight, unpolled.
        wrs = [
            WorkRequest.read(laddr, 8, lmr.lkey, raddr, rmr.rkey, wr_id=i)
            for i in range(8)
        ]
        yield from lib.post_send(vqp, wrs)
        rc, _ = quick_rc_pair(cluster.node(1), cluster.node(2))
        yield from vqp.transfer_to(rc)
        # The fence completed, which (by FIFO) implies all 8 reads
        # completed on the network; their completions are dispatchable.
        assert old_qp.outstanding == 0 or all(
            entry.ready for entry in vqp.comp_queue
        )
        for i in range(8):
            entry = yield from vqp.wait_send_completion()
            assert entry.ok and entry.wr_id == i

    sim.run_process(proc())


def test_background_rc_created_after_traffic_threshold():
    sim = Simulator()
    cluster, meta, modules = krcore_cluster(
        sim, num_nodes=3, rc_traffic_threshold=16
    )
    lib_s = KrcoreLib(cluster.node(2))
    raddr, rmr = _setup(sim, lib_s, cluster.node(2))
    lib = KrcoreLib(cluster.node(1))
    laddr, lmr = _setup(sim, lib, cluster.node(1))
    target = cluster.node(2).gid

    def proc():
        vqp = yield from lib.create_vqp()
        yield from lib.qconnect(vqp, target)
        assert vqp.qp.qp_type is QpType.DC
        for _ in range(20):  # cross the sampling threshold
            yield from lib.read_sync(vqp, laddr, lmr.lkey, raddr, rmr.rkey, 8)
        # Background creation runs off the critical path: give it time
        # (control path ~2.2 ms) and keep issuing.
        yield 5 * MS
        yield from lib.read_sync(vqp, laddr, lmr.lkey, raddr, rmr.rkey, 8)
        return vqp

    vqp = sim.run_process(proc())
    assert modules[1].pool(0).has_rc(target)
    assert vqp.is_rc_backed  # transparently transferred (Fig 16)
    assert modules[1].stats_transfers >= 1


def test_background_rc_not_created_for_light_traffic():
    sim = Simulator()
    cluster, meta, modules = krcore_cluster(
        sim, num_nodes=3, rc_traffic_threshold=1000
    )
    lib_s = KrcoreLib(cluster.node(2))
    raddr, rmr = _setup(sim, lib_s, cluster.node(2))
    lib = KrcoreLib(cluster.node(1))
    laddr, lmr = _setup(sim, lib, cluster.node(1))

    def proc():
        vqp = yield from lib.create_vqp()
        yield from lib.qconnect(vqp, cluster.node(2).gid)
        for _ in range(10):
            yield from lib.read_sync(vqp, laddr, lmr.lkey, raddr, rmr.rkey, 8)
        yield 5 * MS
        return vqp

    vqp = sim.run_process(proc())
    assert not modules[1].pool(0).has_rc(cluster.node(2).gid)
    assert not vqp.is_rc_backed


def test_lru_eviction_moves_vqps_back_to_dc():
    sim = Simulator()
    cluster, meta, modules = krcore_cluster(
        sim, num_nodes=5, rc_traffic_threshold=8, max_rc_per_cpu=1
    )
    targets = [cluster.node(2).gid, cluster.node(3).gid]
    lib = KrcoreLib(cluster.node(1))
    laddr, lmr = _setup(sim, lib, cluster.node(1))
    remotes = []
    for index in (2, 3):
        lib_r = KrcoreLib(cluster.node(index))
        remotes.append(_setup(sim, lib_r, cluster.node(index)))

    def proc():
        vqps = []
        for i, target in enumerate(targets):
            vqp = yield from lib.create_vqp()
            yield from lib.qconnect(vqp, target)
            vqps.append(vqp)
        # Hammer target 0 until it gets an RCQP.
        raddr, rmr = remotes[0]
        for _ in range(12):
            yield from lib.read_sync(vqps[0], laddr, lmr.lkey, raddr, rmr.rkey, 8)
        yield 5 * MS
        assert vqps[0].is_rc_backed
        # Now hammer target 1: with max_rc=1, target 0's RCQP is evicted.
        raddr, rmr = remotes[1]
        for _ in range(12):
            yield from lib.read_sync(vqps[1], laddr, lmr.lkey, raddr, rmr.rkey, 8)
        yield 8 * MS
        return vqps

    vqps = sim.run_process(proc())
    pool = modules[1].pool(0)
    assert pool.has_rc(targets[1])
    assert not pool.has_rc(targets[0])
    assert not vqps[0].is_rc_backed  # moved back onto DC
    assert vqps[1].is_rc_backed
    # Both VQPs still work after all the shuffling.
    lib2 = lib

    def after():
        raddr, rmr = remotes[0]
        yield from lib2.read_sync(vqps[0], laddr, lmr.lkey, raddr, rmr.rkey, 8)
        raddr, rmr = remotes[1]
        yield from lib2.read_sync(vqps[1], laddr, lmr.lkey, raddr, rmr.rkey, 8)

    sim.run_process(after())


def test_two_sided_transfer_notifies_peer(env):
    sim, cluster, meta, modules = env
    server_node, client_node = cluster.node(2), cluster.node(1)
    lib_s = KrcoreLib(server_node)
    lib_c = KrcoreLib(client_node)
    PORT = 13
    saddr, smr = _setup(sim, lib_s, server_node)
    caddr, cmr = _setup(sim, lib_c, client_node)
    client_node.memory.write(caddr, b"hello-xfer")

    def exchange():
        server_vqp = yield from lib_s.create_vqp()
        yield from lib_s.qbind(server_vqp, PORT)
        yield from lib_s.post_recv(server_vqp, RecvBuffer(saddr, 512, smr.lkey))
        client_vqp = yield from lib_c.create_vqp()
        yield from lib_c.qconnect(client_vqp, server_node.gid, PORT)
        yield from lib_c.post_send(client_vqp, WorkRequest.send(caddr, 10, cmr.lkey))
        results = yield from lib_s.qpop_msgs_wait(server_vqp)
        reply_vqp = results[0][0]
        # Transfer the reply VQP (it has a two-sided peer): the client's
        # kernel must be notified and acknowledge before the swap.
        rc, _ = quick_rc_pair(server_node, client_node)
        transfers_before = modules[1].stats_transfers
        yield from reply_vqp.transfer_to(rc)
        return reply_vqp, transfers_before

    reply_vqp, transfers_before = sim.run_process(exchange())
    assert reply_vqp.is_rc_backed
    # The peer (client) side re-virtualized too and sent the ack.
    assert modules[1].stats_transfers == transfers_before + 1


def test_thread_migration_revirtualizes_onto_new_pool(env):
    sim, cluster, meta, modules = env
    lib_s = KrcoreLib(cluster.node(2))
    raddr, rmr = _setup(sim, lib_s, cluster.node(2))
    cluster.node(2).memory.write(raddr, b"migrated")
    lib = KrcoreLib(cluster.node(1), cpu_id=0)
    laddr, lmr = _setup(sim, lib, cluster.node(1))
    module = modules[1]

    def proc():
        vqp = yield from lib.create_vqp()
        yield from lib.qconnect(vqp, cluster.node(2).gid)
        old_qp = vqp.qp
        assert old_qp in module.pool(0).dc
        # The owning thread migrates from CPU 0 to CPU 5.
        yield from module.migrate_vqp(vqp, 5)
        assert vqp.cpu_id == 5
        assert vqp.qp in module.pool(5).dc
        assert vqp.qp is not old_qp
        # Still fully functional after the migration.
        yield from lib.read_sync(vqp, laddr, lmr.lkey, raddr, rmr.rkey, 8)
        return cluster.node(1).memory.read(laddr, 8)

    assert sim.run_process(proc()) == b"migrated"


def test_thread_migration_prefers_rc_on_new_cpu(env):
    sim, cluster, meta, modules = env
    lib = KrcoreLib(cluster.node(1), cpu_id=0)
    module = modules[1]
    target = cluster.node(2).gid
    rc, _ = quick_rc_pair(cluster.node(1), cluster.node(2))
    module.pool(3).insert_rc(target, rc)

    def proc():
        vqp = yield from lib.create_vqp()
        yield from lib.qconnect(vqp, target)
        assert not vqp.is_rc_backed
        yield from module.migrate_vqp(vqp, 3)
        return vqp

    vqp = sim.run_process(proc())
    assert vqp.cpu_id == 3
    assert vqp.qp is rc


def test_post_during_transfer_waits_for_the_switch(env):
    # §4.6: nothing may follow the fence on the old QP.  A request the
    # owner posts between the fence's post and its completion used to land
    # on the old DCQP behind the fence; its completion went to the old CQ,
    # which nobody polls for this VQP once it has moved, and the waiter
    # slept forever (one leaked wr_id token, one not-ready comp_queue slot).
    sim, cluster, meta, modules = env
    lib_s = KrcoreLib(cluster.node(2))
    raddr, rmr = _setup(sim, lib_s, cluster.node(2))
    cluster.node(2).memory.write(raddr, b"in-fence")
    lib = KrcoreLib(cluster.node(1))
    laddr, lmr = _setup(sim, lib, cluster.node(1))
    module = modules[1]

    def proc():
        vqp = yield from lib.create_vqp()
        yield from lib.qconnect(vqp, cluster.node(2).gid)
        dc = vqp.qp
        rc, _ = quick_rc_pair(cluster.node(1), cluster.node(2))
        sim.process(vqp.transfer_to(rc))
        # Let the fence reach the wire, then post while it is in flight.
        yield timing.POST_SEND_CPU_NS + 1
        assert dc.outstanding == 1 and vqp.qp is dc
        yield from lib.read_sync(vqp, laddr, lmr.lkey, raddr, rmr.rkey, 8)
        return vqp, dc, rc

    vqp, dc, rc = sim.run_process(proc())
    assert vqp.qp is rc
    assert cluster.node(1).memory.read(laddr, 8) == b"in-fence"
    assert not module._wrid_tokens and not vqp.comp_queue
    assert dc.outstanding == 0 and rc.outstanding == 0


def test_harvest_under_churn_survives_background_promotion():
    # The shape that first showed the lost completion: a MicroView
    # collector reading pods serially while its VQPs are promoted to
    # background RCQPs and a churn driver retracts pods under it.
    import random

    from repro.apps.microview import KrcoreBackend, PodDirectory
    from repro.sim import US

    sim = Simulator()
    cluster, meta, modules = krcore_cluster(sim, num_nodes=5, background_rc=True)
    workers = [(cluster.node(2 + i), modules[2 + i]) for i in range(3)]
    directory = PodDirectory(workers)
    backend = KrcoreBackend(cluster.node(1))
    cycles = 40

    def deploy():
        yield from directory.deploy(12)
        yield from backend.connect(sorted(node.gid for node, _ in workers))
        nbytes = len(directory.pods) * directory.pod_bytes
        return (yield from backend.setup_buffer(nbytes))

    laddr, lkey = sim.run_process(deploy())
    rng = random.Random(1)
    victims = [rng.randrange(len(directory.pods)) for _ in range(cycles * 4)]
    harvesting = [True]

    def churn():
        for victim in victims:
            yield 60 * US
            if not harvesting[0]:
                return
            yield from directory.churn_one(directory.pods[victim])

    def collect():
        for _ in range(cycles):
            yield from backend.harvest_serial(directory.targets(), laddr, lkey)
            yield 20 * US
        harvesting[0] = False

    sim.process(churn())
    sim.run_process(collect())  # hung here: "process collect did not finish"
    sim.run()
    assert modules[1].stats_transfers == 3  # every VQP was promoted mid-run
    assert not modules[1]._wrid_tokens
    assert all(not vqp.comp_queue for vqp in backend._vqps.values())
