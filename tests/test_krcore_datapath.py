"""KRCORE data-path tests: one-sided ops, MR validation, two-sided
messaging, zero-copy, and the shared-QP protection of Algorithm 2."""

import pytest

from repro import obs
from repro.cluster import timing
from repro.krcore import KrcoreError, KrcoreLib
from repro.sim import Simulator, US
from repro.verbs import Opcode, QpState, RecvBuffer, WorkRequest
from tests.conftest import krcore_cluster, quick_rc_pair

#: The paper's Fig 12a target: an MRStore miss adds ~4.5 us (one ValidMR
#: lookup at the meta server = 2 READs).
MR_CHECK_MISS_NS = 4_500


@pytest.fixture
def env():
    sim = Simulator()
    cluster, meta, modules = krcore_cluster(sim, num_nodes=4)
    return sim, cluster, meta, modules


def _setup_buffers(sim, lib, node, nbytes=4096):
    """Allocate + register a buffer through KRCORE (records it in ValidMR)."""

    def proc():
        addr = node.memory.alloc(nbytes)
        region = yield from lib.reg_mr(addr, nbytes)
        return addr, region

    return sim.run_process(proc())


def _connect(sim, lib, gid, port=0):
    def proc():
        vqp = yield from lib.create_vqp()
        yield from lib.qconnect(vqp, gid, port)
        return vqp

    return sim.run_process(proc())


# ---------------------------------------------------------------------------
# One-sided ops
# ---------------------------------------------------------------------------


def test_read_moves_bytes_through_vqp(env):
    sim, cluster, meta, modules = env
    lib_c = KrcoreLib(cluster.node(1))
    lib_s = KrcoreLib(cluster.node(2))
    laddr, lmr = _setup_buffers(sim, lib_c, cluster.node(1))
    raddr, rmr = _setup_buffers(sim, lib_s, cluster.node(2))
    cluster.node(2).memory.write(raddr, b"krcore-read")
    vqp = _connect(sim, lib_c, cluster.node(2).gid)

    def proc():
        yield from lib_c.read_sync(vqp, laddr, lmr.lkey, raddr, rmr.rkey, 11)

    sim.run_process(proc())
    assert cluster.node(1).memory.read(laddr, 11) == b"krcore-read"


def test_write_moves_bytes_through_vqp(env):
    sim, cluster, meta, modules = env
    lib_c = KrcoreLib(cluster.node(1))
    lib_s = KrcoreLib(cluster.node(2))
    laddr, lmr = _setup_buffers(sim, lib_c, cluster.node(1))
    raddr, rmr = _setup_buffers(sim, lib_s, cluster.node(2))
    cluster.node(1).memory.write(laddr, b"vqp-write")
    vqp = _connect(sim, lib_c, cluster.node(2).gid)

    def proc():
        yield from lib_c.write_sync(vqp, laddr, lmr.lkey, raddr, rmr.rkey, 9)

    sim.run_process(proc())
    assert cluster.node(2).memory.read(raddr, 9) == b"vqp-write"


def test_sync_read_latency_is_3_15us_warm(env):
    # Fig 10a / Fig 12a: KRCORE sync 8B READ = 3.15 us (RC) / 3.24 us (DC);
    # the ~1 us over verbs is the syscall.
    sim, cluster, meta, modules = env
    lib_c = KrcoreLib(cluster.node(1))
    lib_s = KrcoreLib(cluster.node(2))
    laddr, lmr = _setup_buffers(sim, lib_c, cluster.node(1))
    raddr, rmr = _setup_buffers(sim, lib_s, cluster.node(2))
    vqp = _connect(sim, lib_c, cluster.node(2).gid)

    def proc():
        # Warm the MRStore (first op pays the +4.5 us validation miss).
        yield from lib_c.read_sync(vqp, laddr, lmr.lkey, raddr, rmr.rkey, 8)
        start = sim.now
        yield from lib_c.read_sync(vqp, laddr, lmr.lkey, raddr, rmr.rkey, 8)
        return sim.now - start

    latency = sim.run_process(proc())
    assert abs(latency - 3_240) < 350  # DC-backed, same target: ~3.2 us


def test_mr_validation_miss_costs_4_5us(env):
    # Fig 12a: "+MR miss" adds ~4.5 us (one ValidMR lookup = 2 READs).
    sim, cluster, meta, modules = env
    lib_c = KrcoreLib(cluster.node(1))
    lib_s = KrcoreLib(cluster.node(2))
    laddr, lmr = _setup_buffers(sim, lib_c, cluster.node(1))
    raddr, rmr = _setup_buffers(sim, lib_s, cluster.node(2))
    vqp = _connect(sim, lib_c, cluster.node(2).gid)

    def timed_read():
        start = sim.now
        yield from lib_c.read_sync(vqp, laddr, lmr.lkey, raddr, rmr.rkey, 8)
        return sim.now - start

    with obs.observe() as (_tracer, metrics):
        cold = sim.run_process(timed_read())
        warm = sim.run_process(timed_read())
    assert abs((cold - warm) - MR_CHECK_MISS_NS) < 1_200
    assert metrics.value("krcore.mrstore_misses") == 1
    assert metrics.value("krcore.mrstore_hits") >= 1


def test_mr_lease_expiry_forces_revalidation(env):
    sim, cluster, meta, modules = env
    lib_c = KrcoreLib(cluster.node(1))
    lib_s = KrcoreLib(cluster.node(2))
    laddr, lmr = _setup_buffers(sim, lib_c, cluster.node(1))
    raddr, rmr = _setup_buffers(sim, lib_s, cluster.node(2))
    vqp = _connect(sim, lib_c, cluster.node(2).gid)

    def proc():
        yield from lib_c.read_sync(vqp, laddr, lmr.lkey, raddr, rmr.rkey, 8)
        yield timing.MR_LEASE_NS + 1  # cross a lease boundary
        yield from lib_c.read_sync(vqp, laddr, lmr.lkey, raddr, rmr.rkey, 8)

    with obs.observe() as (_tracer, metrics):
        sim.run_process(proc())
    assert metrics.value("krcore.mrstore_misses") == 2


def test_deregistered_mr_rejected_after_lease(env):
    sim, cluster, meta, modules = env
    lib_c = KrcoreLib(cluster.node(1))
    lib_s = KrcoreLib(cluster.node(2))
    laddr, lmr = _setup_buffers(sim, lib_c, cluster.node(1))
    raddr, rmr = _setup_buffers(sim, lib_s, cluster.node(2))
    vqp = _connect(sim, lib_c, cluster.node(2).gid)

    def proc():
        yield from lib_c.read_sync(vqp, laddr, lmr.lkey, raddr, rmr.rkey, 8)
        yield from lib_s.dereg_mr(rmr)
        # Within the lease the cached entry may still let reads through --
        # and the memory is still registered, so that is safe (§4.2).
        yield from lib_c.read_sync(vqp, laddr, lmr.lkey, raddr, rmr.rkey, 8)
        yield timing.MR_LEASE_NS * 2
        with pytest.raises(KrcoreError):
            yield from lib_c.read_sync(vqp, laddr, lmr.lkey, raddr, rmr.rkey, 8)

    sim.run_process(proc())


# ---------------------------------------------------------------------------
# Algorithm 2: shared-QP protection
# ---------------------------------------------------------------------------


def test_malformed_opcode_rejected_without_qp_damage(env):
    sim, cluster, meta, modules = env
    lib = KrcoreLib(cluster.node(1))
    laddr, lmr = _setup_buffers(sim, lib, cluster.node(1))
    vqp = _connect(sim, lib, cluster.node(2).gid)

    def proc():
        bad = WorkRequest(Opcode.RECV, laddr=laddr, length=8, lkey=lmr.lkey)
        with pytest.raises(KrcoreError):
            yield from lib.post_send(vqp, bad)

    sim.run_process(proc())
    assert vqp.qp.state is QpState.RTS  # the shared physical QP survived


def test_invalid_local_mr_rejected_without_qp_damage(env):
    sim, cluster, meta, modules = env
    lib_s = KrcoreLib(cluster.node(2))
    raddr, rmr = _setup_buffers(sim, lib_s, cluster.node(2))
    lib = KrcoreLib(cluster.node(1))
    vqp = _connect(sim, lib, cluster.node(2).gid)

    def proc():
        bad = WorkRequest.read(0, 8, 999_999, raddr, rmr.rkey)
        with pytest.raises(KrcoreError):
            yield from lib.post_send(vqp, bad)

    sim.run_process(proc())
    assert vqp.qp.state is QpState.RTS


def test_invalid_remote_mr_rejected_without_qp_damage(env):
    sim, cluster, meta, modules = env
    lib = KrcoreLib(cluster.node(1))
    laddr, lmr = _setup_buffers(sim, lib, cluster.node(1))
    vqp = _connect(sim, lib, cluster.node(2).gid)

    def proc():
        bad = WorkRequest.read(laddr, 8, lmr.lkey, 0, 999_999)
        with pytest.raises(KrcoreError):
            yield from lib.post_send(vqp, bad)

    sim.run_process(proc())
    assert vqp.qp.state is QpState.RTS


def test_out_of_bounds_remote_access_rejected(env):
    sim, cluster, meta, modules = env
    lib_s = KrcoreLib(cluster.node(2))
    raddr, rmr = _setup_buffers(sim, lib_s, cluster.node(2), nbytes=128)
    lib = KrcoreLib(cluster.node(1))
    laddr, lmr = _setup_buffers(sim, lib, cluster.node(1))
    vqp = _connect(sim, lib, cluster.node(2).gid)

    def proc():
        bad = WorkRequest.read(laddr, 256, lmr.lkey, raddr, rmr.rkey)
        with pytest.raises(KrcoreError):
            yield from lib.post_send(vqp, bad)

    sim.run_process(proc())
    assert vqp.qp.state is QpState.RTS


def test_rejected_batch_posts_nothing(env):
    # Algorithm 2 lines 6-7: the whole list is rejected before posting.
    sim, cluster, meta, modules = env
    lib_s = KrcoreLib(cluster.node(2))
    raddr, rmr = _setup_buffers(sim, lib_s, cluster.node(2))
    lib = KrcoreLib(cluster.node(1))
    laddr, lmr = _setup_buffers(sim, lib, cluster.node(1))
    vqp = _connect(sim, lib, cluster.node(2).gid)

    def proc():
        good = WorkRequest.read(laddr, 8, lmr.lkey, raddr, rmr.rkey)
        bad = WorkRequest.read(laddr, 8, lmr.lkey, 0, 999_999)
        with pytest.raises(KrcoreError):
            yield from lib.post_send(vqp, [good, bad])

    sim.run_process(proc())
    assert not any(token.vqp is vqp for token in modules[1].wrid_tokens.values())
    assert len(vqp.comp_queue) == 0


def test_huge_batch_never_overflows_physical_qp(env):
    # Algorithm 2 lines 2-3 + segmentation: post 4x the queue depth.
    sim, cluster, meta, modules = env
    lib_s = KrcoreLib(cluster.node(2))
    raddr, rmr = _setup_buffers(sim, lib_s, cluster.node(2))
    lib = KrcoreLib(cluster.node(1))
    laddr, lmr = _setup_buffers(sim, lib, cluster.node(1))
    vqp = _connect(sim, lib, cluster.node(2).gid)
    depth = vqp_depth = None

    def proc():
        nonlocal vqp_depth
        vqp_depth = vqp.qp.sq_depth
        total = vqp_depth * 4
        wrs = [
            WorkRequest.read(laddr, 8, lmr.lkey, raddr, rmr.rkey, wr_id=i)
            for i in range(total)
        ]
        yield from lib.post_send(vqp, wrs)
        seen = 0
        while seen < total:
            entry = yield from vqp.wait_send_completion()
            assert entry.ok
            seen += 1
        return seen

    seen = sim.run_process(proc())
    assert seen == vqp_depth * 4
    assert vqp.qp.state is QpState.RTS


def test_unsignaled_batches_complete_in_order(env):
    sim, cluster, meta, modules = env
    lib_s = KrcoreLib(cluster.node(2))
    raddr, rmr = _setup_buffers(sim, lib_s, cluster.node(2))
    lib = KrcoreLib(cluster.node(1))
    laddr, lmr = _setup_buffers(sim, lib, cluster.node(1))
    vqp = _connect(sim, lib, cluster.node(2).gid)

    def proc():
        wrs = []
        for i in range(16):
            signaled = i % 4 == 3  # every 4th signaled
            wrs.append(
                WorkRequest.read(
                    laddr, 8, lmr.lkey, raddr, rmr.rkey, wr_id=i, signaled=signaled
                )
            )
        yield from lib.post_send(vqp, wrs)
        ids = []
        for _ in range(4):
            entry = yield from vqp.wait_send_completion()
            ids.append(entry.wr_id)
        return ids

    assert sim.run_process(proc()) == [3, 7, 11, 15]


def test_two_vqps_share_one_physical_qp_without_crosstalk(env):
    sim, cluster, meta, modules = env
    lib_s = KrcoreLib(cluster.node(2))
    raddr, rmr = _setup_buffers(sim, lib_s, cluster.node(2))
    lib = KrcoreLib(cluster.node(1))
    laddr, lmr = _setup_buffers(sim, lib, cluster.node(1))
    # Same cpu, same target: with a 2-DCQP pool and round-robin selection,
    # connect enough VQPs that at least two share a physical QP.
    vqps = [_connect(sim, lib, cluster.node(2).gid) for _ in range(4)]
    shared = {}
    for vqp in vqps:
        shared.setdefault(id(vqp.qp), []).append(vqp)
    pair = next(group for group in shared.values() if len(group) >= 2)
    a, b = pair[0], pair[1]
    results = {}

    def worker(vqp, tag, count):
        for i in range(count):
            wr = WorkRequest.read(laddr, 8, lmr.lkey, raddr, rmr.rkey, wr_id=(tag, i))
            yield from lib.post_send(vqp, wr)
            entry = yield from vqp.wait_send_completion()
            assert entry.ok
            assert entry.wr_id == (tag, i)  # dispatched to the right VQP
        results[tag] = count

    sim.process(worker(a, "a", 10))
    sim.process(worker(b, "b", 10))
    sim.run()
    assert results == {"a": 10, "b": 10}


# ---------------------------------------------------------------------------
# Two-sided: qbind / qpop_msgs / echo
# ---------------------------------------------------------------------------


def _echo_server(sim, lib, vqp, bufs, stop_after):
    """The Fig 7 server: qbind'ed VQP, qpop loop, echo each message."""

    def server():
        served = 0
        replies = []
        while served < stop_after:
            results = yield from lib.post_and_qpop(vqp, replies)
            replies = []
            for src_vqp, completion in results:
                # Echo straight back out of the buffer the payload landed in.
                buf = bufs[completion.wr_id]
                yield timing.TWO_SIDED_SERVER_CPU_NS  # app handler cost
                replies.append(
                    (src_vqp, [WorkRequest.send(buf.addr, completion.byte_len, buf.lkey)])
                )
                served += 1
                vqp.post_recv(buf)  # repost for the next message
        # Flush the final replies.
        for src_vqp, wr_list in replies:
            yield from lib.post_send(src_vqp, wr_list)

    return sim.process(server(), name="echo-server")


def test_two_sided_echo_roundtrip(env):
    sim, cluster, meta, modules = env
    server_node, client_node = cluster.node(2), cluster.node(1)
    lib_s = KrcoreLib(server_node)
    lib_c = KrcoreLib(client_node)
    PORT = 7

    saddr, smr = _setup_buffers(sim, lib_s, server_node)
    caddr, cmr = _setup_buffers(sim, lib_c, client_node)
    client_node.memory.write(caddr, b"ping-krc")

    def setup_server():
        vqp = yield from lib_s.create_vqp()
        yield from lib_s.qbind(vqp, PORT)
        bufs = {}
        for i in range(4):
            buf = RecvBuffer(saddr + i * 512, 512, smr.lkey, wr_id=i)
            bufs[i] = buf
            yield from lib_s.post_recv(vqp, buf)
        return vqp, bufs

    server_vqp, bufs = sim.run_process(setup_server())
    _echo_server(sim, lib_s, server_vqp, bufs, stop_after=1)

    def client():
        vqp = yield from lib_c.create_vqp()
        yield from lib_c.qconnect(vqp, server_node.gid, PORT)
        reply_buf = RecvBuffer(caddr + 2048, 512, cmr.lkey, wr_id=99)
        yield from lib_c.post_recv(vqp, reply_buf)
        completion = yield from lib_c.send_and_recv(
            vqp, WorkRequest.send(caddr, 8, cmr.lkey)
        )
        return completion

    completion = sim.run_process(client())
    assert completion.ok
    assert completion.byte_len == 8
    assert client_node.memory.read(caddr + 2048, 8) == b"ping-krc"


def test_qpop_creates_reply_vqp_without_network(env):
    sim, cluster, meta, modules = env
    server_node, client_node = cluster.node(2), cluster.node(1)
    lib_s = KrcoreLib(server_node)
    lib_c = KrcoreLib(client_node)
    PORT = 8
    saddr, smr = _setup_buffers(sim, lib_s, server_node)
    caddr, cmr = _setup_buffers(sim, lib_c, client_node)

    def setup_and_exchange():
        server_vqp = yield from lib_s.create_vqp()
        yield from lib_s.qbind(server_vqp, PORT)
        yield from lib_s.post_recv(server_vqp, RecvBuffer(saddr, 512, smr.lkey))
        client_vqp = yield from lib_c.create_vqp()
        yield from lib_c.qconnect(client_vqp, server_node.gid, PORT)
        yield from lib_c.post_send(client_vqp, WorkRequest.send(caddr, 8, cmr.lkey))
        meta_lookups_before = modules[2].meta_client(0).kv.stats_reads
        results = yield from lib_s.qpop_msgs_wait(server_vqp)
        meta_lookups_after = modules[2].meta_client(0).kv.stats_reads
        return results, client_vqp, meta_lookups_before, meta_lookups_after

    results, client_vqp, before, after = sim.run_process(setup_and_exchange())
    assert len(results) == 1
    src_vqp, completion = results[0]
    # The reply VQP is connected to the sender via the piggybacked DCT
    # metadata: no meta-server lookup happened (§4.4).
    assert after == before
    assert src_vqp.remote_gid == client_node.gid
    assert src_vqp.two_sided.peer == (client_node.gid, client_vqp.id)
    assert completion.src == (client_node.gid, client_vqp.id)


def test_qbind_reserved_port_rejected(env):
    sim, cluster, meta, modules = env
    lib = KrcoreLib(cluster.node(1))

    def proc():
        vqp = yield from lib.create_vqp()
        with pytest.raises(KrcoreError):
            yield from lib.qbind(vqp, 0)

    sim.run_process(proc())


# ---------------------------------------------------------------------------
# Zero-copy protocol (§4.5)
# ---------------------------------------------------------------------------


def test_large_message_uses_zero_copy_and_is_byte_exact(env):
    sim, cluster, meta, modules = env
    server_node, client_node = cluster.node(2), cluster.node(1)
    lib_s = KrcoreLib(server_node)
    lib_c = KrcoreLib(client_node)
    PORT = 9
    size = 32 * 1024  # 32 KB: far above the 4 KB kernel buffers

    def setup():
        saddr = server_node.memory.alloc(size + 4096)
        smr = yield from lib_s.reg_mr(saddr, size + 4096)
        caddr = client_node.memory.alloc(size)
        cmr = yield from lib_c.reg_mr(caddr, size)
        return saddr, smr, caddr, cmr

    saddr, smr, caddr, cmr = sim.run_process(setup())
    payload = bytes((i * 7 + 3) % 256 for i in range(size))
    client_node.memory.write(caddr, payload)

    def exchange():
        server_vqp = yield from lib_s.create_vqp()
        yield from lib_s.qbind(server_vqp, PORT)
        yield from lib_s.post_recv(server_vqp, RecvBuffer(saddr, size, smr.lkey, wr_id=5))
        client_vqp = yield from lib_c.create_vqp()
        yield from lib_c.qconnect(client_vqp, server_node.gid, PORT)
        yield from lib_c.post_send(client_vqp, WorkRequest.send(caddr, size, cmr.lkey))
        results = yield from lib_s.qpop_msgs_wait(server_vqp)
        return results

    results = sim.run_process(exchange())
    assert len(results) == 1
    _, completion = results[0]
    assert completion.byte_len == size
    assert completion.header.get("zc") is not None  # descriptor path taken
    assert server_node.memory.read(saddr, size) == payload


def test_zero_copy_disabled_rejects_oversized_message(env):
    sim = Simulator()
    cluster, meta, modules = krcore_cluster(sim, num_nodes=3, zero_copy=False)
    lib = KrcoreLib(cluster.node(1))

    def proc():
        addr = cluster.node(1).memory.alloc(8192)
        mr = yield from lib.reg_mr(addr, 8192)
        vqp = yield from lib.create_vqp()
        yield from lib.qconnect(vqp, cluster.node(2).gid, 5)
        with pytest.raises(KrcoreError):
            yield from lib.post_send(vqp, WorkRequest.send(addr, 8192, mr.lkey))

    sim.run_process(proc())


def test_small_message_copies_instead_of_zero_copy(env):
    sim, cluster, meta, modules = env
    server_node, client_node = cluster.node(2), cluster.node(1)
    lib_s = KrcoreLib(server_node)
    lib_c = KrcoreLib(client_node)
    PORT = 11
    saddr, smr = _setup_buffers(sim, lib_s, server_node)
    caddr, cmr = _setup_buffers(sim, lib_c, client_node)
    client_node.memory.write(caddr, b"tiny")

    def exchange():
        server_vqp = yield from lib_s.create_vqp()
        yield from lib_s.qbind(server_vqp, PORT)
        yield from lib_s.post_recv(server_vqp, RecvBuffer(saddr, 512, smr.lkey))
        client_vqp = yield from lib_c.create_vqp()
        yield from lib_c.qconnect(client_vqp, server_node.gid, PORT)
        yield from lib_c.post_send(client_vqp, WorkRequest.send(caddr, 4, cmr.lkey))
        results = yield from lib_s.qpop_msgs_wait(server_vqp)
        return results

    results = sim.run_process(exchange())
    _, completion = results[0]
    assert completion.header.get("zc") is None
    assert server_node.memory.read(saddr, 4) == b"tiny"
