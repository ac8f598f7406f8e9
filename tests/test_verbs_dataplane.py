"""Data-plane tests for the verbs layer: semantics, failures, calibration."""

import pytest

from repro import obs
from repro.cluster import timing
from repro.sim import US
from repro.verbs import (
    DctTarget,
    Opcode,
    QpError,
    QpOverflowError,
    QpState,
    RecvBuffer,
    WcStatus,
    WorkRequest,
)
from tests.conftest import quick_dc_qp, quick_rc_pair, quick_ud_qp, register


def _run_one(sim, gen):
    return sim.run_process(gen)


def _await_completion(qp):
    completions = yield from qp.send_cq.wait_poll()
    return completions[0]


# ---------------------------------------------------------------------------
# One-sided READ / WRITE / atomics correctness
# ---------------------------------------------------------------------------


def test_rc_read_moves_bytes(sim, cluster):
    client, server = cluster.node(0), cluster.node(1)
    qp, _ = quick_rc_pair(client, server)
    laddr, lmr = register(client, 4096)
    raddr, rmr = register(server, 4096)
    server.memory.write(raddr, b"remote-data-here")

    def proc():
        qp.post_send(WorkRequest.read(laddr, 16, lmr.lkey, raddr, rmr.rkey, wr_id=7))
        completion = yield from _await_completion(qp)
        return completion

    completion = _run_one(sim, proc())
    assert completion.ok
    assert completion.wr_id == 7
    assert completion.opcode is Opcode.READ
    assert client.memory.read(laddr, 16) == b"remote-data-here"


def test_rc_write_moves_bytes(sim, cluster):
    client, server = cluster.node(0), cluster.node(1)
    qp, _ = quick_rc_pair(client, server)
    laddr, lmr = register(client, 4096)
    raddr, rmr = register(server, 4096)
    client.memory.write(laddr, b"written-by-client")

    def proc():
        qp.post_send(WorkRequest.write(laddr, 17, lmr.lkey, raddr, rmr.rkey))
        completion = yield from _await_completion(qp)
        return completion

    assert _run_one(sim, proc()).ok
    assert server.memory.read(raddr, 17) == b"written-by-client"


def test_rc_cas_swaps_on_match(sim, cluster):
    client, server = cluster.node(0), cluster.node(1)
    qp, _ = quick_rc_pair(client, server)
    laddr, lmr = register(client, 64)
    raddr, rmr = register(server, 64)
    server.memory.write(raddr, (41).to_bytes(8, "big"))

    def proc():
        qp.post_send(WorkRequest.cas(laddr, lmr.lkey, raddr, rmr.rkey, compare=41, swap=42))
        completion = yield from _await_completion(qp)
        return completion

    assert _run_one(sim, proc()).ok
    assert int.from_bytes(server.memory.read(raddr, 8), "big") == 42
    # The old value lands in the client's local buffer.
    assert int.from_bytes(client.memory.read(laddr, 8), "big") == 41


def test_rc_cas_no_swap_on_mismatch(sim, cluster):
    client, server = cluster.node(0), cluster.node(1)
    qp, _ = quick_rc_pair(client, server)
    laddr, lmr = register(client, 64)
    raddr, rmr = register(server, 64)
    server.memory.write(raddr, (99).to_bytes(8, "big"))

    def proc():
        qp.post_send(WorkRequest.cas(laddr, lmr.lkey, raddr, rmr.rkey, compare=41, swap=42))
        yield from _await_completion(qp)

    _run_one(sim, proc())
    assert int.from_bytes(server.memory.read(raddr, 8), "big") == 99
    assert int.from_bytes(client.memory.read(laddr, 8), "big") == 99


# ---------------------------------------------------------------------------
# Latency calibration (Fig 3a / Fig 10a)
# ---------------------------------------------------------------------------


def test_8b_read_latency_is_2_15us(sim, cluster):
    client, server = cluster.node(0), cluster.node(1)
    qp, _ = quick_rc_pair(client, server)
    laddr, lmr = register(client, 64)
    raddr, rmr = register(server, 64)

    def proc():
        yield timing.POST_SEND_CPU_NS
        qp.post_send(WorkRequest.read(laddr, 8, lmr.lkey, raddr, rmr.rkey))
        yield from qp.send_cq.wait_poll()
        yield timing.POLL_CQ_CPU_NS
        return sim.now

    latency = _run_one(sim, proc())
    # Paper: 2.15 us for verbs 8B READ (small service-time slack allowed).
    assert abs(latency - 2_150) <= 60


def test_read_completion_order_is_fifo(sim, cluster):
    client, server = cluster.node(0), cluster.node(1)
    qp, _ = quick_rc_pair(client, server)
    laddr, lmr = register(client, 4096)
    raddr, rmr = register(server, 4096)

    def proc():
        for wr_id in range(8):
            qp.post_send(
                WorkRequest.read(laddr + 8 * wr_id, 8, lmr.lkey, raddr, rmr.rkey, wr_id=wr_id)
            )
        seen = []
        while len(seen) < 8:
            completions = yield from qp.send_cq.wait_poll(8)
            seen.extend(c.wr_id for c in completions)
        return seen

    assert _run_one(sim, proc()) == list(range(8))


def test_pipelined_reads_much_faster_than_serial(sim, cluster):
    client, server = cluster.node(0), cluster.node(1)
    qp, _ = quick_rc_pair(client, server)
    laddr, lmr = register(client, 4096)
    raddr, rmr = register(server, 4096)
    batch = 32

    def proc():
        wrs = [
            WorkRequest.read(laddr + 8 * i, 8, lmr.lkey, raddr, rmr.rkey, wr_id=i)
            for i in range(batch)
        ]
        qp.post_send(wrs)
        seen = 0
        while seen < batch:
            seen += len((yield from qp.send_cq.wait_poll(batch)))
        return sim.now

    elapsed = _run_one(sim, proc())
    serial = batch * 2_150
    assert elapsed < serial / 5  # doorbell batching pipelines the wire time


# ---------------------------------------------------------------------------
# Two-sided SEND/RECV
# ---------------------------------------------------------------------------


def test_rc_send_recv_delivers_payload_and_src(sim, cluster):
    client, server = cluster.node(0), cluster.node(1)
    qp_c, qp_s = quick_rc_pair(client, server)
    laddr, lmr = register(client, 4096)
    raddr, rmr = register(server, 4096)
    client.memory.write(laddr, b"ping")
    qp_s.post_recv(RecvBuffer(raddr, 4096, rmr.lkey, wr_id=55))

    def proc():
        qp_c.post_send(WorkRequest.send(laddr, 4, lmr.lkey, header={"tag": 9}))
        completions = yield from qp_s.recv_cq.wait_poll()
        send_done = yield from qp_c.send_cq.wait_poll()
        return completions[0], send_done[0]

    recv, send = _run_one(sim, proc())
    assert recv.ok and send.ok
    assert recv.opcode is Opcode.RECV
    assert recv.wr_id == 55
    assert recv.byte_len == 4
    assert recv.src == (client.gid, qp_c.qpn)
    assert recv.header == {"tag": 9}
    assert server.memory.read(raddr, 4) == b"ping"


def test_rc_send_without_recv_buffer_errors_sender(sim, cluster):
    client, server = cluster.node(0), cluster.node(1)
    qp_c, qp_s = quick_rc_pair(client, server)
    laddr, lmr = register(client, 64)

    def proc():
        qp_c.post_send(WorkRequest.send(laddr, 8, lmr.lkey))
        completions = yield from qp_c.send_cq.wait_poll()
        return completions[0]

    completion = _run_one(sim, proc())
    assert completion.status is WcStatus.RNR_ERR
    assert qp_c.state is QpState.ERR


def test_ud_send_to_missing_buffer_is_dropped_silently(sim, cluster):
    client, server = cluster.node(0), cluster.node(1)
    qp_c = quick_ud_qp(client)
    qp_s = quick_ud_qp(server)
    laddr, lmr = register(client, 64)

    def proc():
        qp_c.post_send(
            WorkRequest.send(
                laddr, 8, lmr.lkey, dct_gid=server.gid, dct_number=qp_s.qpn
            )
        )
        completions = yield from qp_c.send_cq.wait_poll()
        return completions[0]

    completion = _run_one(sim, proc())
    assert completion.ok  # unreliable: the sender never learns
    assert qp_c.state is QpState.RTS
    assert len(qp_s.recv_cq._entries) == 0


def test_ud_send_recv_roundtrip(sim, cluster):
    client, server = cluster.node(0), cluster.node(1)
    qp_c = quick_ud_qp(client)
    qp_s = quick_ud_qp(server)
    laddr, lmr = register(client, 64)
    raddr, rmr = register(server, 4096)
    client.memory.write(laddr, b"rpc-req!")
    qp_s.post_recv(RecvBuffer(raddr, 4096, rmr.lkey))

    def proc():
        qp_c.post_send(
            WorkRequest.send(
                laddr, 8, lmr.lkey, dct_gid=server.gid, dct_number=qp_s.qpn
            )
        )
        completions = yield from qp_s.recv_cq.wait_poll()
        return completions[0]

    recv = _run_one(sim, proc())
    assert recv.ok
    assert server.memory.read(raddr, 8) == b"rpc-req!"


# ---------------------------------------------------------------------------
# DC transport
# ---------------------------------------------------------------------------


def test_dc_read_with_target_metadata(sim, cluster):
    client, server = cluster.node(0), cluster.node(1)
    qp = quick_dc_qp(client)
    target = DctTarget(server, 1234)
    laddr, lmr = register(client, 64)
    raddr, rmr = register(server, 64)
    server.memory.write(raddr, b"dc-bytes")

    def proc():
        qp.post_send(
            WorkRequest.read(
                laddr,
                8,
                lmr.lkey,
                raddr,
                rmr.rkey,
                dct_gid=server.gid,
                dct_number=target.number,
                dct_key=target.key,
            )
        )
        completions = yield from qp.send_cq.wait_poll()
        return completions[0]

    assert _run_one(sim, proc()).ok
    assert client.memory.read(laddr, 8) == b"dc-bytes"


def test_dc_wrong_key_is_remote_access_error(sim, cluster):
    client, server = cluster.node(0), cluster.node(1)
    qp = quick_dc_qp(client)
    target = DctTarget(server, 1234)
    laddr, lmr = register(client, 64)
    raddr, rmr = register(server, 64)

    def proc():
        qp.post_send(
            WorkRequest.read(
                laddr,
                8,
                lmr.lkey,
                raddr,
                rmr.rkey,
                dct_gid=server.gid,
                dct_number=target.number,
                dct_key=999,
            )
        )
        completions = yield from qp.send_cq.wait_poll()
        return completions[0]

    completion = _run_one(sim, proc())
    assert completion.status is WcStatus.REM_ACCESS_ERR
    assert qp.state is QpState.ERR


def test_dc_retarget_costs_reconnect(sim, cluster):
    client = cluster.node(0)
    servers = [cluster.node(1), cluster.node(2)]
    qp = quick_dc_qp(client)
    targets = [DctTarget(s, 1) for s in servers]
    laddr, lmr = register(client, 64)
    remote = [register(s, 64) for s in servers]

    def one_read(server_index):
        raddr, rmr = remote[server_index]
        qp.post_send(
            WorkRequest.read(
                laddr,
                8,
                lmr.lkey,
                raddr,
                rmr.rkey,
                dct_gid=servers[server_index].gid,
                dct_number=targets[server_index].number,
                dct_key=1,
            )
        )

    def same_target():
        one_read(0)
        yield from qp.send_cq.wait_poll()
        start = sim.now
        one_read(0)
        yield from qp.send_cq.wait_poll()
        return sim.now - start

    def switch_target():
        one_read(0)
        yield from qp.send_cq.wait_poll()
        start = sim.now
        one_read(1)
        yield from qp.send_cq.wait_poll()
        return sim.now - start

    with obs.observe() as (_tracer, metrics):
        same = _run_one(sim, same_target())
        sim2_cluster = cluster  # same sim reused; measure switch on a fresh QP
        switch = _run_one(sim, switch_target())
    assert metrics.value("verbs.dc_retargets") >= 2
    assert switch - same >= timing.DCT_RECONNECT_NS - 50


def test_dc_send_goes_to_srq(sim, cluster):
    client, server = cluster.node(0), cluster.node(1)
    from repro.verbs import CompletionQueue

    qp = quick_dc_qp(client)
    target = DctTarget(server, 7)
    target.recv_cq = CompletionQueue(sim)
    raddr, rmr = register(server, 4096)
    target.post_srq(RecvBuffer(raddr, 4096, rmr.lkey, wr_id=3))
    laddr, lmr = register(client, 64)
    client.memory.write(laddr, b"to-srq")

    def proc():
        qp.post_send(
            WorkRequest.send(
                laddr,
                6,
                lmr.lkey,
                dct_gid=server.gid,
                dct_number=target.number,
                dct_key=7,
            )
        )
        completions = yield from target.recv_cq.wait_poll()
        return completions[0]

    recv = _run_one(sim, proc())
    assert recv.ok
    assert recv.wr_id == 3
    assert server.memory.read(raddr, 6) == b"to-srq"


# ---------------------------------------------------------------------------
# Failure semantics: the hazards Algorithm 2 must defend against (§3.1)
# ---------------------------------------------------------------------------


def test_malformed_opcode_wrecks_qp(sim, cluster):
    client, server = cluster.node(0), cluster.node(1)
    qp, _ = quick_rc_pair(client, server)
    laddr, lmr = register(client, 64)

    def proc():
        qp.post_send(WorkRequest(Opcode.RECV, laddr=laddr, length=8, lkey=lmr.lkey))
        completions = yield from qp.send_cq.wait_poll()
        return completions[0]

    completion = _run_one(sim, proc())
    assert completion.status is WcStatus.BAD_OPCODE_ERR
    assert qp.state is QpState.ERR


def test_invalid_local_key_wrecks_qp(sim, cluster):
    client, server = cluster.node(0), cluster.node(1)
    qp, _ = quick_rc_pair(client, server)
    raddr, rmr = register(server, 64)

    def proc():
        qp.post_send(WorkRequest.read(0, 8, 424242, raddr, rmr.rkey))
        completions = yield from qp.send_cq.wait_poll()
        return completions[0]

    completion = _run_one(sim, proc())
    assert completion.status is WcStatus.LOC_PROT_ERR
    assert qp.state is QpState.ERR


def test_invalid_remote_key_wrecks_qp(sim, cluster):
    client, server = cluster.node(0), cluster.node(1)
    qp, _ = quick_rc_pair(client, server)
    laddr, lmr = register(client, 64)

    def proc():
        qp.post_send(WorkRequest.read(laddr, 8, lmr.lkey, 0, 424242))
        completions = yield from qp.send_cq.wait_poll()
        return completions[0]

    completion = _run_one(sim, proc())
    assert completion.status is WcStatus.REM_ACCESS_ERR
    assert qp.state is QpState.ERR


def test_queued_requests_flushed_after_error(sim, cluster):
    client, server = cluster.node(0), cluster.node(1)
    qp, _ = quick_rc_pair(client, server)
    laddr, lmr = register(client, 4096)
    raddr, rmr = register(server, 4096)

    def proc():
        bad = WorkRequest.read(laddr, 8, lmr.lkey, 0, 424242, wr_id=1)
        good = [
            WorkRequest.read(laddr, 8, lmr.lkey, raddr, rmr.rkey, wr_id=2 + i)
            for i in range(3)
        ]
        qp.post_send([bad] + good)
        seen = []
        while len(seen) < 4:
            seen.extend((yield from qp.send_cq.wait_poll(4)))
        return seen

    completions = _run_one(sim, proc())
    assert completions[0].status is WcStatus.REM_ACCESS_ERR
    assert all(c.status is WcStatus.FLUSH_ERR for c in completions[1:])


def test_error_flush_completes_in_posting_order(sim, cluster):
    """RC completes in posting order (§4.6), an error flush included: the
    WRs still in the send queue when #0's NAK wrecks the QP used to be
    completed at once, ahead of #1-#9 already on the wire or being
    issued (CQ order 0, 10-15, 1-9)."""
    client, server = cluster.node(0), cluster.node(1)
    qp, _ = quick_rc_pair(client, server)
    laddr, lmr = register(client, 4096)
    raddr, rmr = register(server, 4096)

    def proc():
        qp.post_send([
            WorkRequest.read(laddr, 8, lmr.lkey, raddr, rmr.rkey if wr_id else 424242, wr_id=wr_id)
            for wr_id in range(16)
        ])
        seen = []
        while len(seen) < 16:
            seen.extend((yield from qp.send_cq.wait_poll(16)))
        return seen

    completions = _run_one(sim, proc())
    assert [c.wr_id for c in completions] == list(range(16))
    assert completions[0].status is WcStatus.REM_ACCESS_ERR
    assert all(c.status is WcStatus.FLUSH_ERR for c in completions[1:])
    assert sum(c.covers for c in completions) == 16 and qp.outstanding == 0


def test_overflow_flush_completes_in_posting_order(sim, cluster):
    """The WR already handed to the idle sender when the overflowing post
    wrecks the QP is the first posted, and completes first."""
    client, server = cluster.node(0), cluster.node(1)
    qp, _ = quick_rc_pair(client, server, sq_depth=8)
    laddr, lmr = register(client, 4096)
    raddr, rmr = register(server, 4096)

    def read(wr_id):
        return WorkRequest.read(laddr, 8, lmr.lkey, raddr, rmr.rkey, wr_id=wr_id)

    def proc():
        qp.post_send([read(wr_id) for wr_id in range(6)])
        with pytest.raises(QpOverflowError):
            qp.post_send([read(wr_id) for wr_id in range(6, 9)])
        seen = []
        while len(seen) < 6:
            seen.extend((yield from qp.send_cq.wait_poll(8)))
        return seen

    completions = _run_one(sim, proc())
    assert [(c.wr_id, c.status) for c in completions] == [
        (wr_id, WcStatus.FLUSH_ERR) for wr_id in range(6)
    ]


def test_post_to_err_qp_raises(sim, cluster):
    client, server = cluster.node(0), cluster.node(1)
    qp, _ = quick_rc_pair(client, server)
    laddr, lmr = register(client, 64)

    def proc():
        qp.post_send(WorkRequest.read(laddr, 8, lmr.lkey, 0, 424242))
        yield from qp.send_cq.wait_poll()
        with pytest.raises(QpError):
            qp.post_send(WorkRequest.read(laddr, 8, lmr.lkey, 0, 1))

    _run_one(sim, proc())


def test_overflow_wrecks_qp(sim, cluster):
    client, server = cluster.node(0), cluster.node(1)
    qp, _ = quick_rc_pair(client, server, sq_depth=4)
    laddr, lmr = register(client, 4096)
    raddr, rmr = register(server, 4096)
    wrs = [
        WorkRequest.read(laddr, 8, lmr.lkey, raddr, rmr.rkey, wr_id=i) for i in range(5)
    ]
    with pytest.raises(QpOverflowError):
        qp.post_send(wrs)
    assert qp.state is QpState.ERR


def test_slots_reclaimed_only_by_polling(sim, cluster):
    client, server = cluster.node(0), cluster.node(1)
    qp, _ = quick_rc_pair(client, server, sq_depth=4)
    laddr, lmr = register(client, 4096)
    raddr, rmr = register(server, 4096)

    def proc():
        for i in range(4):
            qp.post_send(WorkRequest.read(laddr, 8, lmr.lkey, raddr, rmr.rkey, wr_id=i))
        # Give the network time to finish everything -- slots still held.
        yield 100_000
        assert qp.free_slots == 0
        with pytest.raises(QpOverflowError):
            qp.post_send(WorkRequest.read(laddr, 8, lmr.lkey, raddr, rmr.rkey))

    _run_one(sim, proc())


def test_unsignaled_slots_covered_by_next_signaled_poll(sim, cluster):
    client, server = cluster.node(0), cluster.node(1)
    qp, _ = quick_rc_pair(client, server, sq_depth=8)
    laddr, lmr = register(client, 4096)
    raddr, rmr = register(server, 4096)

    def proc():
        wrs = [
            WorkRequest.read(laddr, 8, lmr.lkey, raddr, rmr.rkey, wr_id=i, signaled=False)
            for i in range(3)
        ]
        wrs.append(WorkRequest.read(laddr, 8, lmr.lkey, raddr, rmr.rkey, wr_id=3))
        qp.post_send(wrs)
        yield 100_000
        assert qp.free_slots == 4  # nothing reclaimed until polled
        completions = yield from qp.send_cq.wait_poll(4)
        assert len(completions) == 1  # only the signaled one completes
        assert completions[0].covers == 4
        assert qp.free_slots == 8

    _run_one(sim, proc())


def test_reconfigure_recovers_err_qp(sim, cluster):
    client, server = cluster.node(0), cluster.node(1)
    qp, _ = quick_rc_pair(client, server)
    laddr, lmr = register(client, 64)
    raddr, rmr = register(server, 64)
    server.memory.write(raddr, b"recovery")

    def proc():
        qp.post_send(WorkRequest.read(laddr, 8, lmr.lkey, 0, 424242))
        yield from qp.send_cq.wait_poll()
        assert qp.state is QpState.ERR
        start = sim.now
        yield from qp.reconfigure()
        assert sim.now - start >= timing.MODIFY_RTR_NS  # recovery is expensive
        qp.post_send(WorkRequest.read(laddr, 8, lmr.lkey, raddr, rmr.rkey))
        completions = yield from qp.send_cq.wait_poll()
        return completions[0]

    assert _run_one(sim, proc()).ok
    assert client.memory.read(laddr, 8) == b"recovery"


def test_read_from_dead_node_fails(sim, cluster):
    client, server = cluster.node(0), cluster.node(1)
    qp, _ = quick_rc_pair(client, server)
    laddr, lmr = register(client, 64)
    raddr, rmr = register(server, 64)
    server.fail()

    def proc():
        qp.post_send(WorkRequest.read(laddr, 8, lmr.lkey, raddr, rmr.rkey))
        completions = yield from qp.send_cq.wait_poll()
        return completions[0]

    completion = _run_one(sim, proc())
    assert completion.status is WcStatus.RETRY_EXC_ERR
    assert qp.state is QpState.ERR
