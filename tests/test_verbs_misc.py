"""Additional verbs-layer tests: payload cost model, UD details, QP and
CQ edge cases, fabric behaviour."""

import pytest

from repro import obs
from repro.cluster import Cluster, timing
from repro.sim import Simulator, US
from repro.verbs import (
    Completion,
    CompletionQueue,
    DctTarget,
    DriverContext,
    Opcode,
    QpState,
    QpType,
    RecvBuffer,
    VerbsError,
    WcStatus,
    WorkRequest,
)
from tests.conftest import quick_dc_qp, quick_rc_pair, quick_ud_qp, register


@pytest.fixture
def sim():
    return Simulator()


@pytest.fixture
def cluster(sim):
    return Cluster(sim, num_nodes=3, memory_size=32 << 20)


def _read_latency(sim, cluster, payload):
    client, server = cluster.node(0), cluster.node(1)
    qp, _ = quick_rc_pair(client, server)
    laddr, lmr = register(client, payload + 64)
    raddr, rmr = register(server, payload + 64)

    def proc():
        qp.post_send(WorkRequest.read(laddr, payload, lmr.lkey, raddr, rmr.rkey))
        yield from qp.send_cq.wait_poll()
        return sim.now

    return sim.run_process(proc())


def test_read_latency_grows_with_payload(sim, cluster):
    small = _read_latency(sim, cluster, 8)
    sim2 = Simulator()
    cluster2 = Cluster(sim2, num_nodes=2, memory_size=32 << 20)
    large = _read_latency(sim2, cluster2, 1 << 20)
    # 1 MB at 100 Gb/s is ~84 us of serialization on top of the base.
    assert large - small > 80_000
    assert large - small < 200_000


def test_write_pays_extra_per_byte(sim, cluster):
    # The Fig 13 calibration: WRITE's per-byte cost exceeds READ's.
    client, server = cluster.node(0), cluster.node(1)
    qp, _ = quick_rc_pair(client, server)
    laddr, lmr = register(client, 1 << 16)
    raddr, rmr = register(server, 1 << 16)

    def op_latency(wr):
        start = sim.now
        qp.post_send(wr)
        yield from qp.send_cq.wait_poll()
        return sim.now - start

    def proc():
        read_ns = yield from op_latency(
            WorkRequest.read(laddr, 32768, lmr.lkey, raddr, rmr.rkey)
        )
        write_ns = yield from op_latency(
            WorkRequest.write(laddr, 32768, lmr.lkey, raddr, rmr.rkey)
        )
        return read_ns, write_ns

    read_ns, write_ns = sim.run_process(proc())
    assert write_ns > read_ns * 2


def test_responder_payload_service_tiers():
    assert timing.responder_payload_service_ns(8) == 0
    assert timing.responder_payload_service_ns(16) == 0
    small = timing.responder_payload_service_ns(64)
    assert small == pytest.approx(48 * 0.45)
    # Beyond the small tier, bytes stream at wire bandwidth.
    big = timing.responder_payload_service_ns(16 + 240 + 1000)
    assert big == pytest.approx(240 * 0.45 + 1000 * timing.WIRE_NS_PER_BYTE)


def test_fetch_add_accumulates(sim, cluster):
    client, server = cluster.node(0), cluster.node(1)
    qp, _ = quick_rc_pair(client, server)
    laddr, lmr = register(client, 64)
    raddr, rmr = register(server, 64)
    server.memory.write(raddr, (100).to_bytes(8, "big"))

    def proc():
        for delta in (5, 7):
            qp.post_send(
                WorkRequest(
                    Opcode.FETCH_ADD, laddr=laddr, length=8, lkey=lmr.lkey,
                    raddr=raddr, rkey=rmr.rkey, compare=delta,
                )
            )
            yield from qp.send_cq.wait_poll()
        return int.from_bytes(server.memory.read(raddr, 8), "big")

    assert sim.run_process(proc()) == 112
    # The second op observed the first's result.
    assert int.from_bytes(cluster.node(0).memory.read(laddr, 8), "big") == 105


def test_ud_to_dead_node_completes_silently(sim, cluster):
    client, server = cluster.node(0), cluster.node(1)
    qp_c = quick_ud_qp(client)
    qp_s = quick_ud_qp(server)
    laddr, lmr = register(client, 64)
    server.fail()

    def proc():
        qp_c.post_send(
            WorkRequest.send(laddr, 8, lmr.lkey, dct_gid=server.gid, dct_number=qp_s.qpn)
        )
        completions = yield from qp_c.send_cq.wait_poll()
        return completions[0]

    completion = sim.run_process(proc())
    assert completion.ok  # unreliable datagram: fire and forget
    assert qp_c.state is QpState.RTS


def test_ud_oversized_payload_dropped(sim, cluster):
    client, server = cluster.node(0), cluster.node(1)
    qp_c = quick_ud_qp(client)
    qp_s = quick_ud_qp(server)
    laddr, lmr = register(client, 8192)
    raddr, rmr = register(server, 8192)
    qp_s.post_recv(RecvBuffer(raddr, 64, rmr.lkey))  # too small

    def proc():
        qp_c.post_send(
            WorkRequest.send(
                laddr, 4096, lmr.lkey, dct_gid=server.gid, dct_number=qp_s.qpn
            )
        )
        completions = yield from qp_c.send_cq.wait_poll()
        return completions[0]

    assert sim.run_process(proc()).ok
    assert len(qp_s.recv_cq._entries) == 0  # silently dropped


def test_post_send_before_rts_rejected(sim, cluster):
    node = cluster.node(0)
    ctx = DriverContext(node, kernel=True)
    cq = CompletionQueue(sim)
    qp = ctx.create_qp_fast(QpType.RC, cq)
    with pytest.raises(VerbsError):
        qp.post_send(WorkRequest.read(0, 8, 1, 0, 1))


def test_state_machine_rejects_skipping(sim, cluster):
    node = cluster.node(0)
    ctx = DriverContext(node, kernel=True)
    qp = ctx.create_qp_fast(QpType.RC, CompletionQueue(sim))
    with pytest.raises(VerbsError):
        qp.to_rtr(("x", 1))  # must pass INIT first
    qp.to_init()
    with pytest.raises(VerbsError):
        qp.to_rts()  # must pass RTR first
    with pytest.raises(VerbsError):
        qp.to_rtr()  # RC needs the remote


def test_empty_post_send_is_noop(sim, cluster):
    client, server = cluster.node(0), cluster.node(1)
    qp, _ = quick_rc_pair(client, server)
    qp.post_send([])
    assert qp.outstanding == 0


def test_cq_poll_batches(sim, cluster):
    client, server = cluster.node(0), cluster.node(1)
    qp, _ = quick_rc_pair(client, server)
    laddr, lmr = register(client, 4096)
    raddr, rmr = register(server, 4096)

    def proc():
        qp.post_send(
            [WorkRequest.read(laddr, 8, lmr.lkey, raddr, rmr.rkey, wr_id=i) for i in range(6)]
        )
        yield 50_000  # let everything complete
        first = qp.send_cq.poll(4)
        rest = qp.send_cq.poll(4)
        return first, rest

    first, rest = sim.run_process(proc())
    assert [c.wr_id for c in first] == [0, 1, 2, 3]
    assert [c.wr_id for c in rest] == [4, 5]


def test_dc_qp_single_target_has_one_reconnect(sim, cluster):
    client, server = cluster.node(0), cluster.node(1)
    qp = quick_dc_qp(client)
    target = DctTarget(server, 3)
    laddr, lmr = register(client, 4096)
    raddr, rmr = register(server, 4096)

    def proc():
        for _ in range(10):
            qp.post_send(
                WorkRequest.read(
                    laddr, 8, lmr.lkey, raddr, rmr.rkey,
                    dct_gid=server.gid, dct_number=target.number, dct_key=3,
                )
            )
            yield from qp.send_cq.wait_poll()

    with obs.observe() as (_tracer, metrics):
        sim.run_process(proc())
    assert metrics.value("verbs.dc_retargets") == 1  # connected once, reused 9 times


def test_fabric_latency_model():
    sim = Simulator()
    cluster = Cluster(sim, num_nodes=2)
    fabric = cluster.fabric
    assert fabric.one_way_ns(0) == timing.WIRE_ONE_WAY_NS
    assert fabric.one_way_ns(12500) == timing.WIRE_ONE_WAY_NS + 1000  # 0.08 ns/B
    with pytest.raises(ValueError):
        from repro.cluster.node import Node

        Node(sim, fabric, gid="node0")  # duplicate gid


def test_driver_context_requires_init_for_resources():
    sim = Simulator()
    cluster = Cluster(sim, num_nodes=1)
    ctx = DriverContext(cluster.node(0))
    with pytest.raises(VerbsError):
        ctx.alloc_pd()


def test_work_request_clone_copies_every_field_but_the_span_id():
    """``clone`` assigns slot by slot; a slot added later must join it."""
    wr = WorkRequest.read_vectored(
        0x1000, 7, [(0x2000, 9, 8), (0x3000, 9, 16)], wr_id=41, signaled=False,
        compare=3, swap=4, header={"k": 1}, dct_gid="node9", dct_number=5,
        dct_key=6, raddr=0x2000, rkey=9,
    )
    wr.chained = True
    wr.trace_id = 123
    clone = wr.clone()
    assert clone is not wr
    for slot in WorkRequest.__slots__:
        if slot != "trace_id":
            assert getattr(clone, slot) == getattr(wr, slot), slot
    assert clone.trace_id is None


def test_onesided_service_matches_its_terms():
    payload = timing.responder_payload_service_ns
    for nbytes in (0, 8, 64, 4096):
        assert timing.onesided_service_ns(True, nbytes, False) == (
            timing.READ_RESPONDER_SERVICE_NS + payload(nbytes)
        )
        assert timing.onesided_service_ns(True, nbytes, True) == (
            timing.READ_RESPONDER_SERVICE_NS + payload(nbytes)
            + timing.DC_READ_SERVICE_EXTRA_NS
        )
        assert timing.onesided_service_ns(False, nbytes, False) == (
            timing.WRITE_RESPONDER_SERVICE_NS + payload(nbytes)
        )
        assert timing.onesided_service_ns(False, nbytes, True) == (
            timing.WRITE_RESPONDER_SERVICE_NS + payload(nbytes)
            + timing.DC_WRITE_SERVICE_EXTRA_NS
        )


def test_cq_park_wakes_a_sleeper_in_line_with_event_waiters(sim):
    """``CompletionQueue.park``: a parked sleeper is woken by the push that
    fills the CQ, with one ready record, in the order it waited among the
    processes yielding ``wait()``; on a non-empty CQ it is woken at once,
    and neither consumes an entry."""
    cq = CompletionQueue(sim)
    log = []

    class Sleeper:
        def _resume(self, _value, _exc):
            log.append(("sleeper", sim.now))

    def waiter(name):
        yield cq.wait()
        log.append((name, sim.now))

    sleeper = Sleeper()
    sim.process(waiter("a"))
    sim.run()
    cq.park(sleeper)
    sim.process(waiter("b"))
    sim.run()
    sim.schedule(5, lambda: cq.push(Completion(1, WcStatus.SUCCESS, Opcode.READ)))
    dispatched = sim.events_dispatched
    sim.run()
    assert log == [("a", 5), ("sleeper", 5), ("b", 5)]
    assert sim.events_dispatched - dispatched == 4  # the push, three wakes
    cq.park(sleeper)
    sim.run()
    assert log[-1] == ("sleeper", 5) and sim.events_dispatched - dispatched == 5
    assert len(cq._entries) == 1
