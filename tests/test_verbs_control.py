"""Control-path tests: driver init, QP creation, RC connection handshake."""

import pytest

from repro.cluster import Cluster, timing
from repro.sim import MS, Simulator, US
from repro.verbs import (
    ConnectionManager,
    DriverContext,
    QpState,
    QpType,
    WcStatus,
    WorkRequest,
)
from repro.verbs.connection import ConnectError, rc_connect
from tests.conftest import quick_rc_pair, register


def _make_env(num_nodes=3):
    sim = Simulator()
    cluster = Cluster(sim, num_nodes=num_nodes)
    for node in cluster.nodes:
        ConnectionManager(node, DriverContext(node, kernel=True))
    return sim, cluster


def test_driver_init_costs_and_is_once():
    sim, cluster = _make_env()
    ctx = DriverContext(cluster.node(0))

    def proc():
        yield from ctx.ensure_init()
        first = sim.now
        yield from ctx.ensure_init()
        return first, sim.now

    first, second = sim.run_process(proc())
    assert first == timing.DRIVER_INIT_NS
    assert second == first  # second call is free


def test_kernel_context_is_preinitialized():
    sim, cluster = _make_env()
    ctx = DriverContext(cluster.node(0), kernel=True)
    sim.run_process(ctx.ensure_init())
    assert sim.now == 0  # module-load time paid it, off the critical path


def test_create_qp_costs_413us():
    sim, cluster = _make_env()
    ctx = DriverContext(cluster.node(0), kernel=True)

    def proc():
        cq = yield from ctx.create_cq()
        start = sim.now
        qp = yield from ctx.create_qp(QpType.RC, cq)
        return sim.now - start, qp

    elapsed, qp = sim.run_process(proc())
    assert elapsed == timing.CREATE_QP_NS
    assert qp.state is QpState.RESET


def test_rc_connect_first_connection_is_15_7ms():
    sim, cluster = _make_env()
    client = cluster.node(0)
    ctx = DriverContext(client)

    def proc():
        yield from ctx.ensure_init()
        cq = yield from ctx.create_cq()
        qp = yield from rc_connect(ctx, cq, cluster.node(1).gid)
        return sim.now, qp

    elapsed, qp = sim.run_process(proc())
    # Fig 3a: 15.7 ms (wire time of the handshake datagrams adds ~1.3 us).
    assert abs(elapsed - 15_700 * US) < 20 * US
    assert qp.state is QpState.RTS


def test_rc_connect_cached_context_is_about_2ms():
    # LITE's per-connection cost: kernel context + shared CQ already exist.
    sim, cluster = _make_env()
    client = cluster.node(0)
    ctx = DriverContext(client, kernel=True)

    def proc():
        cq = yield from ctx.create_cq()
        start = sim.now
        yield from rc_connect(ctx, cq, cluster.node(1).gid)
        return sim.now - start

    elapsed = sim.run_process(proc())
    assert abs(elapsed - timing.LITE_CONTROL_PATH_NS) < 20 * US
    assert 1_800 * US < elapsed < 2_500 * US


def test_connected_pair_carries_traffic_both_ways():
    sim, cluster = _make_env()
    client, server = cluster.node(0), cluster.node(1)
    ctx = DriverContext(client, kernel=True)
    raddr, rmr = register(server, 4096)
    server.memory.write(raddr, b"post-handshake")
    laddr, lmr = register(client, 4096)

    def proc():
        cq = yield from ctx.create_cq()
        qp = yield from rc_connect(ctx, cq, server.gid)
        qp.post_send(WorkRequest.read(laddr, 14, lmr.lkey, raddr, rmr.rkey))
        completions = yield from qp.send_cq.wait_poll()
        return completions[0]

    assert sim.run_process(proc()).ok
    assert client.memory.read(laddr, 14) == b"post-handshake"


def test_server_accept_throughput_near_712_per_sec():
    # Fig 8a: the server RNIC command processor caps accepts at ~712/s.
    sim, cluster = _make_env(num_nodes=3)
    server_gid = cluster.node(2).gid
    accepted = []
    num_clients = 40

    def one_client(node):
        ctx = DriverContext(node, kernel=True)
        cq = yield from ctx.create_cq()
        yield from rc_connect(ctx, cq, server_gid)
        accepted.append(sim.now)

    for i in range(num_clients):
        sim.process(one_client(cluster.node(i % 2)))
    sim.run()
    assert len(accepted) == num_clients
    window = max(accepted) - min(accepted)
    rate = (num_clients - 1) * 1e9 / window
    # Paper: 712 QP/s sustained.  A short burst reads slightly high because
    # replies only wait on create_qp while the RTR/RTS backlog drains later;
    # the sustained rate is asserted by the Fig 8 benchmark.
    assert 600 <= rate <= 900


def test_connect_to_dead_node_raises():
    sim, cluster = _make_env()
    client = cluster.node(0)
    cluster.node(1).fail()
    ctx = DriverContext(client, kernel=True)

    def proc():
        cq = yield from ctx.create_cq()
        with pytest.raises(ConnectError):
            yield from rc_connect(ctx, cq, cluster.node(1).gid)

    sim.run_process(proc())


def test_connect_to_unbound_port_raises():
    sim, cluster = _make_env()
    client = cluster.node(0)
    ctx = DriverContext(client, kernel=True)

    def proc():
        cq = yield from ctx.create_cq()
        with pytest.raises(ConnectError):
            yield from rc_connect(ctx, cq, cluster.node(1).gid, port=99)

    sim.run_process(proc())


def test_listener_receives_accepted_qp():
    sim, cluster = _make_env()
    client, server = cluster.node(0), cluster.node(1)
    manager = server.services[ConnectionManager.SERVICE]
    got = []
    manager.listen(7, lambda qp, gid: got.append((qp, gid)))
    ctx = DriverContext(client, kernel=True)

    def proc():
        cq = yield from ctx.create_cq()
        qp = yield from rc_connect(ctx, cq, server.gid, port=7)
        # Let the server finish its own RTR/RTS configuration.
        yield 2 * MS
        return qp

    client_qp = sim.run_process(proc())
    assert len(got) == 1
    server_qp, gid = got[0]
    assert gid == client.gid
    assert server_qp.state is QpState.RTS
    assert server_qp.remote == (client.gid, client_qp.qpn)


def test_reg_mr_is_microsecond_scale():
    sim, cluster = _make_env()
    ctx = DriverContext(cluster.node(0), kernel=True)
    pd = ctx.alloc_pd()

    def proc():
        addr = cluster.node(0).memory.alloc(4 << 20)
        start = sim.now
        region = yield from pd.reg_mr(addr, 4 << 20)
        return sim.now - start, region

    elapsed, region = sim.run_process(proc())
    assert elapsed < 2 * US  # §5.1: 1.4 us for 4 MB
    assert region.valid


# -- reset() starts a new incarnation of the QP ---------------------------------


def _reset_rig(depth=8):
    sim = Simulator()
    cluster = Cluster(sim, num_nodes=2)
    client, server = cluster.nodes
    qp, _ = quick_rc_pair(client, server, sq_depth=depth)
    laddr, lmr = register(client, 64)
    raddr, rmr = register(server, 64)

    def read(signaled=True, rkey=rmr.rkey, wr_id=0):
        return WorkRequest.read(laddr, 8, lmr.lkey, raddr, rkey, signaled=signaled, wr_id=wr_id)

    return sim, qp, read


def _next_window_is_accounted_from_zero(sim, qp, read):
    """Two unsignaled WRs and a signaled one: one CQE covering three."""
    assert (qp.outstanding, qp.free_slots) == (0, qp.sq_depth)
    qp.post_send([read(False), read(False), read(wr_id=99)])
    (cqe,) = yield from qp.send_cq.wait_poll(8)
    assert (cqe.wr_id, cqe.ok, cqe.covers) == (99, True, 3)
    assert qp.outstanding == 0


def test_polling_after_reconfigure_a_cqe_of_a_wr_still_in_flight_at_the_reset():
    """ERR recovery with WRs outstanding: their flushed completions arrive
    after reset() zeroed the slot accounting, and used to make the poll
    raise "reclaimed more slots than posted"."""
    sim, qp, read = _reset_rig()

    def proc():
        qp.post_send([read(rkey=0xBAD, wr_id=1), read(wr_id=2), read(wr_id=3), read(wr_id=4)])
        (first,) = yield from qp.send_cq.wait_poll(1)
        assert (first.wr_id, first.status, first.covers) == (1, WcStatus.REM_ACCESS_ERR, 1)
        assert qp.state is QpState.ERR and len(qp.send_cq._entries) == 0
        yield from qp.reconfigure()
        rest = qp.send_cq.poll(8)
        assert [(c.wr_id, c.status, c.covers) for c in rest] == [
            (wr_id, WcStatus.FLUSH_ERR, 0) for wr_id in (2, 3, 4)
        ]
        yield from _next_window_is_accounted_from_zero(sim, qp, read)

    sim.run_process(proc())


def test_cqes_left_in_the_cq_across_a_reset_release_no_slot():
    sim, qp, read = _reset_rig()

    def proc():
        qp.post_send([read(wr_id=wr_id) for wr_id in (1, 2, 3, 4)])
        yield 10 * US
        assert len(qp.send_cq._entries) == 4
        (first,) = qp.send_cq.poll(1)
        assert (first.covers, qp.outstanding) == (1, 3)
        yield from qp.reconfigure()
        rest = qp.send_cq.poll(8)
        assert [(c.wr_id, c.ok, c.covers) for c in rest] == [
            (wr_id, True, 0) for wr_id in (2, 3, 4)
        ]
        yield from _next_window_is_accounted_from_zero(sim, qp, read)

    sim.run_process(proc())


def test_a_stale_unsignaled_success_does_not_pad_the_next_incarnations_covers():
    """Unsignaled WRs on the wire at reset(): their successes used to
    count into ``_pending_unsignaled`` of the reconfigured QP, so its
    first CQE covered (and released) slots it never posted."""
    sim, qp, read = _reset_rig()

    def proc():
        qp.post_send([read(False, wr_id=1), read(False, wr_id=2)])
        yield 500  # both issued, neither back
        yield from qp.reconfigure()
        stale = qp.send_cq.poll(8)
        assert [(c.wr_id, c.status, c.covers) for c in stale] == [
            (1, WcStatus.FLUSH_ERR, 0), (2, WcStatus.FLUSH_ERR, 0)
        ]
        assert qp.state is QpState.RTS  # a stale flight cannot wreck the new incarnation
        yield from _next_window_is_accounted_from_zero(sim, qp, read)

    sim.run_process(proc())


def test_a_wr_handed_to_the_parked_sender_does_not_survive_the_reset():
    """A doorbell rung on a parked sender and reset() in the same instant:
    the first WR, already handed to the sender's wake, used to outlive the
    reset, be issued on the RESET QP, NAK RETRY_EXC (no remote) and wreck
    the new incarnation, so reconfigure() raised "expected RESET, is ERR"."""
    sim, qp, read = _reset_rig()

    def proc():
        qp.post_send(read(wr_id=1))
        (first,) = yield from qp.send_cq.wait_poll(1)
        assert first.ok
        yield 1 * US  # the sender is parked on an empty send queue
        qp.post_send([read(wr_id=2), read(wr_id=3)])
        yield from qp.reconfigure()
        assert qp.state is QpState.RTS and qp.send_cq.poll(8) == []
        yield from _next_window_is_accounted_from_zero(sim, qp, read)

    sim.run_process(proc())
