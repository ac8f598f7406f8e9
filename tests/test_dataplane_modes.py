"""Data-plane throughput modes: CQ polling models and doorbell batching.

Satellite regression nets for the data-plane PR:

* CQ polling-mode cost accounting (the ``wait_poll`` busy-spin fix):
  before the fix a busy-mode wait burned a core for the whole wait but
  charged nothing anywhere -- ``stats_spin_ns`` did not exist, so these
  tests fail on the pre-fix code by construction.
* CQ edge cases: waiting with no outstanding entries, polling a
  multi-slot (``covers``) completion releasing send-queue slots, and
  ``wait_poll`` racing a QP error completion.
* ``post_send_batch`` semantics (chained WQE flags, single-WR
  passthrough, doorbell metrics, issue-cost speedup).
"""

import pytest

from repro import obs
from repro.cluster import Cluster, timing
from repro.cluster.fabric import LinkFault
from repro.krcore import KrcoreLib
from repro.sim import Simulator, US
from repro.verbs import (
    Completion,
    CompletionQueue,
    Opcode,
    QpType,
    VerbsError,
    WcStatus,
    WorkRequest,
)
from tests.conftest import krcore_cluster, quick_rc_pair, register


def _push_later(sim, cq, delay_ns, wr_id=1):
    def pusher():
        yield delay_ns
        cq.push(Completion(wr_id, WcStatus.SUCCESS, Opcode.SEND))

    sim.process(pusher(), name="pusher")


# --------------------------------------------------------- poll-mode costs


def test_busy_poll_charges_spin_ns_on_rnic():
    """Satellite 1: a busy-polled wait is not free -- the whole elapsed
    wait lands in the CQ's ``stats_spin_ns``."""
    sim = Simulator()
    cluster = Cluster(sim, num_nodes=2)
    node_a, node_b = cluster.node(0), cluster.node(1)
    qp_a, _qp_b = quick_rc_pair(node_a, node_b)
    cq = qp_a.send_cq
    cq.poll_mode = "busy"
    laddr, lmr = register(node_a, 64)
    raddr, rmr = register(node_b, 64, fill=7)
    waited = {}

    def proc():
        qp_a.post_send(WorkRequest.read(laddr, 8, lmr.lkey, raddr, rmr.rkey))
        start = sim.now
        wcs = yield from cq.wait_poll()
        waited["ns"] = sim.now - start
        return wcs

    wcs = sim.run_process(proc())
    assert wcs[0].ok
    assert waited["ns"] > 0
    assert cq.stats_spin_ns == waited["ns"]


def test_event_poll_charges_nothing():
    sim = Simulator()
    cq = CompletionQueue(sim)
    _push_later(sim, cq, 777)
    wcs = sim.run_process(cq.wait_poll())
    assert [wc.wr_id for wc in wcs] == [1]
    assert sim.now == 777
    assert cq.stats_spin_ns == 0
    assert cq.stats_rearms == 0


def test_busy_poll_has_event_latency_but_charges_cpu():
    """The spinning core sees the CQE the instant it lands (same sim time
    as event mode); the difference is purely the accounted CPU."""
    sim = Simulator()
    cq = CompletionQueue(sim, poll_mode="busy")
    _push_later(sim, cq, 777)
    wcs = sim.run_process(cq.wait_poll())
    assert wcs[0].wr_id == 1
    assert sim.now == 777  # zero wake latency
    assert cq.stats_spin_ns == 777  # ...but the wait was CPU, not sleep


def _timed_wait_poll(sim, cq):
    """Run wait_poll and return when *it* finished (the abandoned
    adaptive spin timer may drain the event queue later than that)."""
    finished = {}

    def proc():
        wcs = yield from cq.wait_poll()
        finished["at"] = sim.now
        return wcs

    wcs = sim.run_process(proc())
    return wcs, finished["at"]


def test_adaptive_within_spin_budget_spins_only():
    sim = Simulator()
    cq = CompletionQueue(sim, poll_mode="adaptive")
    _push_later(sim, cq, 400)
    assert 400 < timing.CQ_ADAPTIVE_SPIN_NS
    _wcs, at = _timed_wait_poll(sim, cq)
    assert at == 400  # caught inside the spin window: no wake latency
    assert cq.stats_spin_ns == 400
    assert cq.stats_rearms == 0
    assert cq.stats_wakes == 0


def test_adaptive_past_budget_rearms_sleeps_and_wakes():
    sim = Simulator()
    cq = CompletionQueue(sim, poll_mode="adaptive")
    arrival = 5_000
    _push_later(sim, cq, arrival)
    _wcs, at = _timed_wait_poll(sim, cq)
    # Spin budget burned, then the rearm gap, free sleep until the CQE,
    # then the event-channel wake before the re-poll.
    assert at == arrival + timing.CQ_EVENT_WAKE_NS
    assert cq.stats_spin_ns == timing.CQ_ADAPTIVE_SPIN_NS + timing.CQ_NOTIFY_REARM_NS
    assert cq.stats_rearms == 1
    assert cq.stats_wakes == 1


def test_pending_entries_cost_nothing_in_any_mode():
    """Edge case: completions already queued -- every mode's first poll
    wins immediately, with no spin accounted and no time passing."""
    for mode in ("event", "busy", "adaptive"):
        sim = Simulator()
        cq = CompletionQueue(sim, poll_mode=mode)
        cq.push(Completion(9, WcStatus.SUCCESS, Opcode.SEND))
        wcs = sim.run_process(cq.wait_poll())
        assert wcs[0].wr_id == 9, mode
        assert sim.now == 0, mode
        assert cq.stats_spin_ns == 0, mode


def test_unknown_poll_mode_rejected():
    sim = Simulator()
    with pytest.raises(ValueError):
        CompletionQueue(sim, poll_mode="hybrid")


# ------------------------------------------------------------ CQ edge cases


def test_wait_with_no_outstanding_entries_blocks_until_push():
    """Edge case: arming the CQ with nothing in flight must not fire
    spuriously; the event triggers only when a CQE actually lands."""
    sim = Simulator()
    cq = CompletionQueue(sim)
    event = cq.wait()
    assert not event.triggered
    cq.push(Completion(1, WcStatus.SUCCESS, Opcode.SEND))
    assert event.triggered
    # ...and an armed event does not consume the entry.
    assert len(cq._entries) == 1


def test_poll_releases_multi_slot_covers():
    """Edge case: a tail-signaled chain holds its send-queue slots until
    the covering CQE is *polled* -- exactly the driver's ring accounting."""
    sim = Simulator()
    cluster = Cluster(sim, num_nodes=2)
    node_a, node_b = cluster.node(0), cluster.node(1)
    qp_a, _qp_b = quick_rc_pair(node_a, node_b, sq_depth=4)
    cq = qp_a.send_cq
    laddr, lmr = register(node_a, 64)
    raddr, rmr = register(node_b, 64, fill=3)

    def chain():
        return [
            WorkRequest.read(
                laddr, 8, lmr.lkey, raddr, rmr.rkey,
                wr_id=index, signaled=(index == 3),
            )
            for index in range(4)
        ]

    def proc():
        qp_a.post_send_batch(chain())
        assert qp_a.free_slots == 0
        yield cq.wait()
        # The CQE is pushed but unpolled: the driver has not learned the
        # ring slots are reusable yet.
        assert qp_a.free_slots == 0
        wcs = cq.poll(4)
        assert len(wcs) == 1 and wcs[0].covers == 4
        assert qp_a.free_slots == 4  # polling reclaimed the whole chain
        qp_a.post_send_batch(chain())
        return (yield from cq.wait_poll(4))

    wcs = sim.run_process(proc())
    assert wcs[0].ok and wcs[0].covers == 4


def test_chain_overflowing_ring_wrecks_qp():
    """Edge case: a chain that does not fit the free slots is the
    overflow hazard -- rejected, and the QP is wrecked (model policy)."""
    sim = Simulator()
    cluster = Cluster(sim, num_nodes=2)
    node_a, node_b = cluster.node(0), cluster.node(1)
    qp_a, _qp_b = quick_rc_pair(node_a, node_b, sq_depth=4)
    laddr, lmr = register(node_a, 64)
    raddr, rmr = register(node_b, 64)
    wrs = [
        WorkRequest.read(laddr, 8, lmr.lkey, raddr, rmr.rkey, wr_id=i)
        for i in range(5)
    ]
    with pytest.raises(VerbsError):
        qp_a.post_send_batch(wrs)
    assert qp_a.state.value == "ERR"


def test_wait_poll_returns_qp_error_completion():
    """Edge case: wait_poll racing a QP transition to error -- the busy
    spin ends on the RETRY_EXC CQE and the full wait is still accounted."""
    sim = Simulator()
    cluster = Cluster(sim, num_nodes=2)
    node_a, node_b = cluster.node(0), cluster.node(1)
    qp_a, _qp_b = quick_rc_pair(node_a, node_b)
    qp_a.retry_cnt = 1
    qp_a.timeout_ns = 2 * US
    cq = qp_a.send_cq
    cq.poll_mode = "busy"
    cluster.fabric.set_link_fault(
        node_a.gid, node_b.gid, LinkFault(drop_prob=1.0)
    )
    laddr, lmr = register(node_a, 64)
    raddr, rmr = register(node_b, 64)

    def proc():
        qp_a.post_send(WorkRequest.read(laddr, 8, lmr.lkey, raddr, rmr.rkey))
        return (yield from cq.wait_poll())

    wcs = sim.run_process(proc())
    assert wcs[0].status is WcStatus.RETRY_EXC_ERR
    assert qp_a.state.value == "ERR"
    assert cq.stats_spin_ns == sim.now  # spun from t=0 until the error CQE


# ------------------------------------------------------- doorbell batching


def test_post_send_batch_sets_chained_flags():
    sim = Simulator()
    cluster = Cluster(sim, num_nodes=2)
    qp_a, _qp_b = quick_rc_pair(cluster.node(0), cluster.node(1))
    laddr, lmr = register(cluster.node(0), 64)
    raddr, rmr = register(cluster.node(1), 64)
    wrs = [
        WorkRequest.read(laddr, 8, lmr.lkey, raddr, rmr.rkey, wr_id=i)
        for i in range(3)
    ]
    with obs.observe() as (_tracer, metrics):
        qp_a.post_send_batch(wrs)
        assert metrics.counter("verbs.doorbell_batched_wrs").value == 3
    assert [wr.chained for wr in wrs] == [False, True, True]
    sim.run()


def test_post_send_batch_single_wr_is_plain_post():
    """A one-WR 'chain' is just post_send: no chaining, no doorbell
    batch counted."""
    sim = Simulator()
    cluster = Cluster(sim, num_nodes=2)
    qp_a, _qp_b = quick_rc_pair(cluster.node(0), cluster.node(1))
    laddr, lmr = register(cluster.node(0), 64)
    raddr, rmr = register(cluster.node(1), 64)
    wr = WorkRequest.read(laddr, 8, lmr.lkey, raddr, rmr.rkey)
    with obs.observe() as (_tracer, metrics):
        qp_a.post_send_batch([wr])
        assert metrics.counter("verbs.doorbell_batched_wrs").value == 0
    assert wr.chained is False
    sim.run()


def _chain_completion_time(batched, n=8):
    sim = Simulator()
    cluster = Cluster(sim, num_nodes=2)
    node_a, node_b = cluster.node(0), cluster.node(1)
    qp_a, _qp_b = quick_rc_pair(node_a, node_b)
    laddr, lmr = register(node_a, 64)
    raddr, rmr = register(node_b, 64)
    wrs = [
        WorkRequest.read(laddr, 8, lmr.lkey, raddr, rmr.rkey, wr_id=i)
        for i in range(n)
    ]

    def proc():
        if batched:
            qp_a.post_send_batch(wrs)
        else:
            for wr in wrs:
                qp_a.post_send(wr)
        covered = 0
        while covered < n:
            for wc in (yield from qp_a.send_cq.wait_poll(n)):
                covered += wc.covers
        return sim.now

    return sim.run_process(proc())


def test_batched_chain_finishes_sooner_than_serial():
    """The point of the doorbell: successor WQEs issue at the chained
    NIC fetch cost, so the tail completes earlier than serial posts."""
    n = 8
    serial = _chain_completion_time(batched=False, n=n)
    batched = _chain_completion_time(batched=True, n=n)
    assert batched < serial
    # Exactly the issue-cost delta: (n-1) successors at 60ns vs 200ns.
    assert serial - batched == (n - 1) * (timing.NIC_TX_NS - timing.NIC_TX_CHAINED_NS)


def test_vqp_post_send_batch_is_one_syscall_one_doorbell():
    """The batched post crosses the VQP boundary in ONE kernel entry and
    rings ONE doorbell; serial posts pay one of each per WR.  Measured as
    the exact posting-time delta: one saved syscall + one saved doorbell
    for a 2-WR chain (validation and translation costs are identical)."""
    sim = Simulator()
    cluster, _meta, _modules = krcore_cluster(sim, num_nodes=4, background_rc=False)
    lib_s = KrcoreLib(cluster.node(2))
    lib = KrcoreLib(cluster.node(1))

    def setup(lib_, node):
        def proc():
            addr = node.memory.alloc(4096)
            region = yield from lib_.reg_mr(addr, 4096)
            return addr, region

        return sim.run_process(proc())

    raddr, rmr = setup(lib_s, cluster.node(2))
    laddr, lmr = setup(lib, cluster.node(1))
    cluster.node(2).memory.write(raddr, b"0123456789abcdef")

    def wrs():
        return [
            WorkRequest.read(laddr + 8 * i, 8, lmr.lkey, raddr + 8 * i, rmr.rkey)
            for i in range(2)
        ]

    def drain(vqp):
        entry = yield from vqp.wait_send_completion()
        assert entry.ok

    def proc():
        vqp = yield from lib.create_vqp()
        yield from lib.qconnect(vqp, cluster.node(2).gid)
        # Warm the remote-MR cache so both measured posts validate from
        # cache and the timing comparison is apples-to-apples.
        yield from lib.post_send(vqp, wrs()[:1])
        yield from drain(vqp)
        start = sim.now
        for wr in wrs():
            yield from lib.post_send(vqp, [wr])
        serial_ns = sim.now - start
        yield from drain(vqp)
        yield from drain(vqp)
        start = sim.now
        yield from lib.post_send_batch(vqp, wrs())
        batched_ns = sim.now - start
        yield from drain(vqp)
        return serial_ns, batched_ns

    serial_ns, batched_ns = sim.run_process(proc())
    assert serial_ns - batched_ns == timing.SYSCALL_NS + timing.POST_SEND_CPU_NS
    assert cluster.node(1).memory.read(laddr, 16) == b"0123456789abcdef"
