"""Fault-injection primitives and the retransmission machinery under them.

Covers the `repro.faults` building blocks (LinkFault draws, FaultPlan
generation, the injector) and the hardened verbs layer they exercise:
timeout/retry retransmission, exactly-once semantics under packet
duplication and response loss, RNIC engine stalls, crash/restart.
"""

import pytest

from repro.cluster import timing
from repro.cluster.fabric import LinkFault
from repro.cluster.node import Node
from repro.faults import FaultEvent, FaultInjector, FaultPlan
from repro.faults.plan import META_OUTAGE, NODE_CRASH, NODE_RESTART
from repro.krcore import KrcoreModule
from repro.sim import MS, US
from repro.verbs import Opcode, QpState, WcStatus, WorkRequest
from tests.conftest import krcore_cluster, quick_rc_pair, register


def _await_completion(qp):
    completions = yield from qp.send_cq.wait_poll()
    return completions[0]


# ---------------------------------------------------------------------------
# LinkFault: seeded, deterministic packet draws
# ---------------------------------------------------------------------------


def test_link_fault_draws_are_seed_deterministic():
    a = LinkFault(drop_prob=0.3, dup_prob=0.2, seed=7)
    b = LinkFault(drop_prob=0.3, dup_prob=0.2, seed=7)
    seq_a = [(a.drops(), a.duplicates()) for _ in range(256)]
    seq_b = [(b.drops(), b.duplicates()) for _ in range(256)]
    assert seq_a == seq_b

    c = LinkFault(drop_prob=0.3, dup_prob=0.2, seed=8)
    seq_c = [(c.drops(), c.duplicates()) for _ in range(256)]
    assert seq_c != seq_a


def test_link_fault_probability_extremes():
    never = LinkFault(drop_prob=0.0, dup_prob=0.0, seed=3)
    assert not any(never.drops() for _ in range(64))
    assert not any(never.duplicates() for _ in range(64))
    always = LinkFault(drop_prob=1.0, dup_prob=1.0, seed=3)
    assert all(always.drops() for _ in range(64))
    assert all(always.duplicates() for _ in range(64))


def test_link_fault_rates_track_probability():
    fault = LinkFault(drop_prob=0.25, seed=11)
    dropped = sum(fault.drops() for _ in range(4096))
    assert 0.18 < dropped / 4096 < 0.32


# ---------------------------------------------------------------------------
# Fabric detach / node crash + restart
# ---------------------------------------------------------------------------


def test_detach_is_idempotent(cluster):
    node = cluster.node(1)
    fabric = cluster.fabric
    assert fabric.has_node(node.gid)
    fabric.detach(node)
    assert not fabric.has_node(node.gid)
    fabric.detach(node)  # second detach is a no-op, not an error
    assert not fabric.has_node(node.gid)


def test_detach_never_knocks_out_a_gid_reusing_replacement(sim, cluster):
    old = cluster.node(1)
    old.fail()
    replacement = Node(sim, cluster.fabric, old.gid)
    # Detaching the *old* object must not remove the replacement's route.
    cluster.fabric.detach(old)
    assert cluster.fabric.node(old.gid) is replacement


def test_fail_detaches_and_is_idempotent(cluster):
    node = cluster.node(1)
    node.fail()
    assert not node.alive
    assert not cluster.fabric.has_node(node.gid)
    node.fail()  # crashing a dead node changes nothing
    assert not node.alive


def test_restart_requires_a_failed_node(cluster):
    with pytest.raises(ValueError):
        cluster.node(1).restart()


def test_restart_gives_fresh_hardware_and_bumps_incarnation(sim, cluster):
    node = cluster.node(1)
    old_rnic, old_memory = node.rnic, node.memory
    node.services["marker"] = object()
    node.fail()
    node.restart()
    assert node.alive
    assert node.incarnation == 1
    assert node.rnic is not old_rnic
    assert node.memory is not old_memory
    assert node.services == {}
    assert cluster.fabric.node(node.gid) is node


def test_restart_wrecks_the_old_qps(sim, cluster):
    client, server = cluster.node(0), cluster.node(1)
    qp_c, qp_s = quick_rc_pair(client, server)
    server.fail()
    server.restart()
    assert qp_s.state is QpState.ERR
    # The client-side QP is untouched: its peer death surfaces through
    # retransmission timeouts, not through magic state changes.
    assert qp_c.state is QpState.RTS


def test_reloaded_module_reserves_its_pool_block_on_the_new_rnic(sim):
    """A module's pool QPNs are reserved at load and built on first use.
    The restart builds the old module's unbuilt QPs to wreck them with the
    rest (a straggler holding the old stack must get ERR QPs of the old
    RNIC, never fresh ones registered on the new RNIC's numbers); the
    re-loaded module takes QPNs 1..48 of the new RNIC."""
    cluster, meta, modules = krcore_cluster(sim, num_nodes=3)
    node, old = cluster.node(2), modules[2]
    used = old.pool(3).dc
    assert [qp.qpn for qp in used] == [7, 8]
    old_rnic = node.rnic
    node.fail()
    node.restart()
    old_qps = [qp for pool in old.built_pools() for qp in pool.dc]
    assert [qp.qpn for qp in old_qps] == list(range(1, 49)) and old_qps[6:8] == used
    assert {qp.state for qp in old_qps} == {QpState.ERR}
    assert [old_rnic.qp(qp.qpn) for qp in old_qps] == old_qps
    assert node.rnic._qps == {}

    new = KrcoreModule(node, meta)
    assert new.built_pools() == [] and node.rnic._qps == {}
    fresh = new.pool(3).dc
    assert [(qp.qpn, qp.state) for qp in fresh] == [(7, QpState.RTS), (8, QpState.RTS)]
    assert [node.rnic.qp(qpn) for qpn in (7, 8)] == fresh
    assert new.meta_client(0).qp.qpn == 49
    assert old.pool(3).dc == used  # the old stack still finds its wrecked QPs


def test_rnic_stall_backs_up_command_work(sim, cluster):
    node = cluster.node(1)
    sim.process(node.rnic.stall(50 * US, engine="command"), name="stall")

    def proc():
        yield 1  # let the stall acquire the engine first
        start = sim.now
        yield from node.rnic.command(1 * US)
        return sim.now - start

    elapsed = sim.run_process(proc())
    assert elapsed >= 50 * US


def test_rnic_stall_backs_up_inbound_work(sim, cluster):
    client, server = cluster.node(0), cluster.node(1)
    qp, _ = quick_rc_pair(client, server)
    laddr, lmr = register(client, 64)
    raddr, rmr = register(server, 64)

    def read():
        start = sim.now
        qp.post_send([WorkRequest.read(laddr, 8, lmr.lkey, raddr, rmr.rkey)])
        yield from qp.send_cq.wait_poll()
        return sim.now - start

    idle = sim.run_process(read())
    sim.process(server.rnic.stall(50 * US, engine="inbound"), name="stall")
    stalled = sim.run_process(read())
    # The READ reaches the responder mid-stall and is served right behind it.
    assert 50 * US < stalled < 50 * US + idle
    assert server.rnic.stats_inbound_ops == 2


@pytest.mark.parametrize("typo", ["inbond", "cmd", "", None])
def test_stall_rejects_an_unknown_engine_name(sim, cluster, typo):
    """Regression: every name but "command" used to wedge the inbound
    engine, so a typo silently stalled the wrong one."""
    rnic = cluster.node(1).rnic
    with pytest.raises(ValueError, match="command.*inbound"):
        sim.run_process(rnic.stall(1 * US, engine=typo))
    with pytest.raises(ValueError, match="command.*inbound"):
        FaultPlan(seed=1).stall_rnic(1 * US, "node1", 1 * US, engine=typo)
    sim.run()
    assert rnic._inbound_free_at == 0 and rnic.command_processor._in_use == 0


# ---------------------------------------------------------------------------
# Retransmission: timeout/retry_cnt attributes on the QP
# ---------------------------------------------------------------------------


def test_transient_loss_is_absorbed_by_retransmission(sim, cluster):
    client, server = cluster.node(0), cluster.node(1)
    qp, _ = quick_rc_pair(client, server)
    laddr, lmr = register(client, 64)
    raddr, rmr = register(server, 64, fill=0x5A)
    fabric = cluster.fabric
    fabric.set_link_fault(client.gid, server.gid, LinkFault(drop_prob=1.0, seed=1))
    # The outage heals before the retry budget runs out.
    sim.schedule(qp.timeout_ns // 2, lambda: fabric.clear_link_fault(client.gid, server.gid))

    def proc():
        start = sim.now
        qp.post_send(WorkRequest.read(laddr, 16, lmr.lkey, raddr, rmr.rkey))
        completion = yield from _await_completion(qp)
        return completion, sim.now - start

    completion, elapsed = sim.run_process(proc())
    assert completion.ok
    assert elapsed >= qp.timeout_ns  # paid at least one retransmission timer
    assert client.memory.read(laddr, 16) == b"\x5a" * 16
    assert qp.state is QpState.RTS


def test_retry_exhaustion_completes_retry_exc(sim, cluster):
    client, server = cluster.node(0), cluster.node(1)
    qp, _ = quick_rc_pair(client, server)
    laddr, lmr = register(client, 64)
    raddr, rmr = register(server, 64)
    cluster.fabric.set_link_fault(
        client.gid, server.gid, LinkFault(drop_prob=1.0, seed=2)
    )

    def proc():
        start = sim.now
        qp.post_send(WorkRequest.read(laddr, 8, lmr.lkey, raddr, rmr.rkey))
        completion = yield from _await_completion(qp)
        return completion, sim.now - start

    completion, elapsed = sim.run_process(proc())
    assert completion.status is WcStatus.RETRY_EXC_ERR
    # retry_cnt retransmissions, each after a full timeout.
    assert elapsed >= qp.retry_cnt * qp.timeout_ns
    assert qp.state is QpState.ERR


def test_request_duplication_applies_atomics_exactly_once(sim, cluster):
    client, server = cluster.node(0), cluster.node(1)
    qp, _ = quick_rc_pair(client, server)
    laddr, lmr = register(client, 64)
    raddr, rmr = register(server, 64)
    cluster.fabric.set_link_fault(
        client.gid, server.gid, LinkFault(dup_prob=1.0, seed=4)
    )

    def proc():
        for _ in range(5):
            qp.post_send(
                WorkRequest(
                    Opcode.FETCH_ADD,
                    laddr=laddr,
                    length=8,
                    lkey=lmr.lkey,
                    raddr=raddr,
                    rkey=rmr.rkey,
                    compare=1,
                    signaled=True,
                )
            )
            completion = yield from _await_completion(qp)
            assert completion.ok

    sim.run_process(proc())
    # Every request arrived twice; the duplicate is discarded by PSN, so
    # the counter advanced exactly once per post.
    assert int.from_bytes(server.memory.read(raddr, 8), "big") == 5


def test_response_loss_does_not_reapply_the_op(sim, cluster):
    client, server = cluster.node(0), cluster.node(1)
    qp, _ = quick_rc_pair(client, server)
    laddr, lmr = register(client, 64)
    raddr, rmr = register(server, 64)
    fabric = cluster.fabric
    # Drop the *response* path: the op executes, the ACK is lost, and the
    # retransmitted request must not apply the side effect again.
    fabric.set_link_fault(server.gid, client.gid, LinkFault(drop_prob=1.0, seed=5))
    sim.schedule(qp.timeout_ns // 2, lambda: fabric.clear_link_fault(server.gid, client.gid))

    def proc():
        qp.post_send(
            WorkRequest(
                Opcode.FETCH_ADD,
                laddr=laddr,
                length=8,
                lkey=lmr.lkey,
                raddr=raddr,
                rkey=rmr.rkey,
                compare=1,
                signaled=True,
            )
        )
        completion = yield from _await_completion(qp)
        return completion

    completion = sim.run_process(proc())
    assert completion.ok
    assert int.from_bytes(server.memory.read(raddr, 8), "big") == 1
    # The (replayed) response still carries the original old value.
    assert int.from_bytes(client.memory.read(laddr, 8), "big") == 0


def test_mid_flight_crash_completes_retry_exc_with_code(sim, cluster):
    client, server = cluster.node(0), cluster.node(1)
    qp, _ = quick_rc_pair(client, server)
    nbytes = 1 << 20  # ~80 us on the wire: the crash lands mid-transfer
    laddr, lmr = register(client, nbytes)
    raddr, rmr = register(server, nbytes)
    sim.schedule(10 * US, server.fail)

    def proc():
        qp.post_send(WorkRequest.read(laddr, nbytes, lmr.lkey, raddr, rmr.rkey))
        completion = yield from _await_completion(qp)
        return completion

    completion = sim.run_process(proc())
    assert completion.status is WcStatus.RETRY_EXC_ERR


# ---------------------------------------------------------------------------
# FaultPlan / FaultInjector
# ---------------------------------------------------------------------------


def _events(plan):
    return [(e.at_ns, e.kind, sorted(e.params.items())) for e in plan.sorted_events()]


def test_fault_plan_random_is_reproducible():
    kwargs = dict(
        victim_gids=["node1", "node2"], horizon_ns=8 * MS, meta_gid="node0"
    )
    a = FaultPlan.random(97, **kwargs)
    b = FaultPlan.random(97, **kwargs)
    assert _events(a) == _events(b)
    assert _events(a) != _events(FaultPlan.random(98, **kwargs))


def test_fault_plan_random_spares_meta_and_pairs_restarts():
    for seed in range(20):
        plan = FaultPlan.random(
            seed, ["node1", "node2", "node0"], horizon_ns=8 * MS, meta_gid="node0"
        )
        crashes = {}
        restarts = {}
        for event in plan.events:
            gid = event.params.get("gid")
            assert gid != "node0" or event.kind == META_OUTAGE
            if event.kind == NODE_CRASH:
                crashes[gid] = event.at_ns
            elif event.kind == NODE_RESTART:
                restarts[gid] = event.at_ns
        for gid, at in crashes.items():
            assert gid in restarts and restarts[gid] > at


def test_injector_applies_events_in_order(sim, cluster):
    from repro.krcore import MetaServer

    meta = MetaServer(cluster.node(0))
    victim = cluster.node(1)
    plan = (
        FaultPlan(seed=6)
        .meta_outage(1 * US, 5 * US)
        .crash_node(10 * US, victim.gid)
        .restart_node(20 * US, victim.gid)
    )
    restarted = []
    injector = FaultInjector(
        type("C", (), {"sim": sim, "fabric": cluster.fabric, "nodes": cluster.nodes})(),
        meta,
        plan,
        on_restart=restarted.append,
    )
    injector.start()
    sim.run()
    assert [kind for _, kind, _ in injector.applied] == [
        "meta_outage",
        "node_crash",
        "node_restart",
    ]
    assert [t for t, _, _ in injector.applied] == [1 * US, 10 * US, 20 * US]
    assert restarted == [victim]
    assert victim.alive and victim.incarnation == 1


def test_link_fault_install_and_clear_round_trip(sim, cluster):
    fabric = cluster.fabric
    plan = FaultPlan(seed=9).degrade_link(
        1 * US, "node0", "node1", duration_ns=10 * US, drop_prob=0.5
    )
    injector = FaultInjector(
        type("C", (), {"sim": sim, "fabric": fabric, "nodes": cluster.nodes})(),
        None,
        plan,
    )
    injector.start()
    sim.run(until=5 * US)
    assert ("node0", "node1") in fabric.link_faults
    sim.run()
    assert not fabric.link_faults  # cleared after the window


def _plan_of(*events):
    plan = FaultPlan(1)
    plan.events.extend(events)
    return plan


@pytest.mark.parametrize(
    "plan",
    [
        FaultPlan(1).crash_node(1 * MS, "node9"),
        FaultPlan(1).degrade_link(1 * MS, "node1", "node9", duration_ns=1 * MS),
        # No builder makes this kind, so the injector cannot apply it.
        _plan_of(FaultEvent(1 * MS, "no_such_kind", gid="node1")),
    ],
    ids=["unknown-gid", "unknown-link-end", "unapplied-kind"],
)
def test_a_bad_plan_fails_before_simulated_time_passes(plan):
    """Regression: a plan naming a node the cluster lacks (or a kind the
    injector cannot apply) used to fail at the event's fire time, 1 ms
    into the run -- or, for a link end, never.  ``start()`` checks every
    event first."""
    from repro.faults.harness import ChaosHarness

    harness = ChaosHarness(1, plan=plan, ops_per_client=20)
    with pytest.raises(ValueError):
        harness.run()
    assert harness.sim.now == 0

