"""The invariant registry: directed tests per invariant.

Each feeds a :class:`Checker` of its own, by hand-built hook events or
by a small real run under ``obs.attached(checker=...)``, and asserts
the violation logic in both polarities.  Every other test runs under
the ambient checker of ``tests/conftest.py``; ``tests/test_check_runs.py``
pins that every hook fires.
"""

from types import SimpleNamespace

import pytest

from repro import obs
from repro.check.invariants import Checker
from repro.cluster import Cluster
from repro.faults.gray import GrayChaosHarness
from repro.faults.harness import ChaosHarness
from repro.krcore import KrcoreLib
from repro.sim import Simulator
from repro.verbs import QpOverflowError, WorkRequest
from tests._mutants import accept_leak
from tests.conftest import krcore_cluster, quick_dc_qp, quick_rc_pair, register
from tests.test_check_runs import pool_churn


class _Fake(SimpleNamespace):
    """A stand-in the checker may hold weakly."""


def _fake_qp(qpn, rnic, sim):
    return _Fake(qpn=qpn, sim=sim, node=_Fake(rnic=rnic, gid=f"host-of-{qpn}"))


class _FakeRnic:
    def __init__(self):
        self._qps = {}

    def qp(self, qpn):
        return self._qps.get(qpn)


def _booted(checker, sim, **attrs):
    """A fake module the checker learned at its boot (and holds weakly:
    a caller keeps it)."""
    module = _Fake(**{"sim": sim, "node": _Fake(gid="nodeZ", incarnation=0),
                      "own_dct_meta": (1, 2), "meta_plane": _Fake(shards=[]),
                      "wrid_tokens": {}, "live_vqps": lambda: (),
                      "indexed_vqps": lambda: (), **attrs})
    checker.dct_published(module)
    return module


def test_pool_accounting_flags_evicted_but_registered():
    checker, sim, rnic = Checker(), Simulator(), _FakeRnic()
    qp_a, qp_b = _fake_qp(1, rnic, sim), _fake_qp(2, rnic, sim)
    rnic._qps = {1: qp_a, 2: qp_b}
    checker.pool_rc_insert(None, "peer1", qp_a, None)
    # qp_b's insert evicts qp_a; nobody ever retires it.
    checker.pool_rc_insert(None, "peer2", qp_b, ("peer1", qp_a))
    assert [v.invariant for v in checker.finalize()] == ["pool-qp-accounting"]
    assert "evicted" in checker.violations[0].detail


def test_pool_accounting_clean_when_retired_or_node_restarted():
    checker, sim, rnic = Checker(), Simulator(), _FakeRnic()
    qp_a, qp_b = _fake_qp(1, rnic, sim), _fake_qp(2, rnic, sim)
    rnic._qps = {2: qp_b}  # qp_a already unregistered
    checker.pool_rc_insert(None, "peer1", qp_a, None)
    checker.pool_rc_insert(None, "peer2", qp_b, ("peer1", qp_a))
    checker.rc_retired(qp_a)
    # A third QP whose node restarted (new RNIC object): out of scope.
    qp_c = _fake_qp(3, rnic, sim)
    checker.pool_rc_insert(None, "peer3", qp_c, None)
    qp_c.node.rnic = _FakeRnic()
    assert checker.finalize() == []


def test_pool_accounting_flags_pooled_but_unregistered():
    checker, sim = Checker(), Simulator()
    rnic = _FakeRnic()
    qp = _fake_qp(1, rnic, sim)  # never registered with the fake RNIC
    checker.pool_rc_insert(None, "peer", qp, None)
    assert [v.invariant for v in checker.finalize()] == ["pool-qp-accounting"]
    assert "not RNIC-registered" in checker.violations[0].detail


def test_a_world_still_holding_events_gets_only_the_immediate_laws():
    checker, sim = Checker(), Simulator()
    rnic = _FakeRnic()
    qp = _fake_qp(1, rnic, sim)
    checker.pool_rc_insert(None, "peer", qp, None)
    sim.schedule(5, lambda: None)
    assert checker.finalize() == []
    sim.run()
    assert [v.invariant for v in checker.finalize()] == ["pool-qp-accounting"]


def test_dccache_rejects_meta_no_incarnation_published():
    checker, sim = Checker(), Simulator()
    peer = _booted(checker, sim)
    peer.node.incarnation, peer.own_dct_meta = 1, (11, 222)
    checker.dct_published(peer)
    module = _Fake(sim=sim, node=_Fake(gid="nodeX"))
    checker.dc_cache_insert(module, "nodeZ", (1, 2))  # old incarnation: legal
    checker.dc_cache_insert(module, "nodeZ", (11, 222))
    assert checker.ok
    checker.dc_cache_insert(module, "nodeZ", (99, 999))  # never published
    assert [v.invariant for v in checker.violations] == ["dccache-incarnation"]
    # Gids repeat across clusters: another simulator's node0 is another node.
    checker.dc_cache_insert(_Fake(sim=Simulator(), node=module.node), "nodeZ", (99, 999))
    assert len(checker.violations) == 1


def test_mrstore_lease_branches():
    store = _Fake(sim=_Fake(now=1000), module=_Fake(node=_Fake(gid="nodeY")))
    checker = Checker()
    checker.mr_accept(store, "peer", 7, entry_epoch=4, now_epoch=4, stale=False)
    checker.mr_accept(store, "peer", 7, entry_epoch=3, now_epoch=4, stale=True)
    assert checker.ok
    # Future epoch.
    checker.mr_accept(store, "peer", 7, entry_epoch=5, now_epoch=4, stale=False)
    # The pre-PR4 bug: a stale accept re-stamped to the current epoch.
    checker.mr_accept(store, "peer", 7, entry_epoch=4, now_epoch=4, stale=True)
    # A "fresh" verdict stamped in the past.
    checker.mr_accept(store, "peer", 7, entry_epoch=2, now_epoch=4, stale=False)
    assert [v.invariant for v in checker.violations] == ["mrstore-lease"] * 3
    assert "re-stamped" in checker.violations[1].detail


def _two_shard_world():
    """A drained cluster on a two-shard plane (every key on both), booted
    under a checker of its own: ``(checker, plane, key, modules)``."""
    checker = Checker()
    with obs.attached(checker=checker):
        sim = Simulator()
        cluster, plane, modules = krcore_cluster(sim, num_nodes=3, meta_shards=2)
        sim.run()
    key = b"dct:node2"
    assert [shard.store.get_local(key) is not None for shard in plane.owners(key)] == [True] * 2
    return checker, plane, key, modules


def test_meta_convergence_divergence_and_lost_write():
    checker, plane, key, _modules = _two_shard_world()
    assert checker.finalize() == []
    plane.owners(key)[1].store.put(key, b"stale")  # behind the hook's back
    assert [v.invariant for v in checker.finalize()] == ["meta-replica-divergence"]

    checker, plane, key, _modules = _two_shard_world()
    for shard in plane.owners(key):
        shard.store.delete(key)
    assert [v.invariant for v in checker.finalize()] == ["meta-lost-write"]

    # All owners dead: nothing checkable, no violation.
    checker, plane, key, _modules = _two_shard_world()
    for shard in plane.owners(key):
        shard.store.delete(key)
        shard.node.alive = False
    assert checker.finalize() == []


def test_wr_dispatched_twice_is_flagged():
    checker = Checker()
    module = _Fake(sim=Simulator(), node=_Fake(gid="nodeZ"))
    checker.wr_dispatch(module, 41)
    checker.wr_dispatch(module, 42)
    assert checker.ok
    checker.wr_dispatch(module, 41)
    assert [v.invariant for v in checker.violations] == ["wr-exactly-once"]


def test_an_unpolled_completion_is_not_a_lost_one():
    """A READ posted and never waited for leaves its completion unpolled
    in the CQ of the QP its VQP is on: legal at quiescence.  Once the VQP
    has left that QP (a post that slipped behind a transfer's fence), the
    completion is lost."""
    checker = Checker()
    with obs.attached(checker=checker):
        sim = Simulator()
        cluster, _meta, modules = krcore_cluster(sim, num_nodes=3, background_rc=False)
        client, server = cluster.node(1), cluster.node(2)
        lib = KrcoreLib(client)
        laddr, raddr = client.memory.alloc(8), server.memory.alloc(8)
        lregion, rregion = modules[1].boot_mr(laddr, 8), modules[2].boot_mr(raddr, 8)

        def post():
            vqp = yield from lib.create_vqp()
            yield from lib.qconnect(vqp, server.gid)
            wr = WorkRequest.read(laddr, 8, lregion.lkey, raddr, rregion.rkey, 8)
            yield from lib.post_send(vqp, wr)
            return vqp

        vqp = sim.run_process(post())
    assert checker.finalize() == [] and modules[1].wrid_tokens
    vqp.qp = quick_dc_qp(client)
    assert [v.invariant for v in checker.finalize()] == ["wr-exactly-once"]
    assert "lost the completion" in checker.violations[0].detail


def test_destroyed_vqp_still_indexed_flagged_at_finalize():
    checker, sim = Checker(), Simulator()
    live = _Fake(id=1, destroyed=False, comp_queue=[])
    dead = _Fake(id=2, destroyed=True, comp_queue=[])
    module = _booted(checker, sim, indexed_vqps=lambda: (live, dead, dead))  # noqa: F841  (held)
    assert [v.invariant for v in checker.finalize()] == ["vqp-table-accounting"]
    assert "[2]" in checker.violations[0].detail


def test_a_completion_left_in_a_live_vqp_is_flagged_at_finalize():
    """A dispatched completion no owner reaped went where its owner no
    longer polls; one still in flight (not ready) is the token law's."""
    pending = _Fake(ready=False)
    reaped = _Fake(id=1, comp_queue=[pending])
    stranded = _Fake(id=2, comp_queue=[pending, _Fake(ready=True)])
    checker = Checker()
    module = _booted(checker, Simulator(), live_vqps=lambda: (reaped, stranded))  # noqa: F841
    assert [v.invariant for v in checker.finalize()] == ["vqp-unreaped-completion"]
    assert "[2]" in checker.violations[0].detail


def test_a_chain_post_send_rejected_is_not_a_batch():
    """A chain too long for the ring wrecks the QP and is refused whole:
    it was never posted, so it owes no completion."""
    checker = Checker()
    with obs.attached(checker=checker):
        sim = Simulator()
        client, server = Cluster(sim, num_nodes=2).nodes
        qp, _ = quick_rc_pair(client, server, sq_depth=2)
        laddr, lregion = register(client, 8)
        raddr, rregion = register(server, 8)
        chain = [WorkRequest.write(laddr, 8, lregion.lkey, raddr, rregion.rkey)
                 for _ in range(3)]
        with pytest.raises(QpOverflowError):
            qp.post_send_batch(chain)
        sim.run()
    assert checker.finalize() == []
    assert "batch.posted" not in checker.observed


def test_rnic_busy_overlap_is_flagged():
    rnic, other = (node.rnic for node in Cluster(Simulator(), num_nodes=2).nodes)
    checker = Checker()
    checker.rnic_busy(rnic, "inbound", 0, 100)
    checker.rnic_busy(rnic, "inbound", 100, 200)  # back-to-back: fine
    assert checker.ok
    checker.rnic_busy(rnic, "inbound", 150, 250)  # overlaps
    assert [v.invariant for v in checker.violations] == ["rnic-busy-conservation"]
    assert "[150, 250]" in checker.violations[0].detail
    # Distinct engines, and the same engine of distinct RNICs, never interact.
    checker2 = Checker()
    checker2.rnic_busy(rnic, "inbound", 0, 100)
    checker2.rnic_busy(rnic, "command", 50, 80)
    checker2.rnic_busy(other, "inbound", 50, 80)
    assert checker2.ok


def test_inbound_ops_and_stalls_share_one_busy_chain_and_drain():
    """An inbound stall and the ops queued behind it are one interval
    chain, and the quiescence audit wants the busy-until clock caught up
    with: an op admitted by hand that no flight serves stays unserved."""
    sim = Simulator()
    rnic = Cluster(sim, num_nodes=1).nodes[0].rnic
    checker = Checker()
    with obs.attached(checker=checker):
        sim.process(rnic.stall(500, engine="inbound"))
        sim.run(until=100)
        assert rnic.inbound_admit(7.5) == (500, 507)
        assert checker.observed["rnic.busy"] == 2
        assert checker.finalize() == []  # mid-flight: not drained, not audited
        sim.run()
    assert [v.invariant for v in checker.finalize()] == ["rnic-busy-conservation"]
    assert "1 op(s) unserved" in checker.violations[0].detail


def test_one_sided_read_reports_inbound_occupancy():
    """Regression: the READ/WRITE responder block inlined in
    ``QueuePair._flight`` never reported its busy interval, leaving
    ``rnic-busy-conservation`` blind to the bulk of the traffic."""
    sim = Simulator()
    client, server = Cluster(sim, num_nodes=2).nodes
    qp, _ = quick_rc_pair(client, server)
    laddr, lmr = register(client, 64)
    raddr, rmr = register(server, 64)

    def proc():
        qp.post_send([
            WorkRequest.read(laddr, 8, lmr.lkey, raddr, rmr.rkey, signaled=False),
            WorkRequest.write(laddr, 8, lmr.lkey, raddr, rmr.rkey),
        ])
        yield from qp.send_cq.wait_poll()

    checker = Checker()
    with obs.attached(checker=checker):
        sim.run_process(proc())
    assert checker.observed.get("rnic.busy") == 2
    assert checker.finalize() == []


def test_a_chaos_report_does_not_depend_on_its_caller():
    """A checked chaos run audits its own world under its own checker: it
    digests the same alone as after another run under one outer checker,
    and neither run's meta writes are asked of the other's plane."""
    alone = GrayChaosHarness(1).run().digest()
    checker = Checker()
    with obs.attached(checker=checker):
        ChaosHarness(1).run()
        report = GrayChaosHarness(1).run()
    assert report.digest() == alone
    assert report.checker_summary.startswith("invariants=PASS")
    assert checker.finalize() == []


def test_registry_catches_pre_fix_accept_path_leak():
    """Re-introduce the accept-path RC leak (insert_rc dropping the
    eviction result): pool-qp-accounting must fire; the fixed module
    must stay clean on the identical run."""
    leaky = Checker()
    with obs.attached(checker=leaky), accept_leak():
        pool_churn()
    leaks = [v for v in leaky.finalize() if v.invariant == "pool-qp-accounting"]
    assert leaks, "registry missed the pre-fix accept-path RC leak"
    assert "still RNIC-registered" in leaks[0].detail

    fixed = Checker()
    with obs.attached(checker=fixed):
        pool_churn()
    assert fixed.finalize() == []


@pytest.mark.unchecked("measures the uninstalled path: nothing may be installed")
def test_uninstalled_checker_costs_nothing_observable():
    """With nothing installed the probe sites are single identity tests;
    a run must not create or require an observer (OBSERVER stays None)."""

    assert obs.OBSERVER is None
    sim = Simulator()
    cluster, meta, modules = krcore_cluster(sim, num_nodes=3, background_rc=False)
    lib = KrcoreLib(cluster.node(1))

    def proc():
        vqp = yield from lib.create_vqp()
        yield from lib.qconnect(vqp, cluster.node(2).gid)

    sim.run_process(proc())
    assert obs.OBSERVER is None
