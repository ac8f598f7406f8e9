"""The invariant registry: directed tests per invariant + hook wiring.

Two layers:

* **unit** -- feed a bare :class:`Checker` hand-built hook events and
  assert each invariant's violation logic (both polarities);
* **wiring** -- run real scenarios under the runner and assert each
  registry hook actually fired (``checker.observed``), so silently
  disconnecting a call site in ``krcore`` / ``cluster`` fails tier-1,
  and that the registry catches the *real* pre-fix accept-path RC leak
  while passing on the fixed module.
"""

from types import SimpleNamespace

from repro.check.invariants import Checker
from repro.check.runner import run_once
from repro.krcore import KrcoreLib
from repro.sim import Simulator
from tests._mutants import accept_leak
from tests.conftest import krcore_cluster


# ---------------------------------------------------------------- unit layer


def _fake_qp(qpn, rnic):
    node = SimpleNamespace(rnic=rnic, gid=f"host-of-{qpn}")
    return SimpleNamespace(qpn=qpn, node=node)


class _FakeRnic:
    def __init__(self):
        self._qps = {}

    def qp(self, qpn):
        return self._qps.get(qpn)


def test_pool_accounting_flags_evicted_but_registered():
    checker = Checker()
    rnic = _FakeRnic()
    qp_a, qp_b = _fake_qp(1, rnic), _fake_qp(2, rnic)
    rnic._qps = {1: qp_a, 2: qp_b}
    checker.pool_rc_insert(None, "peer1", qp_a, None)
    # qp_b's insert evicts qp_a; nobody ever retires it.
    checker.pool_rc_insert(None, "peer2", qp_b, ("peer1", qp_a))
    checker.finalize(now=123)
    assert [v.invariant for v in checker.violations] == ["pool-qp-accounting"]
    assert "evicted" in checker.violations[0].detail


def test_pool_accounting_clean_when_retired_or_node_restarted():
    checker = Checker()
    rnic = _FakeRnic()
    qp_a, qp_b = _fake_qp(1, rnic), _fake_qp(2, rnic)
    rnic._qps = {2: qp_b}  # qp_a already unregistered
    checker.pool_rc_insert(None, "peer1", qp_a, None)
    checker.pool_rc_insert(None, "peer2", qp_b, ("peer1", qp_a))
    checker.rc_retired(qp_a)
    # A third QP whose node restarted (new RNIC object): out of scope.
    qp_c = _fake_qp(3, rnic)
    checker.pool_rc_insert(None, "peer3", qp_c, None)
    qp_c.node.rnic = _FakeRnic()
    checker.finalize(now=123)
    assert checker.ok, checker.violations


def test_pool_accounting_flags_pooled_but_unregistered():
    checker = Checker()
    rnic = _FakeRnic()
    qp = _fake_qp(1, rnic)  # never registered with the fake RNIC
    checker.pool_rc_insert(None, "peer", qp, None)
    checker.finalize(now=5)
    assert [v.invariant for v in checker.violations] == ["pool-qp-accounting"]
    assert "not RNIC-registered" in checker.violations[0].detail


def test_dccache_rejects_meta_no_incarnation_published():
    checker = Checker()
    module = SimpleNamespace(
        sim=SimpleNamespace(now=7), node=SimpleNamespace(gid="nodeX")
    )
    checker.dct_published("peer", 0, (10, 111))
    checker.dct_published("peer", 1, (11, 222))
    checker.dc_cache_insert(module, "peer", (10, 111))  # old incarnation: legal
    checker.dc_cache_insert(module, "peer", (11, 222))
    assert checker.ok
    checker.dc_cache_insert(module, "peer", (99, 999))  # never published
    assert [v.invariant for v in checker.violations] == ["dccache-incarnation"]


def _fake_store(now):
    return SimpleNamespace(
        sim=SimpleNamespace(now=now),
        module=SimpleNamespace(node=SimpleNamespace(gid="nodeY")),
    )


def test_mrstore_lease_branches():
    store = _fake_store(now=1000)
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


def _fake_shard(gid, alive, records):
    return SimpleNamespace(
        node=SimpleNamespace(gid=gid, alive=alive),
        store=SimpleNamespace(get_local=records.get),
    )


def test_meta_convergence_divergence_and_lost_write():
    server = SimpleNamespace()
    good = {b"k1": b"v1"}
    stale = {b"k1": b"v0"}

    checker = Checker()
    checker.meta_write(server, b"k1", b"v1")
    plane = SimpleNamespace(
        owners=lambda key: [_fake_shard("s0", True, good),
                            _fake_shard("s1", True, stale)]
    )
    checker.finalize(plane=plane, now=9)
    assert [v.invariant for v in checker.violations] == ["meta-replica-divergence"]

    checker = Checker()
    checker.meta_write(server, b"k1", b"v1")
    plane = SimpleNamespace(
        owners=lambda key: [_fake_shard("s0", True, stale),
                            _fake_shard("s1", True, {})]
    )
    checker.finalize(plane=plane, now=9)
    assert [v.invariant for v in checker.violations] == ["meta-lost-write"]

    # All owners dead: nothing checkable, no violation.
    checker = Checker()
    checker.meta_write(server, b"k1", b"v1")
    plane = SimpleNamespace(owners=lambda key: [_fake_shard("s0", False, {})])
    checker.finalize(plane=plane, now=9)
    assert checker.ok


def test_wr_dispatched_twice_is_flagged():
    checker = Checker()
    module = SimpleNamespace(
        sim=SimpleNamespace(now=50), node=SimpleNamespace(gid="nodeZ")
    )
    checker.wr_dispatch(module, 41)
    checker.wr_dispatch(module, 42)
    assert checker.ok
    checker.wr_dispatch(module, 41)
    assert [v.invariant for v in checker.violations] == ["wr-exactly-once"]


def test_leftover_wr_tokens_flagged_at_finalize():
    checker = Checker()
    module = SimpleNamespace(
        wrid_tokens={17: object()}, node=SimpleNamespace(gid="nodeZ"),
        live_vqps=lambda: (), indexed_vqps=lambda: (),
    )
    checker.finalize(modules=[module], now=99)
    assert [v.invariant for v in checker.violations] == ["wr-exactly-once"]
    assert "undispatched" in checker.violations[0].detail


def test_destroyed_vqp_still_indexed_flagged_at_finalize():
    live = SimpleNamespace(id=1, destroyed=False, comp_queue=[])
    dead = SimpleNamespace(id=2, destroyed=True, comp_queue=[])
    module = SimpleNamespace(
        wrid_tokens={}, node=SimpleNamespace(gid="nodeZ"),
        live_vqps=lambda: (live,), indexed_vqps=lambda: (live, dead, dead),
    )
    checker = Checker()
    checker.finalize(modules=[module], now=99)
    assert [v.invariant for v in checker.violations] == ["vqp-table-accounting"]
    assert "[2]" in checker.violations[0].detail


def test_a_completion_left_in_a_live_vqp_is_flagged_at_finalize():
    """A dispatched completion no owner reaped went where its owner no
    longer polls; one still in flight (not ready) is the token law's."""
    pending = SimpleNamespace(ready=False)
    reaped = SimpleNamespace(id=1, comp_queue=[pending])
    stranded = SimpleNamespace(id=2, comp_queue=[pending, SimpleNamespace(ready=True)])
    module = SimpleNamespace(
        wrid_tokens={}, node=SimpleNamespace(gid="nodeZ"),
        live_vqps=lambda: (reaped, stranded), indexed_vqps=lambda: (),
    )
    checker = Checker()
    checker.finalize(modules=[module], now=99)
    assert [v.invariant for v in checker.violations] == ["vqp-unreaped-completion"]
    assert "[2]" in checker.violations[0].detail


def test_rnic_busy_overlap_is_flagged():
    from repro.cluster import Cluster

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
    chain (there is no Resource object to key it by any more), and the
    quiescence audit wants the busy-until clock caught up with."""
    from repro.check import hooks
    from repro.cluster import Cluster

    sim = Simulator()
    rnic = Cluster(sim, num_nodes=1).nodes[0].rnic
    checker = Checker()
    with hooks.checking(checker):
        sim.process(rnic.stall(500, engine="inbound"))
        sim.run(until=100)
        assert rnic.inbound_admit(7.5) == (500, 507)
        assert checker.observed["rnic.busy"] == 2
        checker.finalize(now=sim.now)  # mid-flight: clock ahead, op unserved
        assert [v.invariant for v in checker.violations] == ["rnic-busy-conservation"]
        assert "busy until 507, 1 op(s) unserved" in checker.violations[0].detail
        del checker.violations[:]
        sim.run(until=508)
        checker.finalize(now=sim.now)
    assert checker.ok, checker.violations


def test_checker_digest_is_deterministic():
    def build():
        checker = Checker()
        module = SimpleNamespace(
            sim=SimpleNamespace(now=50), node=SimpleNamespace(gid="nodeZ")
        )
        checker.wr_dispatch(module, 1)
        checker.wr_dispatch(module, 1)
        return checker

    assert build().digest() == build().digest()
    assert "FAIL(1)" in build().summary()


# -------------------------------------------------------------- wiring layer


def test_every_registry_hook_fires_in_pool_churn():
    """A silently disconnected call site makes the registry blind; this
    pins every hook kind to nonzero activity under one real scenario."""
    result = run_once("pool_churn")
    assert result.ok, result.violations
    for kind in (
        "dct.publish",      # KrcoreModule.__init__
        "dccache.insert",   # KrcoreModule.cache_dct
        "pool.insert",      # HybridQpPool.insert_rc
        "pool.retire",      # KrcoreModule._retire_rc
        "mrstore.accept",   # MrStore.check
        "meta.write",       # MetaServer.publish_*
        "wr.dispatch",      # poll_inner
        "rnic.busy",        # Rnic engines
    ):
        assert result.observed.get(kind, 0) > 0, (
            f"registry hook {kind} never fired -- call site disconnected?"
        )


def test_one_sided_read_reports_inbound_occupancy():
    """Regression: the READ/WRITE responder block inlined in
    ``QueuePair._flight`` never called ``CHECKER.rnic_busy``, leaving
    ``rnic-busy-conservation`` blind to the bulk of the traffic."""
    from repro.check import hooks
    from repro.cluster import Cluster
    from repro.verbs import WorkRequest
    from tests.conftest import quick_rc_pair, register

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
    with hooks.checking(checker):
        sim.run_process(proc())
    assert checker.observed.get("rnic.busy") == 2
    assert checker.ok


def test_registry_catches_pre_fix_accept_path_leak():
    """Re-introduce the accept-path bug PR 4 fixed (insert_rc dropping
    the eviction result): pool-qp-accounting must fire; the fixed module
    must stay clean on the identical scenario."""

    with accept_leak():
        result = run_once("pool_churn")
    leaks = [v for v in result.violations if v.invariant == "pool-qp-accounting"]
    assert leaks, "registry missed the pre-fix accept-path RC leak"
    assert "still RNIC-registered" in leaks[0].detail

    fixed = run_once("pool_churn")
    assert fixed.ok, fixed.violations


def test_scenarios_clean_under_fifo():
    for name in ("kvs_lin", "meta_failover", "chaos_small"):
        result = run_once(name)
        assert result.ok, (name, result.violations)
        assert sum(result.observed.values()) > 0


def test_uninstalled_checker_costs_nothing_observable():
    """With no checker installed the hook sites are single falsy checks;
    a run must not create or require one (CHECKER stays None)."""
    from repro.check import hooks

    assert hooks.CHECKER is None
    sim = Simulator()
    cluster, meta, modules = krcore_cluster(sim, num_nodes=3, background_rc=False)
    lib = KrcoreLib(cluster.node(1))

    def proc():
        vqp = yield from lib.create_vqp()
        yield from lib.qconnect(vqp, cluster.node(2).gid)

    sim.run_process(proc())
    assert hooks.CHECKER is None
