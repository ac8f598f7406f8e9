"""MR-churn regression nets: the MRStore/ValidMr bugfix sweep.

Two pre-fix-failing regressions, single-key invalidation, and hypothesis
property tests of the lease/epoch machinery under churn:

* ``ValidMr.forget`` pops by *identity*: before the fix it popped by
  key, so retracting a region whose recycled rkey/lkey already named a
  fresh registration dropped the live MR from the registry.
* ``MrStore.check_cached``/``cached`` honor the stale-accept marker
  while the meta plane is down -- *without* re-stamping the entry's
  epoch.  Before the fix the fast path returned a miss for every
  stale-accepted entry, forcing a pointless (and failing) slow-path
  lookup per access for the whole outage.
* ``MrStore.invalidate(gid, rkey)`` drops one entry and its
  stale-accept marker.  Nothing drops a crashed host's entries as a
  whole: the meta plane retracts the host, and the first access after
  its restart fails REM_ACCESS and revalidates (the paper's §4.2; the
  one recovery path, DESIGN.md "Chaos runs").
"""

from types import SimpleNamespace

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import obs
from repro.cluster import Cluster
from repro.krcore.mrstore import ValidMr
from repro.sim import US, Simulator
from tests.conftest import krcore_cluster

LEASE_NS = 100 * US


def _store_pair(mr_lease_ns=LEASE_NS):
    """(sim, meta, collector module, worker module) with a short lease."""
    sim = Simulator()
    cluster, meta, modules = krcore_cluster(
        sim, num_nodes=3, mr_lease_ns=mr_lease_ns, background_rc=False
    )
    return sim, meta, modules[1], modules[2]


def _publish_region(sim, worker, nbytes=64):
    addr = worker.node.memory.alloc(nbytes)
    region = sim.run_process(worker.reg_mr(addr, nbytes))
    return addr, region


def _advance(sim, ns):
    def wait():
        yield ns

    sim.run_process(wait())


# ----------------------------------------------------- bugfix 1: forget()


def test_validmr_forget_is_identity_checked():
    """Pre-fix failure: retracting a stale region object whose rkey was
    recycled onto a live registration dropped the live one."""
    sim = Simulator()
    cluster = Cluster(sim, num_nodes=1)
    node = cluster.node(0)
    registry = ValidMr(node)
    addr = node.memory.alloc(4096)
    live = node.memory.register(addr, 4096)
    registry.record(live)
    # The churn race: a long-retracted region's recycled keys now name
    # the live registration.  (Physical rkeys are monotonic in the sim,
    # so the collision is hand-built -- real NICs recycle handles.)
    stale = SimpleNamespace(rkey=live.rkey, lkey=live.lkey)
    registry.forget(stale)
    assert registry.lookup_region_by_lkey(live.lkey) is live, (
        "identity check lost: forget(stale) evicted the live region"
    )
    assert registry.check_local(live.lkey, addr, 4096)
    assert registry.stats_forget_mismatches == 1
    # Forgetting the real region still works.
    registry.forget(live)
    assert registry.lookup_region_by_lkey(live.lkey) is None


# --------------------------------------- bugfix 2: stale-accept fast path


def test_check_cached_honors_stale_accept_during_outage():
    """Pre-fix failure: every access to a stale-accepted entry missed the
    fast path and burned a doomed slow-path lookup for the whole outage."""
    sim, meta, collector, worker = _store_pair()
    store = collector.mr_store
    addr, region = _publish_region(sim, worker)
    gid = worker.node.gid

    assert sim.run_process(store.check(gid, region.rkey, addr, 64))
    original_epoch = store._cache[(gid, region.rkey)][0]

    # Epoch rolls over, then the whole meta plane goes dark.
    _advance(sim, store.lease_ns + 1)
    meta.set_outage(50 * store.lease_ns)
    assert store.check_cached(gid, region.rkey, addr, 64) is None  # expired, no marker yet

    # Slow path: lookup exhausts its retries, stale-accepts the entry.
    assert sim.run_process(store.check(gid, region.rkey, addr, 64))
    assert store.stats_stale_accepts == 1
    assert store._cache[(gid, region.rkey)][0] == original_epoch, (
        "stale accept re-stamped the epoch: the entry would read as fully "
        "valid after recovery, suppressing the real revalidation"
    )

    # Fast path: while the owners stay dark, check_cached serves the
    # stale verdict without another slow-path lookup.
    with obs.observe() as (_tracer, metrics):
        assert store.check_cached(gid, region.rkey, addr, 64) is True
    assert store.stats_stale_hits == 1
    assert metrics.value("krcore.mrstore_hits") == 1
    assert store.check_cached(gid, region.rkey, addr + 64, 64) is False  # bounds
    assert store.check_cached(gid, region.rkey, addr, 64) is True


def test_check_counts_a_stale_hit_as_stale():
    """Pre-fix failure: check() found hits through its own cache probe,
    which counted every hit as fresh, so a stale-accepted entry served
    through check() during an outage never reached stats_stale_hits."""
    sim, meta, collector, worker = _store_pair()
    store = collector.mr_store
    addr, region = _publish_region(sim, worker)
    gid = worker.node.gid
    assert sim.run_process(store.check(gid, region.rkey, addr, 64))

    _advance(sim, store.lease_ns + 1)
    meta.set_outage(50 * store.lease_ns)
    assert sim.run_process(store.check(gid, region.rkey, addr, 64))
    assert store.stats_stale_accepts == 1

    with obs.observe() as (_tracer, metrics):
        assert sim.run_process(store.check(gid, region.rkey, addr, 64))
    assert store.stats_stale_hits == 1
    assert metrics.value("krcore.mrstore_hits") == 1
    assert store.stats_stale_accepts == 1


def test_stale_accept_does_not_outlive_meta_recovery():
    sim, meta, collector, worker = _store_pair()
    store = collector.mr_store
    addr, region = _publish_region(sim, worker)
    gid = worker.node.gid
    assert sim.run_process(store.check(gid, region.rkey, addr, 64))

    _advance(sim, store.lease_ns + 1)
    # Long enough that the lookup's retry/backoff budget (~0.8ms) dies
    # inside the window instead of straddling its end.
    outage_ns = 20 * store.lease_ns
    meta.set_outage(outage_ns)
    assert sim.run_process(store.check(gid, region.rkey, addr, 64))
    assert (gid, region.rkey) in store._stale_accepted

    # The moment any owner answers again, the marker stops being honored:
    # the next fast-path probe falls through to a real lookup.
    _advance(sim, outage_ns + 1)
    assert store.check_cached(gid, region.rkey, addr, 64) is None
    assert (gid, region.rkey) not in store._stale_accepted
    assert store.stats_stale_hits == 0
    # ... and the slow path revalidates against the live plane, stamping
    # the current epoch.
    assert sim.run_process(store.check(gid, region.rkey, addr, 64))
    assert store._cache[(gid, region.rkey)][0] == store._epoch()


# ------------------------------------------------- single-key invalidate


def test_invalidate_single_rkey_prunes_index_and_marker():
    sim, meta, collector, worker = _store_pair()
    store = collector.mr_store
    gid = worker.node.gid
    addr, region = _publish_region(sim, worker)
    assert sim.run_process(store.check(gid, region.rkey, addr, 64))

    # Pin a stale marker, then invalidate: the marker must die with the
    # entry or a later outage would serve a verdict for evicted state.
    store._stale_accepted.add((gid, region.rkey))
    store.invalidate(gid, region.rkey)
    assert store.check_cached(gid, region.rkey, addr, 64) is None
    assert (gid, region.rkey) not in store._stale_accepted
    assert store.stats_invalidated == 1


# -------------------------------------------- lease/epoch churn properties


@settings(max_examples=12, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    lease_gaps=st.lists(st.integers(min_value=0, max_value=3), min_size=1, max_size=4),
    recycle_larger=st.booleans(),
)
def test_recycled_rkey_never_validates_against_dead_record(lease_gaps, recycle_larger):
    """register -> retract -> recycle the rkey onto a *different* region:
    no validation more than one lease after the retraction may use the
    dead record's bounds."""
    sim, meta, collector, worker = _store_pair()
    store = collector.mr_store
    gid = worker.node.gid
    addr, region = _publish_region(sim, worker)
    assert sim.run_process(store.check(gid, region.rkey, addr, 64))

    retract_t = sim.now
    sim.run_process(worker.dereg_mr(region))
    # The rkey is recycled onto a fresh region elsewhere in memory (real
    # NICs recycle handles; the sim's are monotonic, so publish by hand).
    new_len = 4096 if recycle_larger else 32
    new_addr = worker.node.memory.alloc(new_len)
    collector.meta_plane.publish_mr(gid, region.rkey, new_addr, new_len)

    for gap in lease_gaps:
        _advance(sim, gap * store.lease_ns + 1)
        verdict_old = store.check_cached(gid, region.rkey, addr, 64)
        if verdict_old is None:
            verdict_old = sim.run_process(
                store.check(gid, region.rkey, addr, 64)
            )
        if verdict_old and addr != new_addr:
            # A verdict for the *dead* bounds is only legal inside the
            # one-lease window dereg_mr's deferred free covers.
            assert sim.now <= retract_t + store.lease_ns, (
                f"dead record served at t={sim.now}, retracted at {retract_t}"
            )
        # The recycled record's own bounds always validate.
        verdict_new = store.check_cached(gid, region.rkey, new_addr, new_len)
        if verdict_new is None:
            verdict_new = sim.run_process(
                store.check(gid, region.rkey, new_addr, new_len)
            )


@settings(max_examples=12, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    outage_leases=st.integers(min_value=10, max_value=30),
    touches=st.integers(min_value=0, max_value=3),
    recovery_gap_leases=st.integers(min_value=1, max_value=3),
)
def test_stale_marker_lifecycle_under_random_outages(
    outage_leases, touches, recovery_gap_leases
):
    """However long the outage and however often the stale verdict is
    re-served, the marker never survives meta recovery by more than one
    touched lease: the first post-recovery probe drops it."""
    sim, meta, collector, worker = _store_pair()
    store = collector.mr_store
    gid = worker.node.gid
    addr, region = _publish_region(sim, worker)
    assert sim.run_process(store.check(gid, region.rkey, addr, 64))

    _advance(sim, store.lease_ns + 1)
    meta.set_outage(outage_leases * store.lease_ns)
    assert sim.run_process(store.check(gid, region.rkey, addr, 64))
    assert (gid, region.rkey) in store._stale_accepted

    for _ in range(touches):
        # Stale verdicts keep serving while the plane stays dark...
        if not all(shard.available for shard in collector.meta_plane.shards):
            assert store.check_cached(gid, region.rkey, addr, 64) is True
        _advance(sim, store.lease_ns // 4)

    _advance(sim, (outage_leases + recovery_gap_leases) * store.lease_ns)
    # ... but the first probe after recovery refuses the marker.
    assert store.check_cached(gid, region.rkey, addr, 64) is None
    assert (gid, region.rkey) not in store._stale_accepted
    assert sim.run_process(store.check(gid, region.rkey, addr, 64))
    assert store._cache[(gid, region.rkey)][0] == store._epoch()


# ----------------------------------------------- churn accounting plumbing


def test_module_lease_churn_accounting():
    sim, meta, collector, worker = _store_pair()
    addr, region = _publish_region(sim, worker)
    assert worker.stats_mrs_registered == 1
    assert worker.stats_mrs_retracted == 0
    sim.run_process(worker.dereg_mr(region))
    assert worker.stats_mrs_retracted == 1
