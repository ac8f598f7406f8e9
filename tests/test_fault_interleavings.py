"""Interleavings of metadata retraction, leases, restarts, and lookups.

These are the §4.2 corner cases: an MR deregistered while remote caches
still hold its lease, a qconnect racing a node's crash/restart cycle, a
DCCache hit naming a DCT key that died with the node's previous
incarnation, and meta-server outages degrading lookups.  Every assertion
on a failure inspects the error's ``code`` (WcStatus), never message
text.
"""

import pytest

from repro.cluster import timing
from repro.krcore import KrcoreLib, KrcoreModule
from repro.sim import MS, US, Simulator
from repro.verbs import KrcoreError, MetaUnavailableError, WcStatus
from tests.conftest import krcore_cluster

LEASE = 500 * US


@pytest.fixture
def env():
    sim = Simulator()
    cluster, meta, modules = krcore_cluster(
        sim, num_nodes=4, background_rc=False, mr_lease_ns=LEASE
    )
    return sim, cluster, meta, modules


def _register(sim, node, modules, nbytes=4096):
    module = modules[int(node.gid[4:])]

    def proc():
        addr = node.memory.alloc(nbytes)
        region = yield from module.reg_mr(addr, nbytes)
        yield 50 * US  # let the async publish land at the meta server
        return addr, region

    return sim.run_process(proc())


def test_mr_retracted_mid_lease_stays_readable_until_lease_expiry(env):
    sim, cluster, meta, modules = env
    server, client = cluster.node(2), cluster.node(1)
    raddr, rmr = _register(sim, server, modules)
    laddr, lmr = _register(sim, client, modules)
    lib = KrcoreLib(client)
    lib_s = KrcoreLib(server)

    def proc():
        vqp = yield from lib.create_vqp()
        yield from lib.qconnect(vqp, server.gid)
        # Validate + cache the MR, then the server retracts it.
        yield from lib.read_sync(vqp, laddr, lmr.lkey, raddr, rmr.rkey, 8)
        yield from lib_s.dereg_mr(rmr)
        # Within the lease the cached verdict still holds and the memory
        # is not yet freed: the read must succeed (§4.2's guarantee is
        # that it can never hit *freed* memory, not that it fails fast).
        yield from lib.read_sync(vqp, laddr, lmr.lkey, raddr, rmr.rkey, 8)
        # One full lease later every cached entry has expired and the
        # registration is gone: the next read fails with REM_ACCESS.
        yield 2 * LEASE
        with pytest.raises(KrcoreError) as exc:
            yield from lib.read_sync(vqp, laddr, lmr.lkey, raddr, rmr.rkey, 8)
        assert exc.value.code is WcStatus.REM_ACCESS_ERR

    sim.run_process(proc())


def test_qconnect_racing_crash_then_restart_converges(env):
    sim, cluster, meta, modules = env
    victim = cluster.node(2)
    client = cluster.node(1)
    lib = KrcoreLib(client)

    # The failure detector fires while the client is about to connect:
    # the meta plane retracts the host, and the client's DCCache has no
    # entry to serve instead.
    victim.fail()
    meta.retract_node(victim.gid)
    assert victim.gid not in modules[1].dc_cache

    def connect_fails():
        vqp = yield from lib.create_vqp()
        with pytest.raises(KrcoreError) as exc:
            yield from lib.qconnect(vqp, victim.gid)
        assert exc.value.code is WcStatus.REM_ACCESS_ERR

    sim.run_process(connect_fails())

    # The node reboots and the operator reloads the module (fresh DCT
    # key, incarnation-derived); a retried qconnect now converges.
    victim.restart()
    new_module = KrcoreModule(victim, meta, background_rc=False, mr_lease_ns=LEASE)
    modules[2] = new_module
    raddr, rmr = _register(sim, victim, modules)
    laddr, lmr = _register(sim, client, modules)

    def connect_succeeds():
        vqp = yield from lib.create_vqp()
        yield from lib.qconnect(vqp, victim.gid)
        assert vqp.dct_meta == new_module.own_dct_meta
        yield from lib.read_sync(vqp, laddr, lmr.lkey, raddr, rmr.rkey, 8)

    sim.run_process(connect_succeeds())
    assert new_module.own_dct_meta[1] != 0


def test_dccache_hit_on_restarted_node_revalidates_and_recovers(env):
    sim, cluster, meta, modules = env
    victim = cluster.node(2)
    client = cluster.node(1)
    raddr, rmr = _register(sim, victim, modules)
    laddr, lmr = _register(sim, client, modules)
    lib = KrcoreLib(client)

    def warm_cache():
        vqp = yield from lib.create_vqp()
        yield from lib.qconnect(vqp, victim.gid)
        yield from lib.read_sync(vqp, laddr, lmr.lkey, raddr, rmr.rkey, 8)
        return vqp.dct_meta

    old_meta = sim.run_process(warm_cache())

    # Crash + restart + module reload: same gid, *different* DCT key.
    victim.fail()
    meta.retract_node(victim.gid)
    victim.restart()
    new_module = KrcoreModule(victim, meta, background_rc=False, mr_lease_ns=LEASE)
    modules[2] = new_module
    _register(sim, victim, modules)  # deterministic rebirth: same addr/rkey
    assert new_module.own_dct_meta != old_meta

    def stale_then_recover():
        # The DCCache still holds the dead incarnation's metadata, so the
        # connect is a (cheap) cache hit -- and the first access NAKs.
        vqp = yield from lib.create_vqp()
        yield from lib.qconnect(vqp, victim.gid)
        assert vqp.dct_meta == old_meta
        with pytest.raises(KrcoreError) as exc:
            yield from lib.read_sync(vqp, laddr, lmr.lkey, raddr, rmr.rkey, 8)
        assert exc.value.code is WcStatus.REM_ACCESS_ERR
        # Revalidation drops the stale entry and re-fetches; the shared
        # QP is repaired in the background after the error completion.
        fresh = yield from vqp.revalidate()
        assert fresh == new_module.own_dct_meta
        yield 3 * MS  # background QP repair
        yield from lib.read_sync(vqp, laddr, lmr.lkey, raddr, rmr.rkey, 8)

    sim.run_process(stale_then_recover())


def test_meta_outage_lookup_raises_coded_error_then_recovers(env):
    sim, cluster, meta, modules = env
    target = cluster.node(2)
    meta.set_outage(50 * MS)

    def lookup_fails():
        start = sim.now
        with pytest.raises(MetaUnavailableError) as exc:
            yield from modules[1].lookup_dct_robust(0, target.gid)
        assert exc.value.code is WcStatus.RETRY_EXC_ERR
        # The bounded retry actually backed off before giving up.
        assert sim.now - start >= timing.KRCORE_BACKOFF_BASE_NS

    sim.run_process(lookup_fails())

    def lookup_recovers():
        yield 60 * MS  # outage window passes
        meta_rec = yield from modules[1].lookup_dct_robust(0, target.gid)
        return meta_rec

    assert sim.run_process(lookup_recovers()) == modules[2].own_dct_meta


def test_connect_during_meta_outage_falls_back_to_rc(env):
    sim, cluster, meta, modules = env
    server, client = cluster.node(2), cluster.node(1)
    raddr, rmr = _register(sim, server, modules)
    laddr, lmr = _register(sim, client, modules)
    lib = KrcoreLib(client)

    def warm():
        # Validate the remote MR while the meta service is still up, so
        # the outage-time read can run on the (possibly expired) cached
        # verdict -- a cold validation has nothing to degrade to.
        vqp = yield from lib.create_vqp()
        yield from lib.qconnect(vqp, server.gid)
        yield from lib.read_sync(vqp, laddr, lmr.lkey, raddr, rmr.rkey, 8)
        # Forget only the DCT metadata (keep the warmed MR verdict): the
        # outage-time connect must go fetch -- and fail over to RC.
        modules[1].dc_cache.pop(server.gid, None)

    sim.run_process(warm())
    meta.set_outage(500 * MS)

    def proc():
        vqp = yield from lib.create_vqp()
        yield from lib.qconnect(vqp, server.gid)
        # Graceful degradation: no metadata available, so the old control
        # path (a full RC handshake) backs the VQP instead.
        assert vqp.is_rc_backed
        server.memory.write(raddr, b"rc-path!")
        yield from lib.read_sync(vqp, laddr, lmr.lkey, raddr, rmr.rkey, 8)
        return client.memory.read(laddr, 8)

    assert sim.run_process(proc()) == b"rc-path!"
    assert modules[1].mr_store.stats_stale_accepts >= 0  # degraded-mode path


def test_failed_post_rolls_back_software_cq_and_tokens(env):
    sim, cluster, meta, modules = env
    server, client = cluster.node(2), cluster.node(1)
    raddr, rmr = _register(sim, server, modules)
    laddr, lmr = _register(sim, client, modules)
    lib = KrcoreLib(client)

    def proc():
        vqp = yield from lib.create_vqp()
        yield from lib.qconnect(vqp, server.gid)
        yield from lib.read_sync(vqp, laddr, lmr.lkey, raddr, rmr.rkey, 8)
        server.fail()
        baseline_tokens = len(modules[1].wrid_tokens)
        # The in-flight op errors and wrecks the shared QP...
        with pytest.raises(KrcoreError) as exc:
            yield from lib.read_sync(vqp, laddr, lmr.lkey, raddr, rmr.rkey, 8)
        assert exc.value.code is WcStatus.RETRY_EXC_ERR
        # ...so the next post bounces off the broken QP.  The rejected
        # chunk must leave no ghost completion entry or wr_id token, or
        # every later completion on this VQP would wedge behind it.
        with pytest.raises(KrcoreError):
            yield from lib.read_sync(vqp, laddr, lmr.lkey, raddr, rmr.rkey, 8)
        assert not vqp.comp_queue
        assert len(modules[1].wrid_tokens) == baseline_tokens

    sim.run_process(proc())
