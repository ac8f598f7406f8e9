"""VQP lifetime: the kernel keeps a VQP only while something can name it.

A VQP lives like a file descriptor (DESIGN.md §16 "VQP lifetime"): its
user's handle, an in-flight wr_id token, a port binding or reply slot, or
its own id once published on the wire keep it; when none does, reference
counting frees it and it leaves the module's weak id table.  A published
VQP -- one that posted a SEND whose header carries ``src_vqp``, or sent a
QP-transfer notice -- is pinned until ``destroy_vqp``, so a reply addressed
to it still lands; one that only posted a receive is not.  The transfer paths derive a target's VQPs from the
live table, in connect order.

Only reference counting may free a VQP: the last tests run whole
scenarios with the cyclic collector off and at threshold 1 and require
equal digests, so no simulated result depends on when it runs.
"""

import gc
import hashlib
import weakref

import pytest

from repro.apps.microview import Collector, KrcoreBackend, PodDirectory
from repro.bench.echo import run_echo
from repro.faults.harness import ChaosHarness
from repro.krcore import KrcoreLib
from repro.krcore.vqp import Vqp
from repro.sim import MS, US, Simulator
from repro.verbs import RecvBuffer, WorkRequest
from tests.conftest import krcore_cluster


@pytest.fixture
def gc_state():
    """Restore the collector's switch and thresholds after the test."""
    enabled, threshold = gc.isenabled(), gc.get_threshold()
    yield
    gc.set_threshold(*threshold)
    if enabled:
        gc.enable()
    else:
        gc.disable()


def _regions(sim, *libs):
    """(addr, MR) of a 4 KiB registered buffer per library's node."""

    def proc():
        out = []
        for lib in libs:
            addr = lib.node.memory.alloc(4096)
            out.append((addr, (yield from lib.reg_mr(addr, 4096))))
        return out

    return sim.run_process(proc())


def test_a_dropped_one_sided_vqp_is_freed_by_reference_counting(gc_state):
    gc.collect()
    gc.disable()
    sim = Simulator()
    cluster, _meta, modules = krcore_cluster(sim, num_nodes=3)
    module = modules[1]
    lib, rlib = KrcoreLib(cluster.node(1)), KrcoreLib(cluster.node(2))
    (laddr, lmr), (raddr, rmr) = _regions(sim, lib, rlib)

    def proc():
        vqp = yield from lib.create_vqp()
        yield from lib.qconnect(vqp, cluster.node(2).gid)
        entry = yield from lib.read_sync(vqp, laddr, lmr.lkey, raddr, rmr.rkey, 8)
        assert entry.ok and len(module.vqps_by_id) == 1
        return weakref.ref(vqp), vqp.id

    ref, vqp_id = sim.run_process(proc())
    assert ref() is None
    assert vqp_id not in module.vqps_by_id and not list(module.indexed_vqps())
    assert not module.published_vqps and not module.wrid_tokens


def _two_sided_pair(background_rc=False):
    """A client node and a server node with a VQP bound to port 13 that
    has a receive posted; (sim, module of the client, client lib, server
    lib, client region, server region, the bound VQP)."""
    sim = Simulator()
    cluster, _meta, modules = krcore_cluster(sim, num_nodes=3, background_rc=background_rc)
    lib_c, lib_s = KrcoreLib(cluster.node(1)), KrcoreLib(cluster.node(2))
    (caddr, cmr), (saddr, smr) = _regions(sim, lib_c, lib_s)

    def bind():
        bound = yield from lib_s.create_vqp()
        yield from lib_s.qbind(bound, 13)
        yield from lib_s.post_recv(bound, RecvBuffer(saddr, 64, smr.lkey))
        return bound

    bound = sim.run_process(bind())
    return sim, modules[1], lib_c, lib_s, (caddr, cmr), (saddr, smr), bound


def test_a_vqp_that_sent_outlives_its_user_until_destroy(gc_state):
    """The user drops a VQP that sent: the SEND header carried its id, so
    a reply addressed to it still lands.  ``destroy_vqp`` is what frees it."""
    gc.collect()
    gc.disable()
    sim, module, lib_c, lib_s, (caddr, cmr), (saddr, smr), bound = _two_sided_pair()

    def open_client():
        vqp = yield from lib_c.create_vqp()
        yield from lib_c.qconnect(vqp, lib_s.node.gid, 13)
        yield from lib_c.post_send_and_wait(vqp, WorkRequest.send(caddr, 8, cmr.lkey))
        return weakref.ref(vqp), vqp.id

    def serve():
        (reply, _completion), = yield from lib_s.qpop_msgs_wait(bound)
        yield from lib_s.post_send(reply, WorkRequest.send(saddr, 8, smr.lkey, signaled=False))
        yield 50 * US

    ref, vqp_id = sim.run_process(open_client())
    assert ref() is not None and module.published_vqps == {vqp_id: ref()}
    vqp = module.vqp(vqp_id)
    sim.run_process(serve())
    vqp.post_recv(RecvBuffer(caddr, 64, cmr.lkey))
    completion = sim.run_process(vqp.poll_recv())
    assert completion is not None and completion.byte_len == 8
    del completion
    module.destroy_vqp(vqp)
    del vqp
    assert ref() is None and not list(module.indexed_vqps())
    assert bound.two_sided.bound_port == 13


def test_a_receive_only_vqp_is_freed_once_dropped(gc_state):
    """A VQP that only posted a receive has a two-sided record, but no
    message ever carried its id, so no peer can name it: its user's last
    reference frees it, without ``destroy_vqp``."""
    gc.collect()
    gc.disable()
    sim, module, lib_c, lib_s, (caddr, cmr), _server, bound = _two_sided_pair()

    def open_client():
        vqp = yield from lib_c.create_vqp()
        yield from lib_c.qconnect(vqp, lib_s.node.gid, 13)
        yield from lib_c.post_recv(vqp, RecvBuffer(caddr, 64, cmr.lkey))
        assert vqp.two_sided is not None and module.vqp(vqp.id) is vqp
        return weakref.ref(vqp), vqp.id

    ref, vqp_id = sim.run_process(open_client())
    assert ref() is None and module.vqp(vqp_id) is None
    assert not module.published_vqps and not list(module.indexed_vqps())
    assert bound.two_sided.bound_port == 13


def test_rc_promotion_transfers_only_live_vqps_in_connect_order(gc_state, monkeypatch):
    gc.collect()
    gc.disable()
    switched = []
    original = Vqp.transfer_to

    def recording(self, new_qp, *args, **kwargs):
        yield from original(self, new_qp, *args, **kwargs)
        switched.append(self.id)

    monkeypatch.setattr(Vqp, "transfer_to", recording)
    sim = Simulator()
    cluster, _meta, modules = krcore_cluster(sim, num_nodes=3, rc_traffic_threshold=8)
    module, gid = modules[1], cluster.node(2).gid
    lib, rlib = KrcoreLib(cluster.node(1)), KrcoreLib(cluster.node(2))
    (laddr, lmr), (raddr, rmr) = _regions(sim, lib, rlib)

    def proc():
        vqps = [module.create_vqp() for _ in range(6)]
        for index in (4, 1, 5, 0, 3, 2):  # connect order differs from id order
            yield from vqps[index].connect(gid)
        del vqps[5], vqps[1]  # the users of VQPs 2 and 6 drop them
        assert [vqp.id for vqp in module.connected_vqps(gid)] == [5, 1, 4, 3]
        for _ in range(10):  # cross the promotion threshold
            yield from lib.read_sync(vqps[0], laddr, lmr.lkey, raddr, rmr.rkey, 8)
        yield 8 * MS
        return vqps

    vqps = sim.run_process(proc())
    assert switched == [5, 1, 4, 3] and module.stats_transfers == 4
    assert all(vqp.is_rc_backed for vqp in vqps)


# ---------------------------------------------------------------------------
# Simulated results do not depend on when the cyclic collector runs
# ---------------------------------------------------------------------------


def _digest(*facts):
    return hashlib.sha256(repr(facts).encode()).hexdigest()


def _microview_churn():
    """A MicroView harvest under pod churn with RC promotion on: VQPs are
    created and closed as pods come and go while the collector's traffic
    promotes and transfers them."""
    sim = Simulator()
    cluster, _meta, modules = krcore_cluster(sim, num_nodes=4, background_rc=True)
    backend = KrcoreBackend(cluster.node(1))
    directory = PodDirectory([(cluster.node(2), modules[2]), (cluster.node(3), modules[3])])
    collector = Collector(backend.node, backend, directory)

    def drive():
        yield from directory.deploy(4)
        yield from collector.setup()
        sim.process(directory.churn_driver(20 * US, 2 * MS, seed=5), name="churn")
        yield from collector.run_cycles(20, "serial", gap_ns=20 * US)

    sim.run_process(drive())
    stats = collector.stats
    transfers = sum(module.stats_transfers for module in modules)
    assert stats.cycles == 20 and directory.stats_churns > 0 and transfers > 0
    return _digest(
        sim.now, sim.events_dispatched, stats.cycle_ns, stats.bytes_ok,
        stats.failed_reads, transfers,
    )


def _krcore_echo():
    """Fig 11's KRCORE async echo, smaller: each client's VQP is reachable
    only through the process waiting on its own reply, and the replies
    land in kernel receive slots."""
    result = run_echo(
        "krcore", "async", num_clients=48, window=8, measure_ns=60 * US,
        kernel_buf_bytes=512,
    )
    return _digest(sorted(result.client_windows.items()), result.throughput_mps)


def _chaos_ycsb():
    """One seeded YCSB run under binary faults (crashes, drops, stalls)."""
    return ChaosHarness(3).run().digest()


@pytest.mark.parametrize("scenario", [_microview_churn, _krcore_echo, _chaos_ycsb],
                         ids=["microview-churn", "krcore-echo", "chaos-ycsb"])
def test_results_do_not_depend_on_when_the_cyclic_gc_runs(gc_state, scenario):
    gc.collect()
    gc.disable()
    quiet = scenario()
    gc.enable()
    gc.set_threshold(1, 1, 1)
    eager = scenario()
    assert quiet == eager
