"""Node rest budget: what a booted, idle node holds on the host, and what
used state holds once it is idle again.

KRCORE's pool exists from module load and is then mostly idle (§4.2: two
DCQPs per CPU plus the DCT target with a deep SRQ), so what idle pool
entries cost the simulator is what a node costs.  A node at rest holds
none of them (DESIGN.md §17 "A node at rest"): a CPU's pool and its DCQPs
are built the first time the CPU is used, under QPNs reserved at load, and
an SRQ slot becomes a ``RecvBuffer`` when a message claims it.  A QP that
is built owns nothing either until its first doorbell ("A QP at rest").
Once used, a queue is a plain list, which an emptied queue leaves with no
block behind it; a connected VQP holds Algorithm 1's state only; a meta
client's scratch buffer is one bucket, not a DRAM page of its own.
The counts are exact and repeat on every run, so they are pinned here, and
the heap a node, a connected VQP, a drained QP + CQ and a meta client hold
have ceilings: a pool built at load, a sender started at construction or a
deque per idle or drained queue fails this file by name instead of waiting
for a ``setup_s`` / ``peak_rss_mb`` run.

``make rest-budget`` prints the tables (``pytest -s -k rest_budget``).
"""

import gc
import tracemalloc
from collections import deque

import repro.krcore.module
import repro.sim
from repro.bench.setups import krcore_cluster
from repro.krcore import KrcoreLib
from repro.krcore.meta import MetaClient
from repro.sim import US
from repro.verbs import CompletionQueue, QpState, QueuePair, RecvBuffer, WorkRequest
from repro.verbs.cq import _EMPTY
from repro.verbs.types import QPS_RTS, QPT_DC

NODES = 4  # 24 cores each: 48 pooled DCQPs + 48 CQs per node, once all are used

#: The generators a booted node runs, one ``Process`` and one dispatched
#: (start) record each: the DCT dispatcher, the kernel-message daemon and
#: the connection manager's.  Before PR 18 every pooled QP added a sender.
REST_PROCESSES = ["_daemon", "_kernel_daemon", "_recv_dispatcher"]

#: Host heap per node after boot + a 10 us run, simulated DRAM pages left
#: out (they are what the meta server's tables wrote, not node weight).
#: Measured 14 KB on 3.11 (19 while a node's short FIFOs -- the connection
#: manager's inbox, the SRQ's posted buffers, the kernel port -- were
#: deques, 89 with the pools built at load, 317 with a sender per pooled
#: QP); the ceiling leaves room for other interpreters' object sizes, not
#: for one built pool (48 QP + CQ pairs are 30 KB) or a stocked SRQ (192
#: buffers, 18 KB).
NODE_KB_CEILING = 40

#: A boot large enough that per-node cost must not grow with the cluster
#: (a private ring per module did): nodes, meta shards.
BIG_BOOT = (2000, 2)

#: A window of WRs posted at once and then completed and polled.
WINDOW = 16

#: Host bytes per connected idle VQP: the object, its id-table slot and its
#: per-target index slot.  Measured 232 on 3.11 (296 with the two-sided
#: fields inline, ~3 KB with four eager deques).
VQP_BYTES_CEILING = 256

#: Host bytes per QP + CQ left by one drained window: the objects, the
#: parked sender and the emptied queues.  Measured 2.5 KB on 3.11 (4.0 KB
#: while the send queue and the CQ's entries were deques: ~760 B a block).
QP_CQ_BYTES_CEILING = 3072

#: Host bytes per meta client after one lookup, DRAM pages included: both
#: ends of its RCQP, the DrTM-KV client and the mutex.  Measured 4.0 KB on
#: 3.11 (11 KB when each scratch buffer was a 4 KiB page of its own).
META_CLIENT_BYTES_CEILING = 6144

#: Meta clients a node builds: one per CPU (and meta shard).
META_CLIENTS = 24


def _boot(monkeypatch, num_nodes=NODES, meta_shards=1):
    """A booted cluster run for 10 us; returns it, the (generator, process
    name) of every ``Process`` constructed since and the kernel
    ``RecvBuffer``s built since, both appended live."""
    started, buffers = [], []
    process_init = repro.sim.Process.__init__

    def counted_init(self, sim, gen, name=None):
        started.append((gen.__name__, name))
        process_init(self, sim, gen, name)

    def counted_buffer(*args, **kwargs):
        buffers.append(RecvBuffer(*args, **kwargs))
        return buffers[-1]

    monkeypatch.setattr(repro.sim.Process, "__init__", counted_init)
    monkeypatch.setattr(repro.krcore.module, "RecvBuffer", counted_buffer)
    sim, cluster, _meta, modules = krcore_cluster(num_nodes=num_nodes, meta_shards=meta_shards)
    sim.run(until=10 * US)
    return sim, cluster, modules, started, buffers


def _built_cpus(modules):
    """gid -> the CPUs whose pool exists, for the nodes that have any."""
    built = {m.node.gid: [pool.cpu_id for pool in m.built_pools()] for m in modules}
    return {gid: cpus for gid, cpus in built.items() if cpus}


def _pool_qps(modules):
    return [qp for module in modules for pool in module.built_pools() for qp in pool.dc]


def _owns_storage(qp):
    """Whether a QP, or its CQ, holds any queue storage of its own."""
    cq = qp.send_cq
    return (
        qp._sq is not None
        or qp._recv_buffers is not _EMPTY
        or cq._entries is not _EMPTY
        or cq._waiters is not _EMPTY
    )


def _traced(build):
    """(traced heap bytes ``build()`` leaves live, what it returned)."""
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        kept = build()
        gc.collect()
        held = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    return held, kept


def _weigh(num_nodes=NODES, meta_shards=1):
    """(traced KB per node, the same without DRAM pages) of a booted cluster."""

    def boot():
        sim, cluster, _meta, _modules = krcore_cluster(
            num_nodes=num_nodes, meta_shards=meta_shards
        )
        sim.run(until=10 * US)
        return cluster

    held, cluster = _traced(boot)
    pages = sum(len(page) for node in cluster.nodes for page in node.memory._pages.values())
    return held / num_nodes / 1024, (held - pages) / num_nodes / 1024


def test_rest_budget_three_processes_and_three_records_per_node(monkeypatch):
    sim, cluster, _modules, started, _buffers = _boot(monkeypatch)
    by_node = {}
    for generator, name in started:
        by_node.setdefault(name.rpartition("@")[2], []).append(generator)
    assert {gid: sorted(gens) for gid, gens in by_node.items()} == {
        node.gid: REST_PROCESSES for node in cluster.nodes
    }
    # Each ran to its first wait and nothing else was ever scheduled.
    assert (sim.events_dispatched, sim.timer_fires) == (len(REST_PROCESSES) * NODES, 0)


def test_rest_budget_no_pool_qp_or_kernel_buffer_exists(monkeypatch):
    _sim, cluster, modules, _started, buffers = _boot(monkeypatch)
    assert _built_cpus(modules) == {}
    assert [node.rnic._qps for node in cluster.nodes] == [{}] * NODES
    assert buffers == []
    # The reserve is ready to post; the stock ahead of it is a range.
    assert [list(module._free_slots) for module in modules] == [list(range(192, 256))] * NODES


def test_rest_budget_no_pool_qp_or_cq_owns_storage(monkeypatch):
    """Built on every CPU, the pool is what it was when module load built
    it -- 48 RTS DCQPs per node on QPNs 1..48 -- and still owns nothing."""
    _sim, _cluster, modules, _started, _buffers = _boot(monkeypatch)
    accounted = [module.connection_cache_bytes() for module in modules]
    for module in modules:
        for cpu in reversed(range(module.node.cores)):
            module.pool(cpu)
    # Fig 15a counts the DCQPs the hardware holds, built on the host or not.
    assert [module.connection_cache_bytes() for module in modules] == accounted
    qps = _pool_qps(modules)
    assert [qp.qpn for qp in qps] == list(range(1, 49)) * NODES
    assert {qp.state for qp in qps} == {QpState.RTS}
    assert [qp.qpn for qp in qps if _owns_storage(qp)] == []


def test_rest_budget_pool_qpns_do_not_depend_on_first_use_order(monkeypatch):
    """QPN = block base + cpu * dc_per_cpu + i, and with it the seed of the
    DCQP's reconnect-tail LCG, whichever CPU is used first; the QPN after
    the block is the next one handed out, as when load built all 48."""
    seen = []
    for order in ([0, 5, 23], [23, 5, 0], [5]):
        _sim, _cluster, modules, _started, _buffers = _boot(monkeypatch)
        module = modules[1]
        for cpu in order:
            module.pool(cpu)
        seen.append({
            cpu: [(qp.qpn, qp._dc_lcg) for qp in module.pool(cpu).dc] for cpu in (0, 5, 23)
        })
        assert [qp.qpn for qp in module.pool(5).dc] == [11, 12]
        assert module.meta_client(0).qp.qpn == 49
    assert seen[0] == seen[1] == seen[2]


def test_rest_budget_a_read_wakes_only_the_qps_it_posts_on(monkeypatch):
    """One connected ``read_sync`` from CPU 0: storage and a sender appear
    on the QPs that saw a doorbell (the VQP's DCQP and the two that carried
    the MR publications), one sender each, and nowhere else."""
    sim, cluster, modules, started, buffers = _boot(monkeypatch)
    client, server = cluster.node(1), cluster.node(2)
    lib, server_lib = KrcoreLib(client), KrcoreLib(server)
    posted_on = {}
    post_send = QueuePair.post_send

    def recorded_post_send(self, wr_list):
        posted_on[self] = None
        post_send(self, wr_list)

    monkeypatch.setattr(QueuePair, "post_send", recorded_post_send)

    def read():
        vqp = yield from lib.create_vqp()
        yield from lib.qconnect(vqp, server.gid)
        raddr = server.memory.alloc(64)
        rmr = yield from server_lib.reg_mr(raddr, 64)
        laddr = client.memory.alloc(64)
        lmr = yield from lib.reg_mr(laddr, 64)
        yield from lib.read_sync(vqp, laddr, lmr.lkey, raddr, rmr.rkey, 8)
        return vqp

    del started[:]
    vqp = sim.run_process(read())
    # Pools: the client's CPU 0, and CPU 0 of the server for its publication
    # (kernel messages leave from CPU 0).  The meta node only receives.
    assert _built_cpus(modules) == {"node1": [0], "node2": [0]}
    # Buffers: each of the two publications claimed one stocked slot of the
    # meta node's SRQ and its dispatcher posted one from the reserve behind.
    assert [buffer.wr_id for buffer in buffers] == [0, 192, 1, 193]
    pool = _pool_qps(modules)
    awake = [qp for qp in pool if _owns_storage(qp)]
    assert awake == [qp for qp in pool if qp in posted_on]
    assert [(qp.node.gid, qp.qpn) for qp in awake] == [("node1", 1), ("node1", 2), ("node2", 1)]
    assert vqp.qp is awake[0]
    senders = sorted(name for generator, name in started if generator == "_sender_loop")
    assert senders == sorted(f"qp{qp.qpn}-sender" for qp in posted_on)


def test_rest_budget_node_weight_stays_under_the_ceiling(monkeypatch):
    _weigh()  # warm: import-time and per-size caches are not node weight
    with_pages, node_kb = _weigh()
    _big_with_pages, big_kb = _weigh(*BIG_BOOT)
    sim, _cluster, modules, started, buffers = _boot(monkeypatch)
    pools = sum(len(module.built_pools()) for module in modules)
    print(f"\nNode rest budget, {NODES} booted 24-core nodes after 10 us")
    print(f"  {'per node':<34}{'measured':>9}{'ceiling':>9}")
    print(f"  {'host heap, KB (no DRAM pages)':<34}{node_kb:>9.1f}{NODE_KB_CEILING:>9}")
    print(f"  {'  same, %d nodes on %d shards' % BIG_BOOT:<34}{big_kb:>9.1f}{NODE_KB_CEILING:>9}")
    print(f"  {'host heap, KB (with DRAM pages)':<34}{with_pages:>9.1f}{'':>9}")
    print(f"  {'Process objects':<34}{len(started) / NODES:>9.0f}{len(REST_PROCESSES):>9}")
    print(f"  {'boot records dispatched':<34}{sim.events_dispatched / NODES:>9.0f}"
          f"{len(REST_PROCESSES):>9}")
    print(f"  {'per-CPU pools built':<34}{pools / NODES:>9.0f}{0:>9}")
    print(f"  {'kernel RecvBuffers built':<34}{len(buffers) / NODES:>9.0f}{0:>9}")
    assert node_kb <= NODE_KB_CEILING
    assert big_kb <= NODE_KB_CEILING


def test_rest_budget_a_big_boot_is_three_processes_per_node(monkeypatch):
    nodes, shards = BIG_BOOT
    sim, _cluster, modules, started, buffers = _boot(monkeypatch, nodes, shards)
    assert len(started) == sim.events_dispatched == len(REST_PROCESSES) * nodes
    assert (_built_cpus(modules), buffers) == ({}, [])


def _vqp_bytes(count=2000):
    """Host bytes per VQP connected over a warm DCCache and left idle."""
    sim, cluster, _meta, modules = krcore_cluster(num_nodes=NODES)
    module, gid = modules[1], cluster.node(2).gid

    def connect(how_many):
        def proc():
            for _ in range(how_many):
                yield from module.create_vqp().connect(gid)

        sim.run_process(proc())

    connect(1)  # the DCCache entry and the CPU's pool are not per-VQP weight
    held, _ = _traced(lambda: connect(count))
    return held / count


def _drained_qp_cq_bytes(count=48):
    """Host bytes per DCQP + CQ built, sent one window of READs, drained
    and polled."""
    sim, _cluster, _meta, modules = krcore_cluster(num_nodes=NODES)
    client, server = modules[1], modules[2]
    laddr = client.node.memory.alloc(64)
    lmr = client.node.memory.register(laddr, 64)
    raddr = server.node.memory.alloc(64)
    rmr = server.node.memory.register(raddr, 64)
    target = server.dct_target

    def build():
        qps = []
        for _ in range(count):
            qp = client.context.create_qp_fast(QPT_DC, CompletionQueue(sim))
            qp.state = QPS_RTS
            wrs = [WorkRequest.read(laddr, 8, lmr.lkey, raddr, rmr.rkey) for _ in range(WINDOW)]
            for wr in wrs:
                wr.dct_gid, wr.dct_number, wr.dct_key = server.node.gid, target.number, target.key
            qp.post_send(wrs)
            qps.append(qp)
        sim.run()
        assert [len(qp.send_cq.poll(WINDOW)) for qp in qps] == [WINDOW] * count
        return qps

    held, _qps = _traced(build)
    return held / count


def _meta_client_weight(count=META_CLIENTS):
    """(host bytes, DRAM pages materialized) per meta client built on one
    node and used for one lookup."""
    sim, cluster, meta, _modules = krcore_cluster(num_nodes=NODES)
    node = cluster.node(1)

    def build():
        clients = [MetaClient(node, meta) for _ in range(count)]

        def lookups():
            for client in clients:
                assert (yield from client.lookup_dct("node2")) is not None

        sim.run_process(lookups())
        return clients

    pages = len(node.memory._pages)
    held, _clients = _traced(build)
    return held / count, (len(node.memory._pages) - pages) / count


def test_rest_budget_a_drained_window_leaves_no_deque():
    """A completed and polled 16-WR window through a VQP connected uncached
    (so the meta client's mutex was taken) leaves every queue it used empty
    and none of them a ``deque``: the QP's send queue, the CQ's entries and
    waiters, the VQP's completion queue, the meta mutex's waiters."""
    sim, cluster, _meta, modules = krcore_cluster(num_nodes=NODES)
    client, server = cluster.node(1), cluster.node(2)
    lib, server_lib = KrcoreLib(client), KrcoreLib(server)

    def window():
        vqp = yield from lib.create_vqp()
        yield from lib.qconnect(vqp, server.gid)
        raddr = server.memory.alloc(64)
        rmr = yield from server_lib.reg_mr(raddr, 64)
        laddr = client.memory.alloc(64)
        lmr = yield from lib.reg_mr(laddr, 64)
        wrs = [WorkRequest.read(laddr, 8, lmr.lkey, raddr, rmr.rkey) for _ in range(WINDOW)]
        yield from lib.post_send(vqp, wrs)
        for _ in range(WINDOW):
            assert (yield from vqp.wait_send_completion()).ok
        return vqp

    vqp = sim.run_process(window())
    cq = vqp.qp.send_cq
    used = {
        "send queue": vqp.qp._sq,
        "CQ entries": cq._entries,
        "CQ waiters": cq._waiters,
        "VQP completion queue": vqp.comp_queue,
        "meta mutex waiters": modules[1].meta_client(0)._mutex._waiting,
    }
    assert [name for name, queue in used.items() if isinstance(queue, deque)] == []
    assert [name for name, queue in used.items() if queue] == []
    assert vqp.two_sided is None  # one-sided traffic only: no two-sided record


def test_rest_budget_used_state_weighs_under_the_ceilings():
    vqp_bytes = _vqp_bytes()
    qp_cq_bytes = _drained_qp_cq_bytes()
    meta_bytes, meta_pages = _meta_client_weight()
    print(f"\nUsed state at rest, host bytes per object ({WINDOW}-WR window)")
    print(f"  {'per object':<34}{'measured':>9}{'ceiling':>9}")
    print(f"  {'connected idle VQP':<34}{vqp_bytes:>9.0f}{VQP_BYTES_CEILING:>9}")
    print(f"  {'drained QP + CQ':<34}{qp_cq_bytes:>9.0f}{QP_CQ_BYTES_CEILING:>9}")
    print(f"  {'meta client, DRAM pages included':<34}{meta_bytes:>9.0f}"
          f"{META_CLIENT_BYTES_CEILING:>9}")
    print(f"  {'  DRAM pages it materialized':<34}{meta_pages:>9.2f}{'':>9}")
    assert vqp_bytes <= VQP_BYTES_CEILING
    assert qp_cq_bytes <= QP_CQ_BYTES_CEILING
    assert meta_bytes <= META_CLIENT_BYTES_CEILING
    # The scratch buffers, one bucket each, share at most two pages.
    assert meta_pages * META_CLIENTS <= 2
