"""Node rest budget: what a booted, idle node holds on the host, and what
used state holds once it is idle again.

KRCORE's pool exists from module load and is then mostly idle (§4.2: two
DCQPs per CPU plus the DCT target with a deep SRQ), so what idle pool
entries cost the simulator is what a node costs.  A node at rest holds
none of them (DESIGN.md §17 "A node at rest"): a CPU's pool and its DCQPs
are built the first time the CPU is used, under QPNs reserved at load, and
an SRQ slot becomes a ``RecvBuffer`` when a message claims it.  A QP that
is built owns nothing either until its first doorbell ("A QP at rest"),
and its sender, like the kernel's receive dispatchers and daemon, is a
sleeper record (DESIGN.md §11), not a ``Process``: an idle one holds no
frame, no ``Event`` and none of the work it last did.
Once used, a queue is a plain list, which an emptied queue leaves with no
block behind it; a connected VQP holds Algorithm 1's state only, and one
its user dropped is freed; a meta client's scratch buffer is one bucket,
not a DRAM page of its own.
The counts are exact and repeat on every run, so they are pinned here, and
the heap a node, a held and a dropped connected VQP, a drained QP + CQ and
a meta client hold have ceilings: a pool built at load, a drain loop back
as a ``Process``, a flight or WR pinned by an idle sender, a deque per
idle or drained queue or a module table that keeps dropped VQPs fails
this file by name instead of waiting for a ``setup_s`` / ``peak_rss_mb``
run.

``make rest-budget`` prints the tables (``pytest -s -k rest_budget``).
"""

import gc
import tracemalloc
from collections import deque

import pytest

import repro.krcore.module
import repro.sim
from repro.bench.setups import krcore_cluster
from repro.krcore import KrcoreLib
from repro.krcore.meta import MetaClient
from repro.sim import US
from repro.verbs import CompletionQueue, QpState, QueuePair, RecvBuffer, WorkRequest
from repro.verbs.cq import _EMPTY
from repro.verbs.qp import _Flight
from repro.verbs.types import QPS_RTS, QPT_DC

NODES = 4  # 24 cores each: 48 pooled DCQPs + 48 CQs per node, once all are used

#: The generators a booted node runs: the connection manager's, which runs
#: RNIC commands between its waits.  The DCT dispatcher and the kernel
#: daemon are sleepers; a pooled QP has no sender before its first doorbell.
REST_PROCESSES = ["_daemon"]

#: Start records a booted node dispatches: the connection manager's, the
#: DCT dispatcher's and the kernel daemon's (the last two are sleepers).
BOOT_RECORDS = 3

#: Host heap per node after boot + a 10 us run, simulated DRAM pages left
#: out (they are what the meta server's tables wrote, not node weight).
#: Measured 13 KB on 3.11 (15 with its two drain loops as processes, 19
#: while a node's short FIFOs -- the connection manager's inbox, the SRQ's
#: posted buffers, the kernel port -- were deques, 89 with the pools built
#: at load, 317 with a sender per pooled QP); the ceiling leaves room for
#: other interpreters' object sizes, not for one built pool (48 QP + CQ
#: pairs are 30 KB) or a stocked SRQ (192 buffers, 18 KB).
NODE_KB_CEILING = 40

#: The same with the simulated DRAM the boot wrote, both page tiers: the
#: meta server's tables on node 0 hold only the buckets and records
#: published, each sparse page its written prefix.  Measured 19-21 KB per
#: node at 4 nodes on 3.11, 6.1 of it DRAM (7.0 while every written page
#: was a full 4 KiB), and 12.6 at 2 000; the ceiling is the one above plus
#: 8 KB of DRAM per node, below what the meta table zero-filled at boot
#: (64 pages, 64 KB per node at 4 nodes) would add.
NODE_WITH_DRAM_KB_CEILING = 48

#: A boot large enough that per-node cost must not grow with the cluster
#: (a private ring per module did): nodes, meta shards.
BIG_BOOT = (2000, 2)

#: A window of WRs posted at once and then completed and polled.
WINDOW = 16

#: Host bytes per connected idle VQP its user still holds: the object, its
#: weak id-table entry and its id.  Measured 295-320 on 3.11 as the table
#: grows, against 230-257 while the table held every VQP strongly and a
#: per-target index held it again: the weakref slot and the table's
#: ``_VqpRef`` (or the ``KeyedRef`` of a ``WeakValueDictionary``, the same
#: size) cost ~90 B per held VQP, and buy the next row (296 with the
#: two-sided fields inline, ~3 KB with four eager deques).
HELD_VQP_BYTES_CEILING = 384

#: Host bytes per VQP connected and then dropped by its user: nothing, as
#: reference counting frees it and its id-table entry at once.  Measured
#: 0.1-0.2 on 3.11 (230, as much as a held one, while the tables kept every
#: VQP ever created).
DROPPED_VQP_BYTES_CEILING = 8

#: Host bytes per QP + CQ left by one drained window: the objects and the
#: emptied queues.  Measured 1.2 KB on 3.11 (2.5 KB while the idle sender
#: was a parked generator pinning its last WR and flight, 4.0 KB while the
#: send queue and the CQ's entries were deques: ~760 B a block).
QP_CQ_BYTES_CEILING = 1536

#: Host bytes per meta client after one lookup, DRAM pages included: both
#: ends of its RCQP, the DrTM-KV client and the mutex.  Measured 2.4 KB on
#: 3.11 (2.6 while the DRAM its lookup wrote was full 4 KiB pages, 4.0 KB
#: with a parked sender generator per end, 11 KB when each scratch buffer
#: was a 4 KiB page of its own).
META_CLIENT_BYTES_CEILING = 4096

#: Simulated DRAM bytes per meta client held on the host after one lookup,
#: both page tiers: its one-bucket scratch buffer, as a prefix of a page the
#: clients share.  Two shared full pages would be 341 B per client.
META_CLIENT_DRAM_BYTES_CEILING = 128

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
    monkeypatch.setattr(repro.krcore.messaging, "RecvBuffer", counted_buffer)
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


def _dram_bytes(memory):
    """Simulated DRAM held on the host: full and sparse pages together."""
    return sum(map(len, memory._pages.values())) + sum(map(len, memory._sparse.values()))


def _weigh(num_nodes=NODES, meta_shards=1):
    """(traced KB per node, the same without DRAM pages) of a booted cluster."""

    def boot():
        sim, cluster, _meta, _modules = krcore_cluster(
            num_nodes=num_nodes, meta_shards=meta_shards
        )
        sim.run(until=10 * US)
        return cluster

    held, cluster = _traced(boot)
    pages = sum(_dram_bytes(node.memory) for node in cluster.nodes)
    return held / num_nodes / 1024, (held - pages) / num_nodes / 1024


def test_rest_budget_one_process_and_three_records_per_node(monkeypatch):
    sim, cluster, _modules, started, _buffers = _boot(monkeypatch)
    by_node = {}
    for generator, name in started:
        by_node.setdefault(name.rpartition("@")[2], []).append(generator)
    assert {gid: sorted(gens) for gid, gens in by_node.items()} == {
        node.gid: REST_PROCESSES for node in cluster.nodes
    }
    # Each ran to its first wait and nothing else was ever scheduled.
    assert (sim.events_dispatched, sim.timer_fires) == (BOOT_RECORDS * NODES, 0)


def test_rest_budget_no_pool_qp_or_kernel_buffer_exists(monkeypatch):
    _sim, cluster, modules, _started, buffers = _boot(monkeypatch)
    assert _built_cpus(modules) == {}
    assert [node.rnic._qps for node in cluster.nodes] == [{}] * NODES
    assert buffers == []
    # The reserve is ready to post; the stock ahead of it is a range.
    assert [list(module.messaging.free_slots) for module in modules] == [list(range(192, 256))] * NODES


def test_rest_budget_no_pool_qp_or_cq_owns_storage(monkeypatch):
    """Built on every CPU, the pool is what it was when module load built
    it -- 48 RTS DCQPs per node on QPNs 1..48 -- and still owns nothing."""
    _sim, _cluster, modules, _started, _buffers = _boot(monkeypatch)
    for module in modules:
        for cpu in reversed(range(module.node.cores)):
            module.pool(cpu)
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
    """One connected ``read_sync`` from CPU 0: storage appears on the QPs
    that saw a doorbell (the VQP's DCQP and the two that carried the MR
    publications) and nowhere else: of every QP the nodes have, exactly
    those own a send queue."""
    sim, cluster, modules, _started, buffers = _boot(monkeypatch)
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
    every_qp = [qp for node in cluster.nodes for qp in node.rnic.all_qps()]
    assert set(posted_on) <= set(every_qp)
    assert [qp for qp in every_qp if qp._sq is not None] == [
        qp for qp in every_qp if qp in posted_on
    ]


@pytest.mark.unchecked("weighs the host heap, which a checker's tables would join")
def test_rest_budget_node_weight_stays_under_the_ceiling(monkeypatch):
    _weigh()  # warm: import-time and per-size caches are not node weight
    with_pages, node_kb = _weigh()
    big_with_pages, big_kb = _weigh(*BIG_BOOT)
    sim, _cluster, modules, started, buffers = _boot(monkeypatch)
    pools = sum(len(module.built_pools()) for module in modules)
    print(f"\nNode rest budget, {NODES} booted 24-core nodes after 10 us")
    print(f"  {'per node':<34}{'measured':>9}{'ceiling':>9}")
    print(f"  {'host heap, KB (no DRAM pages)':<34}{node_kb:>9.1f}{NODE_KB_CEILING:>9}")
    print(f"  {'  same, %d nodes on %d shards' % BIG_BOOT:<34}{big_kb:>9.1f}{NODE_KB_CEILING:>9}")
    print(f"  {'host heap, KB (with DRAM pages)':<34}{with_pages:>9.1f}"
          f"{NODE_WITH_DRAM_KB_CEILING:>9}")
    print(f"  {'  same, %d nodes on %d shards' % BIG_BOOT:<34}{big_with_pages:>9.1f}"
          f"{NODE_WITH_DRAM_KB_CEILING:>9}")
    print(f"  {'Process objects':<34}{len(started) / NODES:>9.0f}{len(REST_PROCESSES):>9}")
    print(f"  {'boot records dispatched':<34}{sim.events_dispatched / NODES:>9.0f}"
          f"{BOOT_RECORDS:>9}")
    print(f"  {'per-CPU pools built':<34}{pools / NODES:>9.0f}{0:>9}")
    print(f"  {'kernel RecvBuffers built':<34}{len(buffers) / NODES:>9.0f}{0:>9}")
    assert node_kb <= NODE_KB_CEILING
    assert big_kb <= NODE_KB_CEILING
    assert with_pages <= NODE_WITH_DRAM_KB_CEILING
    assert big_with_pages <= NODE_WITH_DRAM_KB_CEILING


def test_rest_budget_a_big_boot_is_one_process_and_three_records_per_node(monkeypatch):
    nodes, shards = BIG_BOOT
    sim, _cluster, modules, started, buffers = _boot(monkeypatch, nodes, shards)
    assert len(started) == len(REST_PROCESSES) * nodes
    assert sim.events_dispatched == BOOT_RECORDS * nodes
    assert (_built_cpus(modules), buffers) == ({}, [])


def _vqp_bytes(hold, count=2000):
    """Host bytes per VQP connected over a warm DCCache and left idle,
    held by its user or dropped (the user's list is allocated untraced)."""
    sim, cluster, _meta, modules = krcore_cluster(num_nodes=NODES)
    module, gid = modules[1], cluster.node(2).gid
    users = [None] * count

    def connect(how_many):
        def proc():
            for index in range(how_many):
                vqp = module.create_vqp()
                yield from vqp.connect(gid)
                if hold:
                    users[index] = vqp

        sim.run_process(proc())

    connect(1)  # the DCCache entry and the CPU's pool are not per-VQP weight
    held, _ = _traced(lambda: connect(count))
    assert len(module.vqps_by_id) == (count if hold else 0)
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
    """(host bytes, simulated DRAM bytes held) per meta client built on one
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

    dram = _dram_bytes(node.memory)
    held, _clients = _traced(build)
    return held / count, (_dram_bytes(node.memory) - dram) / count


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


def _reachable(root):
    """Every object reachable from ``root`` through ``gc.get_referents``."""
    seen = {id(root): root}
    frontier = [root]
    while frontier:
        for ref in gc.get_referents(frontier.pop()):
            if id(ref) not in seen:
                seen[id(ref)] = ref
                frontier.append(ref)
    return seen.values()


def test_rest_budget_a_drained_window_pins_no_flight_and_no_wr(monkeypatch):
    """A completed and polled 16-WR window leaves no ``_Flight`` alive and
    none of the WRs it posted reachable from the QP: an idle sender holds
    nothing.  (A parked sender generator pinned the last WR and flight,
    and through the flight its payload and remote node.)"""
    sim, cluster, _meta, _modules = krcore_cluster(num_nodes=NODES)
    client, server = cluster.node(1), cluster.node(2)
    lib, server_lib = KrcoreLib(client), KrcoreLib(server)
    posted = {}  # id -> QP, ids only: a strong reference would pin the WRs
    post_send = QueuePair.post_send

    def recorded_post_send(self, wr_list):
        wrs = wr_list if isinstance(wr_list, (list, tuple)) else [wr_list]
        posted.update((id(wr), self) for wr in wrs)
        post_send(self, wr_list)

    monkeypatch.setattr(QueuePair, "post_send", recorded_post_send)

    def window():
        vqp = yield from lib.create_vqp()
        yield from lib.qconnect(vqp, server.gid)
        raddr = server.memory.alloc(64)
        rmr = yield from server_lib.reg_mr(raddr, 64)
        laddr = client.memory.alloc(64)
        lmr = yield from lib.reg_mr(laddr, 64)
        yield from lib.post_send(
            vqp, [WorkRequest.read(laddr, 8, lmr.lkey, raddr, rmr.rkey) for _ in range(WINDOW)]
        )
        for _ in range(WINDOW):
            assert (yield from vqp.wait_send_completion()).ok
        return vqp.qp

    qp = sim.run_process(window())
    assert sum(owner is qp for owner in posted.values()) == WINDOW
    gc.collect()
    assert [obj for obj in gc.get_objects() if type(obj) is _Flight] == []
    pinned = [
        obj for obj in _reachable(qp)
        if type(obj) is WorkRequest and posted.get(id(obj)) is qp
    ]
    assert pinned == []


@pytest.mark.unchecked("weighs the host heap, which a checker's tables would join")
def test_rest_budget_used_state_weighs_under_the_ceilings():
    held_vqp_bytes, dropped_vqp_bytes = _vqp_bytes(True), _vqp_bytes(False)
    qp_cq_bytes = _drained_qp_cq_bytes()
    meta_bytes, meta_dram_bytes = _meta_client_weight()
    print(f"\nUsed state at rest, host bytes per object ({WINDOW}-WR window)")
    print(f"  {'per object':<34}{'measured':>9}{'ceiling':>9}")
    print(f"  {'connected idle VQP, held':<34}{held_vqp_bytes:>9.0f}{HELD_VQP_BYTES_CEILING:>9}")
    print(f"  {'connected VQP, dropped':<34}{dropped_vqp_bytes:>9.1f}"
          f"{DROPPED_VQP_BYTES_CEILING:>9}")
    print(f"  {'drained QP + CQ':<34}{qp_cq_bytes:>9.0f}{QP_CQ_BYTES_CEILING:>9}")
    print(f"  {'meta client, DRAM pages included':<34}{meta_bytes:>9.0f}"
          f"{META_CLIENT_BYTES_CEILING:>9}")
    print(f"  {'  DRAM bytes it holds':<34}{meta_dram_bytes:>9.0f}"
          f"{META_CLIENT_DRAM_BYTES_CEILING:>9}")
    assert held_vqp_bytes <= HELD_VQP_BYTES_CEILING
    assert dropped_vqp_bytes <= DROPPED_VQP_BYTES_CEILING
    assert qp_cq_bytes <= QP_CQ_BYTES_CEILING
    assert meta_bytes <= META_CLIENT_BYTES_CEILING
    # The scratch buffers, one bucket each, share the pages they sit in.
    assert meta_dram_bytes <= META_CLIENT_DRAM_BYTES_CEILING
