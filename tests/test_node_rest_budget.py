"""Node rest budget: what a booted, idle node holds on the host.

KRCORE's pool is built at module load and then mostly idle (§4.2: two
DCQPs per CPU plus the DCT target), so what an idle queue pair costs the
simulator is what a node costs.  A QP at rest owns nothing (DESIGN.md §17
"A QP at rest"): send queue, sender process and CQ storage appear at the
first doorbell.  The counts are exact and repeat on every run, so they are
pinned here, and the heap a node holds has a ceiling: a sender started at
construction or a deque built per idle queue fails this file by name
instead of waiting for a ``peak_rss_mb`` run.

``make rest-budget`` prints the table (``pytest -s -k rest_budget``).
"""

import gc
import pathlib
import subprocess
import sys
import tracemalloc
from collections import deque

import repro.sim
from repro.bench.setups import krcore_cluster
from repro.krcore import KrcoreLib
from repro.sim import ENGINE, US
from repro.verbs import QueuePair

NODES = 4  # 24 cores each: 48 pooled DCQPs + 48 CQs per node

#: The generators a booted node runs, one ``Process`` and one dispatched
#: (start) record each: the DCT dispatcher, the kernel-message daemon and
#: the connection manager's.  Before PR 18 every pooled QP added a sender.
REST_PROCESSES = ["_daemon", "_kernel_daemon", "_recv_dispatcher"]

#: Host heap per node after boot + a 10 us run, simulated DRAM pages left
#: out (they are what the meta server's tables wrote, not node weight).
#: Measured 89 KB on 3.11 (317 before PR 18); the ceiling leaves room for
#: other interpreters' object sizes, not for a deque per idle queue.
NODE_KB_CEILING = 150


def _boot(monkeypatch):
    """A booted 4-node cluster run for 10 us; returns it and the (generator,
    process name) of every ``Process`` constructed since, appended live."""
    started = []
    process_init = repro.sim.Process.__init__

    def counted_init(self, sim, gen, name=None):
        started.append((gen.__name__, name))
        process_init(self, sim, gen, name)

    monkeypatch.setattr(repro.sim.Process, "__init__", counted_init)
    sim, cluster, _meta, modules = krcore_cluster(num_nodes=NODES)
    sim.run(until=10 * US)
    return sim, cluster, modules, started


def _pool_qps(modules):
    return [
        qp for module in modules for cpu in range(module.node.cores)
        for qp in module.pool(cpu).dc
    ]


def _owns_storage(qp):
    """Whether a QP, or its CQ, holds any queue storage of its own."""
    cq = qp.send_cq
    return (
        qp._sq is not None
        or isinstance(qp._recv_buffers, deque)
        or isinstance(cq._entries, deque)
        or isinstance(cq._waiters, deque)
    )


def _weigh():
    """(traced KB per node, the same without DRAM pages) of a booted cluster."""
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        sim, cluster, _meta, _modules = krcore_cluster(num_nodes=NODES)
        sim.run(until=10 * US)
        gc.collect()
        held = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    pages = sum(len(page) for node in cluster.nodes for page in node.memory._pages.values())
    return held / NODES / 1024, (held - pages) / NODES / 1024


def test_rest_budget_three_processes_and_three_records_per_node(monkeypatch):
    sim, cluster, _modules, started = _boot(monkeypatch)
    by_node = {}
    for generator, name in started:
        by_node.setdefault(name.rpartition("@")[2], []).append(generator)
    assert {gid: sorted(gens) for gid, gens in by_node.items()} == {
        node.gid: REST_PROCESSES for node in cluster.nodes
    }
    # Each ran to its first wait and nothing else was ever scheduled.
    assert (sim.events_dispatched, sim.timer_fires) == (len(REST_PROCESSES) * NODES, 0)


def test_rest_budget_no_pool_qp_or_cq_owns_storage(monkeypatch):
    _sim, _cluster, modules, _started = _boot(monkeypatch)
    qps = _pool_qps(modules)
    assert len(qps) == 2 * 24 * NODES
    assert [qp.qpn for qp in qps if _owns_storage(qp)] == []


def test_rest_budget_a_read_wakes_only_the_qps_it_posts_on(monkeypatch):
    """One connected ``read_sync`` from CPU 0: storage and a sender appear
    on the QPs that saw a doorbell (the VQP's DCQP and the two that carried
    the MR publications), one sender each, and nowhere else."""
    sim, cluster, modules, started = _boot(monkeypatch)
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
    sim, _cluster, _modules, started = _boot(monkeypatch)
    print(f"\nNode rest budget, {NODES} booted 24-core nodes after 10 us (engine={ENGINE})")
    print(f"  {'per node':<34}{'measured':>9}{'ceiling':>9}")
    print(f"  {'host heap, KB (no DRAM pages)':<34}{node_kb:>9.1f}{NODE_KB_CEILING:>9}")
    print(f"  {'host heap, KB (with DRAM pages)':<34}{with_pages:>9.1f}{'':>9}")
    print(f"  {'Process objects':<34}{len(started) / NODES:>9.0f}{len(REST_PROCESSES):>9}")
    print(f"  {'boot records dispatched':<34}{sim.events_dispatched / NODES:>9.0f}"
          f"{len(REST_PROCESSES):>9}")
    assert node_kb <= NODE_KB_CEILING


def test_rest_budget_holds_on_the_other_engine():
    """tier-1 runs on one core; count on the other one too."""
    other = "classic" if ENGINE == "flat" else "flat"
    repo = pathlib.Path(__file__).resolve().parent.parent
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         str(pathlib.Path(__file__).resolve()), "-k", "rest_budget and not other_engine"],
        cwd=repo, capture_output=True, text=True,
        env={"PYTHONPATH": f"{repo / 'src'}:{repo}", "REPRO_ENGINE": other,
             "PATH": "/usr/bin:/bin"},
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
