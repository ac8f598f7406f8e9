"""Per-layer microbenchmarks: host nanoseconds per operation.

Each one times a batch of one public call from outside (``perf_counter``
around the batch, cyclic GC paused) and reports the median of
:data:`BATCHES` batches, plus engine events per operation where a later
change could trade events for time.  They do not depend on the workload
or the seed: they price the steps the workloads are made of, so a change
to one step shows here before it is diluted in a workload's ``wall_s``.
"""

import statistics
import time

from repro.bench.setups import krcore_cluster, lite_cluster, verbs_cluster
from repro.cluster import Cluster, PhysicalMemory
from repro.krcore import KrcoreLib, KrcoreModule, MetaServer
from repro.kvs import DrtmKvClient, DrtmKvServer
from repro.obs import Tracer
from repro.sim import Resource, Simulator
from repro.sim.partition import Partition, run_partitioned
from repro.verbs import RecvBuffer, WorkRequest

from passes import gc_paused, reference_kernel
from shared import rc_pair

BATCHES = 5
BATCH_WRS = 16


def _ops(base, scale):
    """Operations per batch: at least two full WR windows."""
    return max(2 * BATCH_WRS, int(base * scale))


def _timed(batch, prepare=None):
    """Median seconds and events of :data:`BATCHES` calls of ``batch``,
    after one untimed call.  With ``prepare``, each call gets a fresh
    ``prepare()`` result built outside the timed region."""
    def once():
        state = () if prepare is None else (prepare(),)
        before = Simulator.total_events_dispatched
        started = time.perf_counter()
        batch(*state)
        return (
            time.perf_counter() - started,
            Simulator.total_events_dispatched - before,
        )

    once()
    with gc_paused():
        runs = [once() for _ in range(BATCHES)]
    return (
        statistics.median(seconds for seconds, _ in runs),
        statistics.median(events for _, events in runs),
    )


def _buffer(node, nbytes):
    addr = node.memory.alloc(nbytes)
    return addr, node.memory.register(addr, nbytes)


# ------------------------------------------------------------------- sim


def _noop():
    pass


def _sim_metrics(out, scale):
    n = _ops(20000, scale)

    def ready():
        sim = Simulator()
        schedule = sim.schedule
        for _ in range(n):
            schedule(0, _noop)
        sim.run()

    out["sim.ready_dispatch_ns"] = _timed(ready)[0] * 1e9 / n

    def timers():
        sim = Simulator()
        schedule = sim.schedule
        for index in range(n):
            schedule(1 + (index * 7919) % 10007, _noop)
        sim.run()

    out["sim.timer_ns"] = _timed(timers)[0] * 1e9 / n

    def resume():
        sim = Simulator()

        def ticker():
            for _ in range(n):
                yield 1

        sim.process(ticker())
        sim.run()

    out["sim.process_resume_ns"] = _timed(resume)[0] * 1e9 / n

    def wake():
        sim = Simulator()
        turn = [sim.event(), sim.event()]

        def player(me):
            for _ in range(n // 2):
                yield turn[me]
                turn[me] = sim.event()
                turn[1 - me].trigger(None)

        sim.process(player(0))
        sim.process(player(1))
        turn[0].trigger(None)
        sim.run()

    out["sim.event_wake_ns"] = _timed(wake)[0] * 1e9 / n

    def handoff():
        sim = Simulator()
        resource = Resource(sim, capacity=1)

        def user():
            for _ in range(n // 4):
                grant = yield resource.acquire()
                yield 1
                resource.release(grant)

        for _ in range(4):
            sim.process(user())
        sim.run()

    out["sim.resource_handoff_ns"] = _timed(handoff)[0] * 1e9 / n

    windows = []

    def window():
        result = run_partitioned(
            _pingpong_partition, _ops(2000, scale), 2, 1000, mode="inline"
        )
        windows.append(result.windows)

    seconds = _timed(window)[0]
    out["sim.partition_window_us"] = seconds * 1e6 / windows[-1]


def _pingpong_partition(rounds, index):
    """Partition builder: two partitions bounce one message ``rounds``
    times, each hop one lookahead away, so every window carries one
    message and one event."""
    partition = Partition(index, 2, 1000)

    def on_ball(part, msg):
        if msg.payload:
            part.send(1 - part.index, "ball", msg.payload - 1, part.index,
                      part.sim.now + part.lookahead_ns)

    partition.register("ball", on_ball)
    if index == 0:
        partition.sim.schedule(
            1, lambda: partition.send(1, "ball", rounds, 0, partition.sim.now + 1000)
        )
    return partition


# ----------------------------------------------------------------- verbs


def _verbs_metrics(out, scale):
    n = _ops(2000, scale)
    sim, cluster = verbs_cluster(num_nodes=2)
    node, peer_node = cluster.nodes
    qp, peer = rc_pair(sim, node, peer_node)
    laddr, local = _buffer(node, 4096)
    raddr, remote = _buffer(peer_node, 4096)

    def read_one():
        wr = WorkRequest.read(laddr, 8, local.lkey, raddr, remote.rkey)
        qp.post_send(wr)
        yield from qp.send_cq.wait_poll()

    def reads():
        def loop():
            for _ in range(n):
                yield from read_one()

        sim.run_process(loop())

    seconds, events = _timed(reads)
    out["verbs.post_send_cqe_ns"] = seconds * 1e9 / n
    out["verbs.events_per_wr"] = events / n

    def batches():
        def loop():
            for _ in range(n // BATCH_WRS):
                qp.post_send_batch([
                    WorkRequest.read(
                        laddr + 8 * i, 8, local.lkey, raddr + 8 * i, remote.rkey,
                        signaled=(i == BATCH_WRS - 1),
                    )
                    for i in range(BATCH_WRS)
                ])
                while not (yield from qp.send_cq.wait_poll(BATCH_WRS)):
                    pass

        sim.run_process(loop())

    out["verbs.post_send_batch_ns_per_wr"] = _timed(batches)[0] * 1e9 / n

    def messages():
        def loop():
            for _ in range(n):
                peer.post_recv(RecvBuffer(raddr, 64, remote.lkey))
                qp.post_send(WorkRequest.send(laddr, 64, local.lkey))
                yield from peer.recv_cq.wait_poll()
                yield from qp.send_cq.wait_poll()

        sim.run_process(loop())

    out["verbs.send_recv_ns_per_msg"] = _timed(messages)[0] * 1e9 / n


# --------------------------------------------------------------- cluster


def _cluster_metrics(out, scale):
    nodes = 10

    def build():
        Cluster(Simulator(), num_nodes=nodes)

    out["cluster.build_ms_per_node"] = _timed(build)[0] * 1e3 / nodes

    n = _ops(20000, scale)
    memory = PhysicalMemory(1 << 20)
    word = b"12345678"

    def read_write():
        write, read = memory.write, memory.read
        for index in range(n // 2):
            addr = (index * 4104) & 0xFFFF8
            write(addr, word)
            read(addr, 8)

    out["cluster.memory_rw_ns"] = _timed(read_write)[0] * 1e9 / n

    commands = _ops(5000, scale)
    sim = Simulator()
    rnic = Cluster(sim, num_nodes=1).node(0).rnic

    def command():
        def loop():
            for _ in range(commands):
                yield from rnic.command(100)

        sim.run_process(loop())

    out["cluster.rnic_command_ns"] = _timed(command)[0] * 1e9 / commands


# ------------------------------------------------------------------- kvs


def _kvs_metrics(out, scale):
    n = _ops(1000, scale)
    sim, cluster = verbs_cluster(num_nodes=2)
    node, server_node = cluster.nodes
    server = DrtmKvServer(server_node)
    keys = [b"key%05d" % index for index in range(256)]
    for key in keys:
        server.put(key, key * 2)
    qp, _peer = rc_pair(sim, node, server_node)
    scratch, region = _buffer(node, 4096)
    client = DrtmKvClient(server.catalog, qp, scratch, 4096, region.lkey)

    def lookups():
        def loop():
            for index in range(n):
                key = keys[index % len(keys)]
                if (yield from client.lookup(key)) != key * 2:
                    raise AssertionError(f"kvs lookup of {key!r} returned a wrong value")

        sim.run_process(loop())

    seconds, events = _timed(lookups)
    out["kvs.lookup_ns"] = seconds * 1e9 / n
    out["kvs.events_per_lookup"] = events / n


# ---------------------------------------------------------------- krcore


def _krcore_metrics(out, scale):
    boots = 8

    def bare_cluster():
        cluster = Cluster(Simulator(), num_nodes=boots)
        return cluster, MetaServer(cluster.node(0))

    def boot(state):
        cluster, meta = state
        for node in cluster.nodes:
            KrcoreModule(node, meta)

    out["krcore.module_boot_ms"] = _timed(boot, bare_cluster)[0] * 1e3 / boots

    # A module keeps every connected VQP, so each batch of connects gets
    # a fresh deployment: the cost must not depend on the batches before.
    connects = _ops(300, scale)

    def deployment():
        return krcore_cluster(num_nodes=3, background_rc=False)

    def connect(evict, state):
        sim, cluster, _meta, modules = state
        gid = cluster.node(1).gid
        lib = KrcoreLib(cluster.node(2))
        dc_cache = modules[2].dc_cache

        def loop():
            for _ in range(connects):
                if evict:
                    dc_cache.pop(gid, None)
                vqp = yield from lib.create_vqp()
                yield from lib.qconnect(vqp, gid)

        sim.run_process(loop())

    seconds, events = _timed(lambda state: connect(True, state), deployment)
    out["krcore.qconnect_uncached_ns"] = seconds * 1e9 / connects
    out["krcore.events_per_qconnect"] = events / connects
    out["krcore.qconnect_cached_ns"] = (
        _timed(lambda state: connect(False, state), deployment)[0] * 1e9 / connects
    )

    n = _ops(1000, scale)
    sim, cluster, _meta, modules = deployment()
    server, node = cluster.node(1), cluster.node(2)
    module = modules[2]
    lib = KrcoreLib(node)
    gid = server.gid

    def meta_lookups():
        def loop():
            for _ in range(n):
                yield from module.plane_lookup_dct(0, gid)

        sim.run_process(loop())

    out["krcore.meta_lookup_ns"] = _timed(meta_lookups)[0] * 1e9 / n

    # A remote MR on the server and a local buffer, through the real API.
    raddr = server.memory.alloc(4096)
    laddr = node.memory.alloc(4096)
    regions = {}

    def register():
        regions["remote"] = yield from KrcoreLib(server).reg_mr(raddr, 4096)
        regions["local"] = yield from lib.reg_mr(laddr, 4096)
        regions["vqp"] = yield from lib.create_vqp()
        yield from lib.qconnect(regions["vqp"], gid)

    sim.run_process(register())
    sim.run()
    rkey = regions["remote"].rkey
    lkey = regions["local"].lkey
    store = module.mr_store

    def checks(evict):
        def loop():
            for _ in range(n):
                if evict:
                    store.invalidate(gid, rkey)
                if not (yield from store.check(gid, rkey, raddr, 8)):
                    raise AssertionError("MrStore rejected a registered MR")

        sim.run_process(loop())

    checks(False)  # warm the entry
    many = 20
    out["krcore.mrstore_check_hit_ns"] = (
        _timed(lambda: [checks(False) for _ in range(many)])[0] * 1e9 / (n * many)
    )
    out["krcore.mrstore_check_miss_ns"] = _timed(lambda: checks(True))[0] * 1e9 / n

    def posts():
        def loop():
            for _ in range(n // BATCH_WRS):
                entry = yield from lib.post_send_and_wait(regions["vqp"], [
                    WorkRequest.read(
                        laddr + 8 * i, 8, lkey, raddr + 8 * i, rkey,
                        signaled=(i == BATCH_WRS - 1),
                    )
                    for i in range(BATCH_WRS)
                ])
                if not entry.ok:
                    raise AssertionError(f"VQP READ window failed: {entry.status}")

        sim.run_process(loop())

    out["krcore.vqp_post_ns_per_wr"] = _timed(posts)[0] * 1e9 / n

    pairs = _ops(200, scale)

    def reg_dereg():
        def loop():
            for _ in range(pairs):
                region = yield from lib.reg_mr(laddr, 4096)
                yield from lib.dereg_mr(region)

        sim.run_process(loop())

    out["krcore.reg_dereg_mr_ns"] = _timed(reg_dereg)[0] * 1e9 / pairs


# ------------------------------------------------------------- lite, obs


def _lite_metrics(out, scale):
    n = _ops(2000, scale)
    sim, cluster, modules = lite_cluster(num_nodes=2)
    node, server = cluster.nodes
    modules[0].prewarm(modules[1])
    laddr, local = _buffer(node, 4096)
    raddr, remote = _buffer(server, 4096)

    def reads():
        def loop():
            for _ in range(n):
                yield from modules[0].read(server.gid, laddr, local.lkey, raddr, remote.rkey, 8)

        sim.run_process(loop())

    out["lite.read_ns"] = _timed(reads)[0] * 1e9 / n


def _obs_metrics(out, scale):
    n = _ops(10000, scale)

    def spans():
        tracer = Tracer()
        begin, end = tracer.begin, tracer.end
        for ts in range(n):
            begin(ts, "track", "span", op=ts)
            end(ts + 1, "track", "span")

    out["obs.span_ns"] = _timed(spans)[0] * 1e9 / n


def _driver_metrics(out, scale):
    """How fast this host is right now: the reference kernel that
    ``wall_s`` and ``setup_s`` are scaled by (nominally
    ``REF_NOMINAL_S``).  Its size does not follow ``scale``."""
    kernel_s = [reference_kernel() for _ in range(BATCHES)]
    out["driver.ref_kernel_ms"] = statistics.median(kernel_s) * 1e3


def run_all(scale=1.0):
    """Every microbenchmark: metric name -> value.  ``scale`` shrinks the
    batches (the self-test runs them small)."""
    out = {}
    for group in (
        _sim_metrics, _verbs_metrics, _cluster_metrics, _kvs_metrics,
        _krcore_metrics, _lite_metrics, _obs_metrics, _driver_metrics,
    ):
        group(out, scale)
    return out

