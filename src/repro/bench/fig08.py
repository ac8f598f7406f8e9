"""Fig 8: control-path performance.

(a) single-connection establishment (throughput-latency vs #clients):
    KRCORE ~5.4 us / up to 22M conn/s; verbs 15.7 ms / 712 conn/s;
    LITE ~2 ms / 712 conn/s.
(b) full-mesh establishment time vs #workers: KRCORE cuts ~99%.
"""

from repro.bench.harness import FigureResult, SteadyRate
from repro.bench.setups import krcore_cluster, spread_clients, verbs_cluster
from repro.krcore import KrcoreLib
from repro.sim import MS, US
from repro.verbs import DriverContext
from repro.verbs.connection import rc_connect


def run(fast=True):
    result = FigureResult("Fig 8", "connection establishment performance")
    client_counts = [1, 8, 40] if fast else [1, 8, 40, 120, 240]
    table = result.table(
        "(a) single-connection establishment",
        ["system", "clients", "latency (us)", "throughput (conn/s)"],
    )
    single = {}
    for system in ("krcore", "verbs", "lite"):
        for clients in client_counts:
            latency_us, rate = _single_connection(system, clients, fast)
            table.add_row(system, clients, latency_us, rate)
            single[(system, clients)] = (latency_us, rate)
    result.metrics["single"] = single

    workers_list = [6, 12, 24] if fast else [6, 24, 60, 120, 240]
    mesh_table = result.table(
        "(b) full-mesh establishment",
        ["system", "workers", "total time (ms)"],
    )
    mesh = {}
    for system in ("krcore", "verbs", "lite"):
        for workers in workers_list:
            if system != "krcore" and workers > (24 if fast else 240):
                continue
            total_ms = _full_mesh(system, workers)
            mesh_table.add_row(system, workers, total_ms)
            mesh[(system, workers)] = total_ms
    result.metrics["mesh"] = mesh
    return result


# ---------------------------------------------------------------------------
# (a) single connection
# ---------------------------------------------------------------------------


def _single_connection(system, num_clients, fast):
    """Average connect latency (us) + aggregate rate (conn/s)."""
    if system == "krcore":
        return _krcore_single(num_clients, fast)
    return _verbs_lite_single(system, num_clients, fast)


def _krcore_single(num_clients, fast):
    # Pool and DCCache cleared before evaluation (§5.1): every qconnect
    # takes the uncached path (syscall + 2 meta-server READs).
    sim, cluster, meta, modules = krcore_cluster(background_rc=False)
    server = cluster.nodes[1]
    placements = spread_clients(num_clients, cluster.nodes[2:])
    window_ns = (150 if fast else 400) * US
    warmup_ns = 30 * US
    samples = []
    steady = SteadyRate()

    def client(index, node, cpu_id):
        module = node.services["krcore"]
        lib = KrcoreLib(node, cpu_id=cpu_id)
        while sim.now < warmup_ns + window_ns:
            module.dc_cache.pop(server.gid, None)  # stay uncached
            vqp = yield from lib.create_vqp()
            start = sim.now  # the paper times qconnect itself (5.4 us)
            yield from lib.qconnect(vqp, server.gid)
            now = sim.now
            if now <= warmup_ns:
                continue
            samples.append(now - start)
            steady.add(index, now)

    for index, (node, cpu_id) in enumerate(placements):
        sim.process(client(index, node, cpu_id))
    sim.run(until=warmup_ns + window_ns)
    return _summarize(samples, steady)


def _verbs_lite_single(system, num_clients, fast):
    sim, cluster = verbs_cluster()
    server = cluster.nodes[0]
    placements = spread_clients(num_clients, cluster.nodes[1:])
    # Connection setup is ms-scale: size the window for a few rounds.
    window_ns = (60 if fast else 300) * MS
    samples = []

    def client(index, node):
        while sim.now < window_ns:
            # Fresh context per connection for verbs (each elastic worker
            # is a new process); LITE shares the kernel context.
            ctx = DriverContext(node, kernel=(system == "lite"))
            start = sim.now
            yield from ctx.ensure_init()
            cq = yield from ctx.create_cq()
            yield from rc_connect(ctx, cq, server.gid)
            samples.append(sim.now - start)

    for index, (node, _cpu) in enumerate(placements):
        sim.process(client(index, node))
    sim.run(until=window_ns)
    latency_us = sum(samples) / len(samples) / 1000.0
    # Connections are ms-scale: a simple completions-per-window rate is
    # unbiased enough here.
    rate = len(samples) * 1e9 / window_ns
    return latency_us, rate


def _summarize(samples, steady):
    latency_us = sum(samples) / len(samples) / 1000.0
    rate = steady.per_s()
    if rate == 0.0:
        # Too few completions for steady-state windows: fall back to 1/latency.
        rate = len(steady.windows) * 1e9 / (sum(samples) / len(samples))
    return latency_us, rate


# ---------------------------------------------------------------------------
# (b) full mesh
# ---------------------------------------------------------------------------

_MESH_BASE_PORT = 100


def _full_mesh(system, workers):
    """Wall time (ms) for every worker to connect to every other."""
    if system == "krcore":
        sim, cluster, meta, modules = krcore_cluster(background_rc=False)
        nodes = cluster.nodes[1:]
    else:
        sim, cluster = verbs_cluster()
        nodes = cluster.nodes
    placements = spread_clients(workers, nodes)
    finished = []

    def krcore_worker(index, node, cpu_id):
        lib = KrcoreLib(node, cpu_id=cpu_id)
        for peer in range(workers):
            if peer == index:
                continue
            peer_node, _ = placements[peer]
            vqp = yield from lib.create_vqp()
            yield from lib.qconnect(vqp, peer_node.gid, _MESH_BASE_PORT + peer)
        finished.append(sim.now)

    def verbs_worker(index, node):
        ctx = DriverContext(node, kernel=(system == "lite"))
        yield from ctx.ensure_init()
        cq = yield from ctx.create_cq()
        for peer in range(workers):
            if peer == index:
                continue
            peer_node, _ = placements[peer]
            yield from rc_connect(ctx, cq, peer_node.gid)
        finished.append(sim.now)

    for index, (node, cpu_id) in enumerate(placements):
        if system == "krcore":
            sim.process(krcore_worker(index, node, cpu_id))
        else:
            sim.process(verbs_worker(index, node))
    sim.run()
    assert len(finished) == workers
    return max(finished) / 1e6
