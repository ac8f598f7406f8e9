"""MicroView: harvest latency/goodput vs pods x strategy x backend.

The ROADMAP item-5 scenario: a collector node READs N tiny (4 KB)
per-pod metric MRs off the worker nodes every cycle.  Panel (a) is the
fault-free comparison -- serial small READs vs doorbell-batched chains
vs vectored (multi-SGE) gather READs, each atop verbs, LITE, and KRCORE.
LITE's kernel API exposes neither doorbell chains nor gather WRs, so its
"batched"/"vectored" rows degrade to the serial loop -- that flat line
*is* the measurement.  Panel (b) turns on pod churn (seeded
dereg/re-register storms) on the KRCORE deployment: harvest goodput
holds while failed reads and MRStore churn accounting (stale accepts,
invalidations) pick up the cost of pods dying mid-harvest.
"""

from repro.apps.microview import Collector, KrcoreBackend, LiteBackend, PodDirectory, VerbsBackend
from repro.bench.harness import FigureResult
from repro.bench.setups import krcore_cluster, lite_cluster, verbs_cluster
from repro.sim import MS, US

#: Worker nodes hosting pods (the collector is its own node).
WORKERS = 3

BACKENDS = ("verbs", "lite", "krcore")
STRATEGIES = ("serial", "batched", "vectored")


def run(fast=True):
    result = FigureResult(
        "MicroView",
        "per-pod MR harvest: serial vs batched vs vectored x verbs/LITE/KRCORE",
    )
    pods_list = (4, 16) if fast else (4, 16, 64)
    cycles = 4 if fast else 16

    harvest = result.table(
        "(a) harvest latency and goodput vs pods x strategy x backend",
        ["backend", "strategy", "pods", "cycles", "avg harvest (us)", "goodput (MB/s)"],
    )
    points = {}
    for backend_name in BACKENDS:
        for strategy in STRATEGIES:
            for pods_per_worker in pods_list:
                stats = _harvest_run(backend_name, strategy, pods_per_worker, cycles)
                pods_total = pods_per_worker * WORKERS
                harvest.add_row(
                    backend_name, strategy, pods_total, stats.cycles,
                    stats.avg_cycle_us, stats.goodput_mbps,
                )
                points[f"{backend_name}/{strategy}/{pods_total}"] = {
                    "avg_us": stats.avg_cycle_us,
                    "mbps": stats.goodput_mbps,
                }
    result.metrics["harvest"] = points

    churn = result.table(
        "(b) KRCORE harvest under pod churn (seeded dereg/re-register storm)",
        [
            "strategy", "churn interval (us)", "cycles", "avg harvest (us)",
            "harvested (KB)", "failed reads", "churns", "stale accepts",
        ],
    )
    churn_cycles = 6 if fast else 24
    churn_points = {}
    for strategy in STRATEGIES:
        for interval_us in (200, 50) if fast else (400, 200, 50, 20):
            row = _churn_run(strategy, interval_us, churn_cycles)
            churn.add_row(
                strategy, interval_us, row["cycles"], row["avg_us"],
                row["kb"], row["failed"], row["churns"], row["stale_accepts"],
            )
            churn_points[f"{strategy}/{interval_us}"] = row
    result.metrics["churn"] = churn_points
    return result


def _deploy(backend_name):
    """Build the per-backend deployment: (sim, collector node, backend,
    worker (node, module) pairs)."""
    nodes_needed = WORKERS + (2 if backend_name == "krcore" else 1)
    if backend_name == "verbs":
        sim, cluster = verbs_cluster(num_nodes=nodes_needed)
        collector_node = cluster.node(0)
        workers = [(cluster.node(1 + i), None) for i in range(WORKERS)]
        backend = VerbsBackend(collector_node)
    elif backend_name == "lite":
        sim, cluster, _modules = lite_cluster(num_nodes=nodes_needed)
        collector_node = cluster.node(0)
        workers = [(cluster.node(1 + i), None) for i in range(WORKERS)]
        backend = LiteBackend(collector_node)
    else:
        # Node 0 hosts the meta server, node 1 the collector.
        sim, cluster, _meta, modules = krcore_cluster(num_nodes=nodes_needed)
        collector_node = cluster.node(1)
        workers = [(cluster.node(2 + i), modules[2 + i]) for i in range(WORKERS)]
        backend = KrcoreBackend(collector_node)
    return sim, collector_node, backend, workers


def _harvest_run(backend_name, strategy, pods_per_worker, cycles):
    """One fault-free cell: deploy pods, connect, harvest ``cycles``."""
    sim, collector_node, backend, workers = _deploy(backend_name)
    directory = PodDirectory(workers)
    collector = Collector(collector_node, backend, directory)

    def drive():
        yield from directory.deploy(pods_per_worker)
        yield from collector.setup()
        yield from collector.run_cycles(cycles, strategy)

    sim.run_process(drive())
    return collector.stats


def _churn_run(strategy, interval_us, cycles, pods_per_worker=8, seed=7):
    """One churn cell on the KRCORE deployment: the storm and the
    harvest loop share the clock; goodput and MRStore churn accounting
    pick up the cost of pods dying mid-harvest."""
    sim, collector_node, backend, workers = _deploy("krcore")
    directory = PodDirectory(workers)
    collector = Collector(collector_node, backend, directory)
    horizon_ns = 20 * MS

    def drive():
        yield from directory.deploy(pods_per_worker)
        yield from collector.setup()
        sim.process(
            directory.churn_driver(interval_us * US, horizon_ns, seed=seed),
            name="microview-churn",
        )
        yield from collector.run_cycles(cycles, strategy, gap_ns=20 * US)
        yield from backend.close()  # the collector exits

    sim.run_process(drive())
    stats = collector.stats
    store = backend.lib.module.mr_store
    return {
        "cycles": stats.cycles,
        "avg_us": stats.avg_cycle_us,
        "kb": stats.bytes_ok / 1e3,
        "failed": stats.failed_reads,
        "churns": directory.stats_churns,
        "stale_accepts": store.stats_stale_accepts,
    }
