"""Meta-plane scale-out: qconnect-storm throughput vs shard count.

A ServerlessBench-style burst: a pack of freshly-started workers on one
client node all qconnect to distinct targets at once, every connect
missing the DCCache and paying the meta-plane lookup (two one-sided
READs).  With a single meta deployment the per-CPU meta client serializes
every lookup behind one mutex -- exactly the centralized-control-plane
wall Swift/RDMAvisor describe.  Sharding the plane gives the CPU one
pre-connected client *per shard*, so lookups to different shards proceed
in parallel and storm throughput scales with the shard count, while each
individual lookup still costs the same ~4.5 us.

Each worker owns a private target and evicts its DCCache entry before
every connect, so every iteration is an uncached qconnect routed to the
target's primary shard.
"""

from repro.bench.harness import FigureResult
from repro.bench.setups import krcore_cluster
from repro.krcore import KrcoreLib
from repro.sim import LatencyRecorder, US

#: Storm width: one worker per target, all on one client CPU.
NUM_TARGETS = 16


def run(fast=True):
    result = FigureResult(
        "Meta scale",
        "qconnect-storm throughput vs meta-plane shard count",
    )
    shard_counts = [1, 2, 4]
    table = result.table(
        "(a) qconnect storm vs shards",
        ["shards", "workers", "qconnects", "throughput (K/s)", "mean latency (us)"],
    )
    dist_table = result.table(
        "(b) per-shard lookups served",
        ["shards", "shard", "lookups"],
    )
    points = {}
    for shards in shard_counts:
        completed, rate_k, mean_us, served = _storm(shards, fast)
        table.add_row(shards, NUM_TARGETS, completed, rate_k, mean_us)
        for shard, lookups in enumerate(served):
            dist_table.add_row(shards, shard, lookups)
        points[shards] = (completed, rate_k, mean_us)
    result.metrics["storm"] = points
    return result


def _storm(shards, fast):
    """One storm run; returns (qconnects, K/s, mean us, per-shard lookups)."""
    sim, cluster, meta, modules = krcore_cluster(
        num_nodes=shards + NUM_TARGETS + 1,
        meta_shards=shards,
        cores=4,
        background_rc=False,
    )
    client_node = cluster.nodes[-1]
    client_module = modules[-1]
    targets = [cluster.nodes[shards + i].gid for i in range(NUM_TARGETS)]
    warmup_ns = 30 * US
    window_ns = (300 if fast else 1000) * US
    recorder = LatencyRecorder()
    counts = [0]

    def worker(target_gid):
        lib = KrcoreLib(client_node, cpu_id=0)
        while sim.now < warmup_ns + window_ns:
            # A fresh serverless instance has no cached metadata: evict
            # the target's entry so every connect is an uncached lookup.
            client_module.dc_cache.pop(target_gid, None)
            start = sim.now
            vqp = yield from lib.create_vqp()
            yield from lib.qconnect(vqp, target_gid)
            now = sim.now
            if now <= warmup_ns:
                continue
            recorder.record(now - start)
            counts[0] += 1

    for target_gid in targets:
        sim.process(worker(target_gid), name=f"storm-{target_gid}")
    sim.run(until=warmup_ns + window_ns)

    served = [0] * shards
    for (_cpu, shard), handle in sorted(client_module.meta_clients.items()):
        served[shard] += handle.kv.stats_reads // 2  # 2 READs per lookup
    rate_k = counts[0] / (window_ns / 1e9) / 1e3
    mean_us = recorder.mean() / 1000.0
    return counts[0], rate_k, mean_us, served
