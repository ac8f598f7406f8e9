"""Fig 15: comparison to LITE.

(a) memory for connection caching: LITE holds one full RCQP per remote
    node (~160 KB each, 780 MB at 5,000), KRCORE a constant 48 DCQPs plus
    12 B of DCT metadata per connection (~6.3 MB at 5,000).
(b) data path, one node to others (64B READs): sync KRCORE(DC) is up to
    ~20% slower than LITE; async LITE wrecks its shared QPs beyond 6
    posting threads while KRCORE's pre-checks let it scale (~3x peak).
"""

from repro.bench.harness import FigureResult
from repro.bench.onesided import run_onesided
from repro.cluster import timing
from repro.lite import LiteModule
from repro.sim import US
from repro.verbs.errors import QpOverflowError

#: Fig 15a's KRCORE pool: 48 DCQPs (2 per core x 24 cores).
KRCORE_DC_QPS = 48


def run(fast=True):
    result = FigureResult("Fig 15", "comparison to LITE")
    table = result.table(
        "(a) connection-cache memory",
        ["connections", "LITE (MB)", "KRCORE (MB)", "ratio (x)"],
    )
    memory = {}
    for connections in (100, 1_000, 5_000, 10_000):
        lite_mb = LiteModule.cache_bytes_for(connections) / 1e6
        krcore_mb = (
            KRCORE_DC_QPS * timing.DC_QP_MEMORY_BYTES
            + connections * timing.DCT_METADATA_BYTES
        ) / 1e6
        table.add_row(connections, lite_mb, krcore_mb, lite_mb / krcore_mb)
        memory[connections] = (lite_mb, krcore_mb)
    result.metrics["memory"] = memory

    measure = (150 if fast else 500) * US
    sync_table = result.table(
        "(b) sync 64B READ latency, one node to others",
        ["system", "avg latency (us)"],
    )
    sync = {}
    for system in ("lite", "krcore_dc"):
        r = run_onesided(
            system, "sync", payload=64, num_clients=1, servers=5,
            target="random", single_node=True, measure_ns=measure,
        )
        sync_table.add_row(system, r.avg_latency_us)
        sync[system] = r.avg_latency_us
    result.metrics["sync"] = sync

    threads_list = [2, 6, 7, 12] if fast else [2, 4, 6, 7, 12, 24]
    async_table = result.table(
        "(b) async 64B READ throughput vs posting threads",
        ["system", "threads", "throughput (M/s)"],
    )
    async_points = {}
    for system in ("lite", "krcore_dc"):
        for threads in threads_list:
            try:
                r = run_onesided(
                    system, "async", payload=64, num_clients=threads,
                    batch=48, single_node=True, measure_ns=measure,
                )
                value = r.throughput_mps
                async_table.add_row(system, threads, value)
            except QpOverflowError:
                value = 0.0
                async_table.add_row(system, threads, "QP wrecked (overflow)")
            async_points[(system, threads)] = value
    result.metrics["async"] = async_points
    return result
