"""Ablations of KRCORE's design choices (beyond the paper's figures).

* **DCCache** (§4.2): with the cache, a repeat qconnect is one syscall
  (~0.9 us); without it, every connect pays the meta-server lookup
  (~5.4 us).
* **Per-CPU pools** (§4.2): sharing one global pool across all threads
  funnels every request through a couple of DCQPs; per-CPU pools keep
  the data path parallel.
* **Zero-copy threshold** (§4.5): sweeping the switch-over point for a
  32 KB echo shows copy costs above and descriptor+READ costs below.
"""

from repro.bench.echo import run_echo
from repro.bench.harness import FigureResult
from repro.bench.onesided import run_onesided
from repro.bench.setups import krcore_cluster
from repro.krcore import KrcoreLib
from repro.sim import US


def run(fast=True):
    result = FigureResult("Ablations", "KRCORE design-choice ablations")

    # -- DCCache ---------------------------------------------------------------
    cached_us, uncached_us = _dccache_ablation()
    table = result.table(
        "DCCache: repeat qconnect latency", ["configuration", "latency (us)"]
    )
    table.add_row("DCCache on (hit)", cached_us)
    table.add_row("DCCache off (always query meta)", uncached_us)
    result.metrics["dccache"] = (cached_us, uncached_us)

    # -- per-CPU pools -----------------------------------------------------------
    measure = (150 if fast else 400) * US
    threads = 12 if fast else 24
    per_cpu = run_onesided(
        "krcore_dc", "async", num_clients=threads, batch=16,
        single_node=True, measure_ns=measure,
    ).throughput_mps
    shared = _shared_pool_throughput(threads, measure)
    pools = result.table(
        f"pool division ({threads} threads, async 8B READ)",
        ["configuration", "throughput (M/s)"],
    )
    pools.add_row("per-CPU pools (default)", per_cpu)
    pools.add_row("one global pool", shared)
    result.metrics["pools"] = (per_cpu, shared)

    # -- zero-copy threshold ------------------------------------------------------
    payload = 32 * 1024
    thresholds = [4096, 16384, payload + 1]
    zc_table = result.table(
        "zero-copy threshold (32 KB echo)", ["threshold", "latency (us)"]
    )
    zc = {}
    for threshold in thresholds:
        label = "off (copy)" if threshold > payload else f"{threshold} B"
        latency = run_echo(
            "krcore", "sync", payload=payload,
            kernel_buf_bytes=128 * 1024, zero_copy=True,
            zero_copy_threshold=threshold,
        ).avg_latency_us
        zc_table.add_row(label, latency)
        zc[threshold] = latency
    result.metrics["zc"] = zc
    return result


def _dccache_ablation():
    """Repeat-qconnect latency with and without the DCCache."""

    def connect_latency(clear_cache):
        sim, cluster, meta, modules = krcore_cluster(background_rc=False)
        lib = KrcoreLib(cluster.node(1))
        target = cluster.node(2).gid
        module = modules[1]

        def proc():
            # Warm everything once.
            vqp = yield from lib.create_vqp()
            yield from lib.qconnect(vqp, target)
            samples = []
            for _ in range(20):
                if clear_cache:
                    module.dc_cache.pop(target, None)
                vqp = yield from lib.create_vqp()
                start = sim.now
                yield from lib.qconnect(vqp, target)
                samples.append(sim.now - start)
            return sum(samples) / len(samples) / 1000.0

        return sim.run_process(proc())

    return connect_latency(False), connect_latency(True)


def _shared_pool_throughput(threads, measure_ns):
    """Throughput when every CPU shares one global pool (ablating §4.2's
    per-CPU division)."""
    import repro.bench.onesided as onesided

    original = onesided.krcore_cluster

    def patched(*args, **kwargs):
        sim, cluster, meta, modules = original(*args, **kwargs)
        for module in modules:
            module.pool = lambda cpu_id, shared=module.pool(0): shared
        return sim, cluster, meta, modules

    onesided.krcore_cluster = patched
    try:
        result = run_onesided(
            "krcore_dc", "async", num_clients=threads, batch=16,
            single_node=True, measure_ns=measure_ns,
        )
        return result.throughput_mps
    finally:
        onesided.krcore_cluster = original
