"""Fig 14: (a) DCQP pool size; (b) fan-out tail latency.

(a) a batch of 64 one-sided READs to random targets across 10 machines:
    with one DCQP every target switch serializes behind a reconnection,
    so DC loses to RC; from pool size >= 2 the reconnections overlap and
    DC wins (fewer QPs to post/poll).
(b) 50 clients fanning sync READs out to 5 servers: DC's reconnections
    push its 99.9th-percentile latency (~6 us) above RC (~3.8 us) and
    verbs (~2.8 us).
"""

import random

from repro.bench.harness import FigureResult
from repro.bench.onesided import run_onesided
from repro.bench.setups import krcore_cluster, plant_rc
from repro.cluster import timing
from repro.krcore import KrcoreLib
from repro.sim import US
from repro.verbs import WorkRequest

BATCH = 64


def run(fast=True):
    result = FigureResult("Fig 14", "DCQP pool size and tail latency")
    pool_sizes = [1, 2, 4, 8] if fast else [1, 2, 4, 8, 16]
    table = result.table(
        "(a) batched READs to 10 random targets",
        ["configuration", "batch latency (us)"],
    )
    pool_points = {}
    rc_latency = _batch_to_many("rc", None, fast)
    table.add_row("KRCORE (RC)", rc_latency)
    for size in pool_sizes:
        latency = _batch_to_many("dc", size, fast)
        table.add_row(f"KRCORE (DC, pool={size})", latency)
        pool_points[size] = latency
    result.metrics["pool"] = pool_points
    result.metrics["rc_batch"] = rc_latency

    measure = (400 if fast else 2_000) * US
    tail_table = result.table(
        "(b) fan-out tail latency (50 clients -> 5 servers)",
        ["system", "p50 (us)", "p99 (us)", "p99.9 (us)"],
    )
    tails = {}
    for system in ("verbs", "krcore_rc", "krcore_dc"):
        r = run_onesided(
            system, "sync", num_clients=50, servers=5, target="random",
            measure_ns=measure,
        )
        p50, p99, p999 = r.p(0.50), r.p(0.99), r.p(0.999)
        tail_table.add_row(system, p50, p99, p999)
        tails[system] = (p50, p99, p999)
    result.metrics["tails"] = tails
    return result


def _batch_to_many(kind, pool_size, fast):
    """Average latency (us) of one 64-READ batch to random targets.

    The RC configuration mirrors the paper's: "RC needs 64 different
    connections to send these requests, and it has to do 63 additional
    polls" -- one (RC-backed) VQP per request, each polled individually.
    The DC configuration uses one VQP per *target*; requests are posted
    in arrival order through one batched ioctl, so consecutive requests
    to different targets force DCT reconnections on the shared DCQPs.
    """
    repeats = 20 if fast else 100
    kwargs = {"background_rc": False}
    if kind == "dc":
        kwargs["dc_per_cpu"] = pool_size
    sim, cluster, _, modules = krcore_cluster(num_nodes=12, **kwargs)
    client_node = cluster.nodes[1]
    client_module = modules[1]
    targets = cluster.nodes[2:12]
    regions = []
    for node in targets:
        addr = node.memory.alloc(4096)
        region = node.services["krcore"].boot_mr(addr, 4096)
        regions.append((addr, region))
    laddr = client_node.memory.alloc(64 * 1024)
    lmr = client_node.memory.register(laddr, 64 * 1024)
    client_module.valid_mr.record(lmr)
    if kind == "rc":
        for node in targets:
            plant_rc(client_module, node.services["krcore"], cpu_id=0)
    lib = KrcoreLib(client_node)
    rng = random.Random(99)
    samples = []

    def wr_for(slot, target_index):
        raddr, region = regions[target_index]
        return WorkRequest.read(
            laddr + slot * 64, 8, lmr.lkey, raddr, region.rkey, signaled=True
        )

    def proc():
        # Per-target VQPs (DC) or per-request VQPs (RC, 64 connections).
        target_vqps = []
        for node in targets:
            vqp = yield from lib.create_vqp()
            yield from lib.qconnect(vqp, node.gid)
            target_vqps.append(vqp)
        # Warm the MRStore.
        for index in range(len(targets)):
            raddr, region = regions[index]
            yield from lib.read_sync(
                target_vqps[index], laddr, lmr.lkey, raddr, region.rkey, 8
            )
        if kind == "rc":
            request_vqps = []
            for slot in range(BATCH):
                vqp = yield from lib.create_vqp()
                yield from lib.qconnect(vqp, targets[slot % len(targets)].gid)
                request_vqps.append(vqp)
        for _ in range(repeats):
            choices = [rng.randrange(len(targets)) for _ in range(BATCH)]
            start = sim.now
            if kind == "rc":
                # 64 individual connections (each request rides its own
                # RC-backed VQP, spread over the 10 targets): one batched
                # post ioctl...
                posts = [
                    (request_vqps[slot], [wr_for(slot, slot % len(targets))])
                    for slot in range(BATCH)
                ]
                yield from lib.post_send_multi(posts)
                # ...but one poll per connection ("63 additional polls").
                for slot in range(BATCH):
                    yield timing.SYSCALL_NS
                    entry = yield from request_vqps[slot].wait_send_completion()
                    assert entry.ok
            else:
                # Arrival-order multi-post through one ioctl; collection
                # needs one poll ioctl per target VQP.
                posts = [
                    (target_vqps[t], [wr_for(slot, t)]) for slot, t in enumerate(choices)
                ]
                yield from lib.post_send_multi(posts)
                counts = {}
                for t in choices:
                    counts[t] = counts.get(t, 0) + 1
                for t, count in counts.items():
                    yield timing.SYSCALL_NS
                    for _ in range(count):
                        entry = yield from target_vqps[t].wait_send_completion()
                        assert entry.ok
            samples.append(sim.now - start)

    sim.run_process(proc())
    return sum(samples) / len(samples) / 1000.0
