"""Elastic scaling of a RACE-style disaggregated KV store (§5.3.1).

A load spike forces the system to bootstrap new computing workers; each
worker must connect to the storage nodes before serving requests.  This
example runs the real bootstrap machinery for all three backends at a
small scale and prints the resulting worker-ready timeline, then runs
actual YCSB-C GETs through a worker on each backend.

Run:  python examples/race_scaling.py
"""

from repro.apps.race import (
    KrcoreBackend,
    LiteBackend,
    RaceClient,
    RaceStorage,
    VerbsBackend,
)
from repro.apps.race.backends import register_storage
from repro.bench.fig16 import _bootstrap
from repro.bench.setups import krcore_cluster, lite_cluster, verbs_cluster
from repro.workloads import YcsbWorkload

WORKERS = 21


def bootstrap_timelines():
    print(f"bootstrapping {WORKERS} workers per backend (fork + connect):")
    for backend in ("krcore", "lite", "verbs"):
        ready_times, _phase = _bootstrap(backend, WORKERS)
        ready_ms = sorted(t / 1e6 for t in ready_times)
        print(
            f"  {backend:7s} first worker {ready_ms[0]:8.1f} ms   "
            f"half fleet {ready_ms[len(ready_ms) // 2]:8.1f} ms   "
            f"all ready {ready_ms[-1]:8.1f} ms"
        )


def ycsb_gets():
    print("\nYCSB-C GETs through one worker (100 ops each):")
    workload_keys = YcsbWorkload(num_keys=200)

    def run_backend(name):
        if name == "verbs":
            sim, cluster = verbs_cluster(num_nodes=3, memory_size=32 << 20)
            storage = RaceStorage(cluster.node(1), heap_bytes=1 << 19)
            backend = VerbsBackend(cluster.node(0))
            catalog = storage.catalog()
        elif name == "lite":
            sim, cluster, modules = lite_cluster(num_nodes=3, memory_size=32 << 20)
            storage = RaceStorage(cluster.node(1), heap_bytes=1 << 19)
            backend = LiteBackend(cluster.node(0))
            catalog = storage.catalog()
        else:
            sim, cluster, meta, modules = krcore_cluster(num_nodes=3)
            storage = RaceStorage(cluster.node(1), heap_bytes=1 << 19, register=False)
            region = sim.run_process(register_storage(storage, krcore_module=modules[1]))
            backend = KrcoreBackend(cluster.node(0))
            catalog = storage.catalog(rkey=region.rkey)
        workload = YcsbWorkload(num_keys=200)
        for key in workload.load_keys():
            storage.load(key, b"value-" + key)
        client = RaceClient(backend, [catalog])

        def proc():
            setup_start = sim.now
            yield from client.setup()
            setup_us = (sim.now - setup_start) / 1000
            start = sim.now
            for _ in range(100):
                op, key = workload.next_op()
                value = yield from client.get(key)
                assert value == b"value-" + key
            per_op = (sim.now - start) / 100 / 1000
            return setup_us, per_op

        setup_us, per_op = sim.run_process(proc())
        if name == "krcore":
            sim.run_process(backend.close())  # the worker exits: VQPs destroyed
        print(f"  {name:7s} worker setup {setup_us:10.1f} us   GET {per_op:6.2f} us/op")

    for name in ("krcore", "lite", "verbs"):
        run_backend(name)


if __name__ == "__main__":
    bootstrap_timelines()
    ycsb_gets()
