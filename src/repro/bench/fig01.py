"""Fig 1: the motivation -- elastic apps run in microseconds, the RDMA
control path costs milliseconds.

(a) data-path execution time of typical elastic RDMA applications
    (a RACE YCSB-C request; a serverless function's RDMA transfer);
(b) the control-path costs that gate them (creating an RDMA connection,
    driver init, starting a container).
"""

from repro.apps.race import RaceClient, RaceStorage, VerbsBackend
from repro.apps.serverless import WARM_START_NS
from repro.apps.txn import TxnClient, TxnStorage
from repro.bench.harness import FigureResult
from repro.bench.echo import run_echo
from repro.bench.setups import verbs_cluster
from repro.cluster import timing
from repro.workloads import YcsbWorkload
from repro.workloads.tpcc import TpccLayout, TpccWorkload


def run(fast=True):
    result = FigureResult("Fig 1", "execution time vs control-path costs")

    # (a) data-path execution times.
    race_us = _race_get_latency(num_ops=50 if fast else 300)
    txn_us = _transaction_latency(num_txns=30 if fast else 200)
    transfer_us = run_echo("verbs", "sync", payload=1024).avg_latency_us
    data_table = result.table(
        "(a) data execution time of elastic RDMA apps",
        ["application", "per-request time (us)"],
    )
    data_table.add_row("RACE (YCSB-C GET, one-sided)", race_us)
    data_table.add_row("FaRM-v2-style TPC-C transaction", txn_us)
    data_table.add_row("serverless transfer (1KB echo)", transfer_us)

    # (b) control-path costs.
    control_table = result.table(
        "(b) control path costs", ["component", "time (ms)"]
    )
    rows = [
        ("RDMA connection (verbs, first)", timing.VERBS_CONTROL_PATH_NS / 1e6),
        ("RDMA driver init", timing.DRIVER_INIT_NS / 1e6),
        ("RDMA connection (kernel, cached ctx)", timing.LITE_CONTROL_PATH_NS / 1e6),
        ("container warm start", WARM_START_NS / 1e6),
    ]
    for name, value in rows:
        control_table.add_row(name, value)

    result.metrics = {
        "race_us": race_us,
        "txn_us": txn_us,
        "transfer_us": transfer_us,
        "verbs_control_ms": timing.VERBS_CONTROL_PATH_NS / 1e6,
        "gap": timing.VERBS_CONTROL_PATH_NS / (race_us * 1000),
    }
    return result


def _transaction_latency(num_txns):
    """Average latency of FaRM-style TPC-C transactions (New-Order and
    Payment, the Fig 1 'FaRM-v2 / TPC-C' workload)."""
    sim, cluster = verbs_cluster(num_nodes=4, memory_size=32 << 20)
    layout = TpccLayout(num_warehouses=1)
    per_node = -(-layout.total_records // 2)
    storages = [
        TxnStorage(cluster.node(i), num_records=per_node)
        for i in (1, 2)
    ]
    client = TxnClient(VerbsBackend(cluster.node(0)), [s.catalog() for s in storages])
    workload = TpccWorkload(client, layout, seed=11)
    workload.load(storages)

    def proc():
        yield from client.setup()
        start = sim.now
        for _ in range(num_txns):
            yield from workload.next_transaction()
        return (sim.now - start) / num_txns / 1000.0

    return sim.run_process(proc())


def _race_get_latency(num_ops):
    """Average YCSB-C GET latency over the verbs backend (data path only)."""
    sim, cluster = verbs_cluster(num_nodes=3, memory_size=32 << 20)
    storage = RaceStorage(cluster.node(1), num_buckets=4096, heap_bytes=1 << 20)
    workload = YcsbWorkload(num_keys=500)
    for key in workload.load_keys():
        storage.load(key, b"v" * 64)
    client = RaceClient(VerbsBackend(cluster.node(0)), [storage.catalog()])

    def proc():
        yield from client.setup()
        start = sim.now
        for _ in range(num_ops):
            op, key = workload.next_op()
            value = yield from client.get(key)
            assert value is not None
        return (sim.now - start) / num_ops / 1000.0

    return sim.run_process(proc())
