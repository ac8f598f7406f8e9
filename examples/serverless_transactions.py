"""The paper's opening scenario (§2.1): "before executing the application
code, a serverless function that issues database transactions must first
establish network connections to remote storage nodes."

A warm-started function runs one FaRM-style transaction (two reads, one
write, ~13 us of actual work).  Over verbs, connection setup multiplies
its end-to-end time by ~1000x; over KRCORE, setup nearly vanishes.

Run:  python examples/serverless_transactions.py
"""

from repro.apps.race import KrcoreBackend, VerbsBackend
from repro.apps.serverless import ServerlessPlatform, WARM_START_NS
from repro.apps.txn import TxnClient, TxnStorage
from repro.apps.txn.storage import RECORD_BYTES
from repro.bench.setups import krcore_cluster, verbs_cluster


def run_function(kind):
    """Deploy + invoke one transaction-issuing function; return timings."""
    if kind == "verbs":
        sim, cluster = verbs_cluster(num_nodes=4, memory_size=32 << 20)
        fn_node, storage_nodes = cluster.node(0), [cluster.node(1), cluster.node(2)]
        storages = [TxnStorage(node, num_records=128) for node in storage_nodes]
        catalogs = [s.catalog() for s in storages]
        make_backend = lambda: VerbsBackend(fn_node)
    else:
        sim, cluster, meta, modules = krcore_cluster(num_nodes=5)
        fn_node, storage_nodes = cluster.node(1), [cluster.node(2), cluster.node(3)]
        storages = []
        catalogs = []
        for node in storage_nodes:
            storage = TxnStorage(node, num_records=128, register=False)
            total = storage.num_records * RECORD_BYTES
            module = node.services["krcore"]
            region = sim.run_process(module.reg_mr(storage.base, total))
            storage.region = region
            storages.append(storage)
            catalogs.append(storage.catalog())
    storages[0].load(0, (500).to_bytes(8, "big"))
    storages[1 % len(storages)].load(0, (500).to_bytes(8, "big"))

    platform = ServerlessPlatform(sim)
    timings = {}

    def handler(ctx):
        client = TxnClient(make_backend() if kind == "verbs" else KrcoreBackend(ctx.node), catalogs)
        start = ctx.sim.now
        yield from client.setup()  # the RDMA control path
        timings["setup_us"] = (ctx.sim.now - start) / 1000
        start = ctx.sim.now

        def work(txn):
            a = yield from txn.read(0)  # record 0 on storage 0
            b = yield from txn.read(1)  # record 0 on storage 1
            balance = int.from_bytes(a[:8], "big")
            txn.write(0, (balance - 10).to_bytes(8, "big"))
            return int.from_bytes(b[:8], "big")

        result = yield from client.run(work)
        timings["txn_us"] = (ctx.sim.now - start) / 1000
        return result

    platform.deploy("txn-fn", handler, fn_node)
    platform.prewarm("txn-fn")  # warm start, like the paper's setup

    def invoke():
        start = sim.now
        result = yield from platform.invoke("txn-fn")
        timings["end_to_end_us"] = (sim.now - start) / 1000
        return result

    sim.run_process(invoke())
    return timings


def main():
    print("warm-started serverless function issuing one distributed transaction\n")
    print(f"{'backend':>8}  {'conn setup':>12}  {'transaction':>12}  {'end-to-end':>12}")
    for kind in ("verbs", "krcore"):
        t = run_function(kind)
        print(
            f"{kind:>8}  {t['setup_us']:>10.1f}us  {t['txn_us']:>10.1f}us"
            f"  {t['end_to_end_us'] / 1000:>10.2f}ms"
        )
    print(f"\n(warm container start alone costs {WARM_START_NS / 1e6:.0f} ms; "
          "with KRCORE the network setup no longer adds to it)")


if __name__ == "__main__":
    main()
