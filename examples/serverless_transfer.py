"""Passing data between serverless functions over RDMA (§5.3.2).

ServerlessBench TestCase5 on an Fn-like platform: function A finishes,
function B starts (warm) on another machine, and A's payload must reach
B.  Over verbs, both sides pay the full RDMA control path (~30 ms); over
KRCORE the transfer collapses to tens of microseconds.

Run:  python examples/serverless_transfer.py
"""

from repro.apps.serverless import ServerlessPlatform, run_transfer_testcase
from repro.bench.setups import krcore_cluster, verbs_cluster

PAYLOADS = [1024, 4096, 9216]


def main():
    print("ServerlessBench TestCase5: function-to-function transfer time\n")
    print(f"{'payload':>9}  {'verbs':>12}  {'KRCORE':>12}  {'reduction':>9}")
    for payload in PAYLOADS:
        sim_v, cluster_v = verbs_cluster(num_nodes=3)
        verbs_result = sim_v.run_process(
            run_transfer_testcase(
                sim_v, cluster_v.node(0), cluster_v.node(1), payload, "verbs"
            )
        )
        sim_k, cluster_k, meta, modules = krcore_cluster(num_nodes=3)
        krcore_result = sim_k.run_process(
            run_transfer_testcase(
                sim_k, cluster_k.node(1), cluster_k.node(2), payload, "krcore"
            )
        )
        reduction = 100 * (1 - krcore_result.transfer_ns / verbs_result.transfer_ns)
        print(
            f"{payload:>8}B  {verbs_result.transfer_ns / 1e6:>10.2f}ms"
            f"  {krcore_result.transfer_ns / 1e3:>10.1f}us  {reduction:>8.2f}%"
        )

    # The platform itself: cold vs warm container starts.
    print("\ncontainer starts on the Fn-like platform:")
    sim, cluster, meta, modules = krcore_cluster(num_nodes=3)
    platform = ServerlessPlatform(sim)

    def handler(ctx):
        yield 100_000  # 100 us of compute
        return "ok"

    platform.deploy("fn", handler, cluster.node(1))

    def invoke_twice():
        start = sim.now
        yield from platform.invoke("fn")
        cold = sim.now - start
        start = sim.now
        yield from platform.invoke("fn")
        warm = sim.now - start
        return cold, warm

    cold, warm = sim.run_process(invoke_twice())
    print(f"  cold start: {cold / 1e6:6.1f} ms    warm start: {warm / 1e6:6.1f} ms")


if __name__ == "__main__":
    main()
