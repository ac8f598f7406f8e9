"""The paper's §6 (Discussion): the two quantitative claims, reproduced.

* **Other RNICs** -- "the cost is unlikely to reduce due to hardware
  upgrades ... on ConnectX-6 the user-space driver still takes 17ms for
  creating and connecting QP".  We re-run the control path under a
  ConnectX-6-like hardware profile (every NIC-configuration cost scaled to
  the paper's CX6 measurement) and show KRCORE's qconnect is unaffected.

* **Trade-offs of a kernel-space solution** -- KRCORE trades ~1 us per
  data-path op for a ~15.7 ms control-path saving, so it wins until a
  worker issues ~15,000 requests per connection; "the functions in
  ServerlessBench and SeBS only issue one request ... on average".
"""

from repro.bench.harness import FigureResult, hardware_profile
from repro.bench.onesided import run_onesided
from repro.bench.setups import krcore_cluster, verbs_cluster
from repro.cluster import timing
from repro.krcore import KrcoreLib
from repro.sim import US
from repro.verbs import DriverContext
from repro.verbs.connection import rc_connect

#: ConnectX-6 profile: the paper measured ~17 ms (vs 15.7 ms on CX4) for
#: creating+connecting a QP; scale every NIC-configuration cost by that
#: ratio (the breakdown stays hardware-setup-dominated).
_CX6_SCALE = 17.0 / 15.7
CONNECTX6 = {
    "DRIVER_INIT_NS": int(timing.DRIVER_INIT_NS * _CX6_SCALE),
    "CREATE_QP_NS": int(timing.CREATE_QP_NS * _CX6_SCALE),
    "CREATE_QP_HW_NS": int(timing.CREATE_QP_HW_NS * _CX6_SCALE),
    "CREATE_CQ_NS": int(timing.CREATE_CQ_NS * _CX6_SCALE),
    "CREATE_CQ_HW_NS": int(timing.CREATE_CQ_HW_NS * _CX6_SCALE),
    "MODIFY_RTR_NS": int(timing.MODIFY_RTR_NS * _CX6_SCALE),
    "MODIFY_RTS_NS": int(timing.MODIFY_RTS_NS * _CX6_SCALE),
    "HANDSHAKE_NS": int(timing.HANDSHAKE_NS * _CX6_SCALE),
}


def run(fast=True):
    result = FigureResult("§6", "discussion claims: other RNICs; kernel-space trade-off")

    table = result.table(
        "control path across RNIC generations",
        ["RNIC", "verbs first connection (ms)", "KRCORE qconnect (us)"],
    )
    cx4 = _control_paths()
    with hardware_profile(**CONNECTX6):
        cx6 = _control_paths()
    table.add_row("ConnectX-4 (testbed)", cx4[0], cx4[1])
    table.add_row("ConnectX-6 profile", cx6[0], cx6[1])
    result.metrics["cx4"] = cx4
    result.metrics["cx6"] = cx6

    # Break-even: requests per connection before KRCORE's slower data
    # path eats its control-path saving.
    verbs_conn_us = cx4[0] * 1000
    krcore_conn_us = cx4[1]
    verbs_op_us = run_onesided("verbs", "sync", num_clients=1).avg_latency_us
    krcore_op_us = run_onesided("krcore_dc", "sync", num_clients=1).avg_latency_us
    crossover = (verbs_conn_us - krcore_conn_us) / (krcore_op_us - verbs_op_us)
    tradeoff = result.table(
        "end-to-end worker time: connect + k x 8B READ",
        ["requests k", "verbs (us)", "KRCORE (us)", "KRCORE wins"],
    )
    for k in (1, 10, 100, 1_000, 10_000, int(crossover), 100_000):
        verbs_total = verbs_conn_us + k * verbs_op_us
        krcore_total = krcore_conn_us + k * krcore_op_us
        tradeoff.add_row(k, verbs_total, krcore_total, str(krcore_total < verbs_total))
    result.metrics["crossover_requests"] = crossover
    result.metrics["ops"] = (verbs_op_us, krcore_op_us)
    return result


def _control_paths():
    """(verbs first-connection ms, KRCORE uncached qconnect us), measured."""
    sim, cluster = verbs_cluster(num_nodes=2)

    def verbs_proc():
        ctx = DriverContext(cluster.node(0))
        yield from ctx.ensure_init()
        cq = yield from ctx.create_cq()
        yield from rc_connect(ctx, cq, cluster.node(1).gid)
        return sim.now

    verbs_ms = sim.run_process(verbs_proc()) / 1e6

    sim_k, cluster_k, meta, modules = krcore_cluster(num_nodes=3, background_rc=False)
    lib = KrcoreLib(cluster_k.node(1))

    def krcore_proc():
        vqp = yield from lib.create_vqp()
        start = sim_k.now
        yield from lib.qconnect(vqp, cluster_k.node(2).gid)
        return sim_k.now - start

    krcore_us = sim_k.run_process(krcore_proc()) / 1e3
    return verbs_ms, krcore_us
