"""Fig 12: (a) data-path factor analysis; (b) serverless data transfer.

(a) where KRCORE's sync 8B READ overhead comes from: the DC transport is
    nearly free, the syscall adds ~1 us, the Algorithm-2 checks <0.5 us,
    and an MRStore miss adds ~4.5 us (one ValidMR lookup).
(b) ServerlessBench TestCase5: the message-passing time between two
    functions, verbs vs KRCORE (a ~99% reduction).
"""

from repro.apps.serverless import run_transfer_testcase
from repro.bench.harness import FigureResult, hardware_profile
from repro.bench.onesided import run_onesided
from repro.bench.setups import krcore_cluster, verbs_cluster
from repro.krcore import KrcoreLib
from repro.sim import US


def run(fast=True):
    result = FigureResult("Fig 12", "factor analysis and serverless transfer")
    table = result.table(
        "(a) sync 8B READ factor analysis",
        ["configuration", "latency (us)", "delta (us)"],
    )
    factors = _factor_analysis(fast)
    previous = None
    for name, value in factors:
        table.add_row(name, value, 0.0 if previous is None else value - previous)
        previous = value
    result.metrics["factors"] = dict(factors)

    payloads = [1024, 4096, 9216] if fast else [1024, 2048, 4096, 6144, 8192, 9216]
    transfer_table = result.table(
        "(b) serverless data transfer (TestCase5)",
        ["payload (B)", "verbs (ms)", "KRCORE (ms)", "reduction (%)"],
    )
    transfers = {}
    for payload in payloads:
        verbs_ms = _transfer("verbs", payload)
        krcore_ms = _transfer("krcore", payload)
        reduction = 100.0 * (1 - krcore_ms / verbs_ms)
        transfer_table.add_row(payload, verbs_ms, krcore_ms, reduction)
        transfers[payload] = (verbs_ms, krcore_ms, reduction)
    result.metrics["transfers"] = transfers
    return result


def _factor_analysis(fast):
    measure = (100 if fast else 300) * US
    base = run_onesided("verbs", "sync", num_clients=1, measure_ns=measure).avg_latency_us
    rows = [("verbs (base)", base)]
    # +DCQP: KRCORE over DC with neither the syscall nor the checks charged.
    with hardware_profile(SYSCALL_NS=0, VIRTUALIZATION_CHECK_NS=0):
        rows.append(("+DCQP", _krcore_point(measure)))
    # +System call.
    with hardware_profile(VIRTUALIZATION_CHECK_NS=0):
        rows.append(("+System call", _krcore_point(measure)))
    # +Checks: the full warm KRCORE path.
    rows.append(("+Checks", _krcore_point(measure)))
    # +MR miss: one cold op (first touch of the remote MR).
    rows.append(("+MR miss", _mr_miss_point()))
    return rows


def _krcore_point(measure):
    return run_onesided("krcore_dc", "sync", num_clients=1, measure_ns=measure).avg_latency_us


def _mr_miss_point():
    """Latency of a single READ whose remote MR is not yet in MRStore."""
    sim, cluster, _, modules = krcore_cluster(background_rc=False)
    server = cluster.nodes[1]
    addr = server.memory.alloc(4096)
    region = modules[1].boot_mr(addr, 4096)
    node = cluster.nodes[2]
    laddr = node.memory.alloc(4096)
    lmr = node.memory.register(laddr, 4096)
    modules[2].valid_mr.record(lmr)
    lib = KrcoreLib(node)

    def proc():
        vqp = yield from lib.create_vqp()
        yield from lib.qconnect(vqp, server.gid)
        start = sim.now
        yield from lib.read_sync(vqp, laddr, lmr.lkey, addr, region.rkey, 8)
        return (sim.now - start) / 1000.0

    return sim.run_process(proc())


def _transfer(backend, payload):
    if backend == "verbs":
        sim, cluster = verbs_cluster(num_nodes=3)
        sender, receiver = cluster.node(0), cluster.node(1)
    else:
        sim, cluster, meta, modules = krcore_cluster(num_nodes=3)
        sender, receiver = cluster.node(1), cluster.node(2)

    def proc():
        result = yield from run_transfer_testcase(sim, sender, receiver, payload, backend)
        return result

    outcome = sim.run_process(proc())
    return outcome.transfer_ns / 1e6
