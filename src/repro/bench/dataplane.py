"""Data-plane throughput modes: doorbell batching x CQ polling model.

The low-level data-plane playbook KRCORE keeps and kernel-mediated
designs like LITE lose (§4.3): chain N work requests behind one doorbell
-- the first WQE pays the full issue cost, every successor a cheap
chained fetch -- and pick how the CPU discovers completions (busy spin
vs adaptive spin-then-arm-event).

Panel (a) sweeps the WR chain length under each polling mode for 8-byte
READs over one RC pair: throughput rises with the batch size (the
doorbell CPU cost and the NIC issue cost are both amortized across the
chain), and busy polling beats adaptive at small messages -- the ~2 us
READ round trip outlives the 1 us adaptive spin budget, so every
adaptive wait tacks on the ``ibv_req_notify_cq`` rearm plus the event
wake latency.  Panel (b) shows the bill for that speed: the CPU burned
spinning, per completed op, accounted on the CQ
(``cq.stats_spin_ns``) -- busy mode's dedicated core burns the
whole wait; adaptive caps the burn at its spin budget; the legacy event
mode burns nothing (and is the default everywhere else).
"""

from repro.bench.harness import FigureResult
from repro.cluster import Cluster, timing
from repro.sim import Simulator, US
from repro.verbs import CompletionQueue, DriverContext, WorkRequest, wire_rc_pair
from repro.verbs.types import QPT_RC

#: 8-byte payloads: the small-message regime where polling mode dominates.
MSG_BYTES = 8

BATCH_SIZES = [1, 2, 4, 8, 16, 32]
POLL_MODES = ["event", "busy", "adaptive"]


def run(fast=True):
    result = FigureResult(
        "Data-plane modes",
        "doorbell-batch throughput and CQ-polling CPU cost (8B READ, one RC pair)",
    )
    tput = result.table(
        "(a) throughput vs batch size x poll mode",
        ["mode", "batch", "ops", "throughput (Mops/s)", "latency/op (ns)"],
    )
    cost = result.table(
        "(b) polling CPU cost",
        ["mode", "batch", "spin ns/op", "rearms", "wakes", "rnic cq busy (us)"],
    )
    points = {}
    for mode in POLL_MODES:
        for batch in BATCH_SIZES:
            ops, mops, ns_per_op, spin_per_op, rearms, wakes, busy_us = _sweep(
                mode, batch, fast
            )
            tput.add_row(mode, batch, ops, mops, ns_per_op)
            cost.add_row(mode, batch, spin_per_op, rearms, wakes, busy_us)
            points[f"{mode}/{batch}"] = {"mops": mops, "spin_ns_per_op": spin_per_op}
    result.metrics["dataplane"] = points
    return result


def _sweep(mode, batch, fast):
    """One (poll mode, batch size) point; returns the row values."""
    sim = Simulator()
    cluster = Cluster(sim, num_nodes=2, cores=4)
    node_a, node_b = cluster.node(0), cluster.node(1)
    cq = CompletionQueue(sim, poll_mode=mode)
    ctx_a = DriverContext(node_a, kernel=True)
    ctx_b = DriverContext(node_b, kernel=True)
    qp_a = ctx_a.create_qp_fast(QPT_RC, cq, sq_depth=max(64, 2 * batch))
    qp_b = ctx_b.create_qp_fast(QPT_RC, CompletionQueue(sim))
    wire_rc_pair(qp_a, qp_b)
    scratch = node_a.memory.alloc(MSG_BYTES)
    remote = node_b.memory.alloc(MSG_BYTES)
    lregion = node_a.memory.register(scratch, MSG_BYTES)
    rregion = node_b.memory.register(remote, MSG_BYTES)
    window_ns = (150 if fast else 1000) * US
    done = {"ops": 0}

    def client():
        while sim.now < window_ns:
            # Build the chain (first WQE full cost, successors chained),
            # signal only the tail: polling its completion reclaims the
            # whole chain's slots (Algorithm 2's covers accounting).
            wrs = [
                WorkRequest.read(
                    scratch, MSG_BYTES, lregion.lkey, remote, rregion.rkey,
                    signaled=(index == batch - 1),
                )
                for index in range(batch)
            ]
            yield timing.doorbell_batch_cpu_ns(batch)
            qp_a.post_send_batch(wrs)
            covered = 0
            while covered < batch:
                completions = yield from cq.wait_poll(batch)
                yield timing.POLL_CQ_CPU_NS
                for wc in completions:
                    covered += wc.covers
            done["ops"] += batch

    sim.process(client(), name=f"dataplane-{mode}-{batch}")
    sim.run(until=window_ns)
    ops = done["ops"]
    seconds = window_ns / 1e9
    mops = ops / seconds / 1e6
    ns_per_op = window_ns / ops if ops else 0.0
    spin_per_op = cq.stats_spin_ns / ops if ops else 0.0
    busy_us = cq.stats_spin_ns / 1000.0
    return ops, mops, ns_per_op, spin_per_op, cq.stats_rearms, cq.stats_wakes, busy_us
