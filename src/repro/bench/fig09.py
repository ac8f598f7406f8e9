"""Fig 9: (a) meta-server vs RPC metadata queries; (b) zero-copy protocol.

(a) the RDMA-based meta server (2 one-sided READs, CPU-bypassing) vs a
    FaSST-style RPC over UD handled by one kernel thread: the meta server
    wins ~11.8x on throughput and up to 13x on latency under load.
(b) two-sided echo latency vs payload: the copy path hurts above 16 KB;
    the zero-copy protocol (§4.5) removes most of the overhead.
"""

from repro.bench.echo import run_echo
from repro.bench.harness import FigureResult, SteadyRate
from repro.bench.setups import krcore_cluster, spread_clients
from repro.cluster import timing
from repro.sim import LatencyRecorder, US
from repro.verbs import CompletionQueue, DriverContext, RecvBuffer, WorkRequest
from repro.verbs.types import QPT_UD


def run(fast=True):
    result = FigureResult("Fig 9", "meta-server benefit and zero-copy protocol")
    clients_list = [1, 8, 40] if fast else [1, 8, 40, 120, 240]
    table = result.table(
        "(a) DCT metadata query methods",
        ["method", "clients", "latency (us)", "throughput (M/s)"],
    )
    meta_points = {}
    rpc_points = {}
    for clients in clients_list:
        lat, thpt = _meta_query(clients, fast)
        table.add_row("meta server (1-sided)", clients, lat, thpt)
        meta_points[clients] = (lat, thpt)
    for clients in clients_list:
        lat, thpt = _rpc_query(clients, fast)
        table.add_row("FaSST RPC (1 thread)", clients, lat, thpt)
        rpc_points[clients] = (lat, thpt)
    result.metrics["meta"] = meta_points
    result.metrics["rpc"] = rpc_points

    payloads = [64, 4096, 16384, 65536] if fast else [64, 1024, 4096, 16384, 32768, 65536]
    zc_table = result.table(
        "(b) two-sided echo latency vs payload",
        ["payload (B)", "verbs (us)", "KRCORE copy (us)", "KRCORE+opt zc (us)"],
    )
    zc = {}
    for payload in payloads:
        verbs_us = run_echo("verbs", "sync", payload=payload).avg_latency_us
        copy_us = run_echo(
            "krcore", "sync", payload=payload,
            kernel_buf_bytes=128 * 1024, zero_copy=False,
        ).avg_latency_us
        opt_us = run_echo(
            "krcore", "sync", payload=payload,
            kernel_buf_bytes=128 * 1024, zero_copy=True, zero_copy_threshold=16 * 1024 - 1,
        ).avg_latency_us
        zc_table.add_row(payload, verbs_us, copy_us, opt_us)
        zc[payload] = (verbs_us, copy_us, opt_us)
    result.metrics["zerocopy"] = zc
    return result


# ---------------------------------------------------------------------------
# (a) metadata query paths
# ---------------------------------------------------------------------------


def _meta_query(num_clients, fast):
    """DrTM-KV lookups against the meta server from many clients."""
    sim, cluster, meta, modules = krcore_cluster(background_rc=False)
    target_gid = cluster.nodes[1].gid
    placements = spread_clients(num_clients, cluster.nodes[2:])
    window_ns = (150 if fast else 500) * US
    warmup_ns = 30 * US
    recorder = LatencyRecorder()
    steady = SteadyRate()

    def client(index, node, cpu_id):
        module = node.services["krcore"]
        # One pre-connected meta client per CPU (the per-CPU RCQPs of
        # §4.2); cpu_id is the worker's local ordinal on its node.
        client_handle = module.meta_client(cpu_id)
        while sim.now < warmup_ns + window_ns:
            start = sim.now
            meta_value = yield from client_handle.lookup_dct(target_gid)
            assert meta_value is not None
            now = sim.now
            if now <= warmup_ns:
                continue
            recorder.record(now - start)
            steady.add(index, now)

    for index, (node, cpu_id) in enumerate(placements):
        sim.process(client(index, node, cpu_id))
    sim.run(until=warmup_ns + window_ns)
    return recorder.mean() / 1000.0, steady.per_s() / 1e6


def _rpc_query(num_clients, fast):
    """A FaSST-style UD RPC metadata service with one kernel thread."""
    sim, cluster, meta, modules = krcore_cluster(background_rc=False)
    server_node = cluster.nodes[0]
    placements = spread_clients(num_clients, cluster.nodes[2:])
    window_ns = (150 if fast else 500) * US
    warmup_ns = 30 * US
    recorder = LatencyRecorder()
    steady = SteadyRate()

    # Server: one UD QP + one handler thread.
    server_ctx = DriverContext(server_node, kernel=True)
    server_cq = CompletionQueue(sim)
    server_qp = server_ctx.create_qp_fast(QPT_UD, server_cq, recv_cq=server_cq)
    server_qp.to_init()
    server_qp.to_rtr()
    server_qp.to_rts()
    server_buf = server_node.memory.alloc(64 * 1024)
    server_mr = server_node.memory.register(server_buf, 64 * 1024)
    for i in range(max(64, num_clients * 4)):
        server_qp.post_recv(RecvBuffer(server_buf + (i % 512) * 64, 64, server_mr.lkey))

    def server_thread():
        while True:
            completions = yield from server_qp.recv_cq.wait_poll(16)
            for completion in completions:
                if completion.opcode.name != "RECV":
                    continue
                yield timing.RPC_HANDLER_CPU_NS  # the single kernel thread
                reply_to = completion.header["reply"]
                server_qp.post_send(
                    WorkRequest.send(
                        server_buf, 12, server_mr.lkey,
                        dct_gid=reply_to[0], dct_number=reply_to[1],
                        header={"rpc": "reply"}, signaled=True,
                    )
                )
                server_qp.post_recv(
                    RecvBuffer(server_buf + completion.wr_id % 512 * 64, 64, server_mr.lkey)
                )

    sim.process(server_thread(), name="rpc-server")

    def client(index, node):
        ctx = DriverContext(node, kernel=True)
        cq = CompletionQueue(sim)
        qp = ctx.create_qp_fast(QPT_UD, cq, recv_cq=cq)
        qp.to_init()
        qp.to_rtr()
        qp.to_rts()
        buf = node.memory.alloc(4096)
        mr = node.memory.register(buf, 4096)
        while sim.now < warmup_ns + window_ns:
            qp.post_recv(RecvBuffer(buf, 64, mr.lkey))
            start = sim.now
            yield timing.UD_SEND_NS
            qp.post_send(
                WorkRequest.send(
                    buf, 16, mr.lkey,
                    dct_gid=server_node.gid, dct_number=server_qp.qpn,
                    header={"rpc": "query", "reply": (node.gid, qp.qpn)},
                )
            )
            while True:
                completions = yield from qp.recv_cq.wait_poll(4)
                if any(c.opcode.name == "RECV" for c in completions):
                    break
            yield timing.UD_RECV_NS
            now = sim.now
            if now <= warmup_ns:
                continue
            recorder.record(now - start)
            steady.add(index, now)

    for index, (node, _cpu) in enumerate(placements):
        sim.process(client(index, node))
    sim.run(until=warmup_ns + window_ns)
    return recorder.mean() / 1000.0, steady.per_s() / 1e6
