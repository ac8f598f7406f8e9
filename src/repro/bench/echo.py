"""Shared driver for two-sided echo microbenchmarks (Figs 9b, 11).

Clients send a payload to one server; the server (24 worker threads,
like the testbed's cores) echoes it back.  Over verbs the handler runs in
user space; over KRCORE the receive path crosses the kernel (qpop), which
is the throughput gap of Fig 11b.
"""

from repro.bench.harness import SteadyRate
from repro.bench.setups import krcore_cluster, spread_clients, verbs_cluster
from repro.cluster import timing
from repro.krcore import KrcoreLib
from repro.sim import LatencyRecorder, US
from repro.verbs import (
    CompletionQueue,
    DriverContext,
    RecvBuffer,
    WorkRequest,
    wire_rc_pair,
)
from repro.verbs.types import QPT_RC

WARMUP_NS = 40 * US
MEASURE_NS = 200 * US


class EchoResult:
    def __init__(self, recorder, steady):
        self.recorder = recorder
        self.steady = steady

    @property
    def throughput_mps(self):
        return self.steady.per_s() / 1e6

    @property
    def avg_latency_us(self):
        return self.recorder.mean() / 1000.0


def run_echo(
    system,
    mode,
    num_clients=1,
    payload=8,
    window=8,
    warmup_ns=WARMUP_NS,
    measure_ns=MEASURE_NS,
    kernel_buf_bytes=None,
    zero_copy=True,
    zero_copy_threshold=None,
):
    """One echo configuration; system is "verbs" or "krcore".

    ``mode`` "sync": one message in flight per client (latency focus);
    "async": ``window`` messages pipelined per client (throughput focus).
    """
    if system == "verbs":
        env = _VerbsEcho(payload, num_clients)
    elif system == "krcore":
        kwargs = {"zero_copy": zero_copy}
        if kernel_buf_bytes is not None:
            kwargs["kernel_buf_bytes"] = kernel_buf_bytes
            kwargs["kernel_buf_count"] = max(64, (4 << 20) // kernel_buf_bytes)
        if zero_copy_threshold is not None:
            kwargs["zero_copy_threshold"] = zero_copy_threshold
        env = _KrcoreEcho(payload, num_clients, kwargs)
    else:
        raise ValueError(f"unknown system {system!r}")
    stop_at = warmup_ns + measure_ns
    recorder = LatencyRecorder()
    steady = SteadyRate()
    env.start_server()
    for index in range(num_clients):
        env.sim.process(
            _echo_client(env, index, mode, window, steady, recorder, warmup_ns, stop_at),
            name=f"echo-client{index}",
        )
    env.sim.run(until=stop_at)
    return EchoResult(recorder, steady)


def _echo_client(env, index, mode, window, steady, recorder, warmup_ns, stop_at):
    client = yield from env.make_client(index)
    pipelined = 1 if mode == "sync" else window
    while env.sim.now < stop_at:
        start = env.sim.now
        yield from client.echo(pipelined)
        now = env.sim.now
        if now <= warmup_ns:
            continue
        if mode == "sync":
            recorder.record(now - start)
        steady.add(index, now, pipelined)


# ---------------------------------------------------------------------------
# verbs echo
# ---------------------------------------------------------------------------


class _VerbsEcho:
    def __init__(self, payload, num_clients):
        self.sim, self.cluster = verbs_cluster(
            memory_size=max(32 << 20, payload * (num_clients + 8) * 8)
        )
        self.payload = payload
        self.server = self.cluster.nodes[0]
        self.client_nodes = self.cluster.nodes[1:]
        self.placements = spread_clients(num_clients, self.client_nodes)
        self._pairs = []  # (client_qp, server_qp, client bufs, server bufs)

    def start_server(self):
        # Echo workers are spawned per connection in make_client; the
        # server CPU is the shared 24-core resource of the node.
        pass

    def make_client(self, index):
        node, _cpu = self.placements[index]
        payload = self.payload
        sim = self.sim
        server = self.server
        ctx_c = DriverContext(node, kernel=True)
        ctx_s = DriverContext(server, kernel=True)
        cq_c = CompletionQueue(sim)
        cq_s = CompletionQueue(sim)
        qp_c = ctx_c.create_qp_fast(QPT_RC, cq_c, recv_cq=cq_c)
        qp_s = ctx_s.create_qp_fast(QPT_RC, cq_s, recv_cq=cq_s)
        wire_rc_pair(qp_c, qp_s)
        caddr = node.memory.alloc(payload * 16)
        cmr = node.memory.register(caddr, payload * 16)
        saddr = server.memory.alloc(payload * 16)
        smr = server.memory.register(saddr, payload * 16)
        for i in range(8):
            qp_s.post_recv(RecvBuffer(saddr + i * payload, payload, smr.lkey, wr_id=i))
            qp_c.post_recv(RecvBuffer(caddr + i * payload, payload, cmr.lkey, wr_id=i))
        sim.process(self._server_worker(qp_s, saddr, smr, payload), name="echo-srv")
        client = _VerbsEchoClient(self, qp_c, caddr, cmr, payload)
        yield 0
        return client

    def _server_worker(self, qp_s, saddr, smr, payload):
        """Per-connection echo loop charging the shared server CPU."""
        cpu = self.server.cpu
        while True:
            completions = yield from qp_s.recv_cq.wait_poll(16)
            recvs = [c for c in completions if c.opcode.name == "RECV"]
            for completion in recvs:
                yield from cpu.serve(timing.TWO_SIDED_SERVER_CPU_NS)
                slot = completion.wr_id
                qp_s.post_send(
                    WorkRequest.send(saddr + slot * payload, payload, smr.lkey)
                )
                qp_s.post_recv(
                    RecvBuffer(saddr + slot * payload, payload, smr.lkey, wr_id=slot)
                )


class _VerbsEchoClient:
    def __init__(self, env, qp, addr, mr, payload):
        self.env = env
        self.qp = qp
        self.addr = addr
        self.mr = mr
        self.payload = payload

    def echo(self, pipelined):
        """Process: send ``pipelined`` messages, collect all the replies."""
        qp = self.qp
        for i in range(min(pipelined, 8)):
            yield timing.POST_SEND_CPU_NS
            # Signaled so the slot is reclaimed when the CQE is polled
            # (both CQE kinds share the QP's one CQ and the recv loop
            # drains them all).
            qp.post_send(
                WorkRequest.send(
                    self.addr + i * self.payload, self.payload, self.mr.lkey
                )
            )
        replies = 0
        wanted = min(pipelined, 8)
        while replies < wanted:
            completions = yield from qp.recv_cq.wait_poll(wanted)
            recvs = [c for c in completions if c.opcode.name == "RECV"]
            for completion in recvs:
                qp.post_recv(
                    RecvBuffer(
                        self.addr + completion.wr_id * self.payload,
                        self.payload,
                        self.mr.lkey,
                        wr_id=completion.wr_id,
                    )
                )
            replies += len(recvs)
        yield timing.POLL_CQ_CPU_NS


# ---------------------------------------------------------------------------
# KRCORE echo
# ---------------------------------------------------------------------------

_ECHO_PORT = 42


class _KrcoreEcho:
    def __init__(self, payload, num_clients, module_kwargs):
        self.sim, self.cluster, self.meta, self.modules = krcore_cluster(
            memory_size=max(32 << 20, payload * (num_clients + 8) * 8),
            **module_kwargs,
        )
        self.payload = payload
        self.server = self.cluster.nodes[1]
        self.server_module = self.modules[1]
        self.client_nodes = self.cluster.nodes[2:]
        self.placements = spread_clients(num_clients, self.client_nodes)
        self.num_clients = num_clients

    def start_server(self):
        self.sim.process(self._server_setup(), name="krcore-echo-srv")

    def _server_setup(self):
        """Bind one VQP and spawn one worker per core, all qpop-ing it --
        "the server utilizes all cores (24 threads)" (§5.2)."""
        lib = KrcoreLib(self.server)
        payload = self.payload
        vqp = yield from lib.create_vqp()
        yield from lib.qbind(vqp, _ECHO_PORT)
        depth = max(64, self.num_clients * 16)
        addr = self.server.memory.alloc(payload * depth)
        mr = yield from lib.reg_mr(addr, payload * depth)
        bufs = {}
        for i in range(depth):
            buf = RecvBuffer(addr + i * payload, payload, mr.lkey, wr_id=i)
            bufs[i] = buf
            vqp.post_recv(buf)
        for worker in range(self.server.cores):
            worker_lib = KrcoreLib(self.server, cpu_id=worker)
            self.sim.process(
                self._server_worker(worker_lib, vqp, bufs), name=f"krcore-echo-w{worker}"
            )

    def _server_worker(self, lib, vqp, bufs):
        """One server thread (pinned to its own CPU + hybrid pool): each
        loop is one blocking ioctl that posts the previous replies and
        pops the next messages."""
        # The calibrated 567 ns/message verbs handler cost includes WQE
        # posting; on KRCORE the kernel charges posting itself (Algorithm 2
        # checks + doorbell), so the user-space handler is what remains.
        handler_ns = (
            timing.TWO_SIDED_SERVER_CPU_NS
            - timing.VIRTUALIZATION_CHECK_NS
            - timing.POST_SEND_CPU_NS
        )
        replies = []
        while True:
            results = yield from lib.post_and_qpop(vqp, replies)
            replies = []
            for src_vqp, completion in results:
                yield handler_ns  # this worker's core
                buf = bufs[completion.wr_id]
                replies.append(
                    (
                        src_vqp,
                        [
                            WorkRequest.send(
                                buf.addr, completion.byte_len, buf.lkey, signaled=False
                            )
                        ],
                    )
                )
                vqp.post_recv(buf)

    def make_client(self, index):
        node, cpu_id = self.placements[index]
        payload = self.payload
        lib = KrcoreLib(node, cpu_id=cpu_id)
        addr = node.memory.alloc(payload * 16)
        mr = yield from lib.reg_mr(addr, payload * 16)
        vqp = yield from lib.create_vqp()
        yield from lib.qconnect(vqp, self.server.gid, _ECHO_PORT)
        for i in range(8):
            vqp.post_recv(RecvBuffer(addr + i * payload, payload, mr.lkey, wr_id=i))
        return _KrcoreEchoClient(self, lib, vqp, addr, mr, payload)


class _KrcoreEchoClient:
    def __init__(self, env, lib, vqp, addr, mr, payload):
        self.env = env
        self.lib = lib
        self.vqp = vqp
        self.addr = addr
        self.mr = mr
        self.payload = payload

    def echo(self, pipelined):
        """Process: one blocking ioctl sends the batch and waits replies."""
        wanted = min(pipelined, 8)
        wrs = [
            WorkRequest.send(
                self.addr + i * self.payload, self.payload, self.mr.lkey, signaled=False
            )
            for i in range(wanted)
        ]
        lib, vqp = self.lib, self.vqp
        yield from lib.enter_kernel()
        yield from vqp.post_send(wrs)
        for _ in range(wanted):
            completion = yield from vqp.wait_recv_completion()
            vqp.post_recv(
                RecvBuffer(
                    self.addr + completion.wr_id * self.payload,
                    self.payload,
                    self.mr.lkey,
                    wr_id=completion.wr_id,
                )
            )
