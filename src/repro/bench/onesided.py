"""Shared driver for one-sided microbenchmarks (Figs 10, 13, 14b, 15b).

Clients spread over up to nine nodes issue 8B (or larger) READ/WRITE to
one or more server nodes, in **sync** (run-to-completion) or **async**
(pipelined batches) mode, over one of four stacks: user-space verbs,
KRCORE backed by RC or DC, or LITE.
"""

import random

from repro.bench.setups import (
    krcore_cluster,
    lite_cluster,
    plant_rc,
    spread_clients,
    verbs_cluster,
)
from repro.cluster import timing
from repro.krcore import KrcoreLib
from repro.sim import LatencyRecorder, US
from repro.verbs import CompletionQueue, DriverContext, WorkRequest, wire_rc_pair
from repro.verbs.types import QPT_RC

#: Default measurement windows (ns).
WARMUP_NS = 30 * US
MEASURE_NS = 150 * US

#: Seed of the client target sequence (``target="random"``).
SEED = 1234


class OneSidedResult:
    """Throughput + latency of one configuration.

    Throughput counts the ops the server RNICs served inside the measured
    window -- immune to the in-flight-at-warmup bias of counting client
    completions.
    """

    def __init__(self, recorder, measure_ns, served):
        self.recorder = recorder
        self.measure_ns = measure_ns
        #: Ops served by the server RNICs inside the window (unbiased).
        self.served = served

    @property
    def throughput_mps(self):
        return self.served / (self.measure_ns / 1e9) / 1e6

    @property
    def avg_latency_us(self):
        return self.recorder.mean() / 1000.0

    def p(self, fraction):
        return self.recorder.p(fraction) / 1000.0


def run_onesided(
    system,
    mode,
    opcode="read",
    num_clients=1,
    payload=8,
    servers=1,
    target="fixed",
    batch=32,
    measure_ns=MEASURE_NS,
    memory_size=16 << 20,
    single_node=False,
):
    """Run one configuration and return a :class:`OneSidedResult`.

    ``system``: "verbs" | "krcore_rc" | "krcore_dc" | "lite".
    ``mode``:   "sync" | "async".
    ``target``: "fixed" (all clients hit server 0) or "random" (a random
    server per request -- the Fig 14b fan-out).
    ``single_node``: place every client (thread) on one machine, like the
    Fig 15b "one node to others" setup.
    """
    env = _Environment(system, servers, memory_size)
    rng = random.Random(SEED)
    stop_at = WARMUP_NS + measure_ns
    recorder = LatencyRecorder()
    if single_node:
        node = env.client_nodes[0]
        placements = [(node, index % node.cores) for index in range(num_clients)]
    else:
        placements = spread_clients(num_clients, env.client_nodes)
    for index, (node, cpu_id) in enumerate(placements):
        issue = env.make_issuer(node, cpu_id, opcode, payload)
        if mode == "sync":
            proc = _client_loop(env, issue, target, rng, 1, stop_at, recorder)
        elif mode == "async":
            proc = _client_loop(env, issue, target, rng, batch, stop_at, None)
        else:
            raise ValueError(f"unknown mode {mode!r}")
        env.sim.process(proc, name=f"client{index}")
    # Snapshot the server RNIC counters exactly at the warmup boundary so
    # throughput is counted where it is served (no in-flight bias), and
    # again one nanosecond past the window: ``stats_inbound_ops`` counts ops
    # served *before* the instant it is read at, and one served exactly
    # at stop_at is inside.
    counts = []

    def snapshot():
        counts.append(sum(server.rnic.stats_inbound_ops for server in env.server_nodes))

    env.sim.schedule(WARMUP_NS, snapshot)
    env.sim.schedule(stop_at + 1, snapshot)
    env.sim.run(until=stop_at + 1)
    served = counts[1] - counts[0]
    return OneSidedResult(recorder, measure_ns, served)


def _client_loop(env, issue, target, rng, batch, stop_at, recorder):
    sync = recorder is not None
    while env.sim.now < stop_at:
        server_index = 0 if target == "fixed" else rng.randrange(env.num_servers)
        start = env.sim.now
        yield from issue(server_index, sync=sync, batch=batch)
        # Ops *begun* during warmup (incl. setup) don't count, nor does one
        # completing in the nanosecond the run overshoots by.
        if sync and WARMUP_NS < start and env.sim.now <= stop_at:
            recorder.record(env.sim.now - start)


class _Environment:
    """Builds the right cluster + per-client issue closures per system."""

    def __init__(self, system, num_servers, memory_size):
        self.system = system
        self.num_servers = num_servers
        if system == "verbs":
            self.sim, cluster = verbs_cluster(memory_size=memory_size)
            self.server_nodes = cluster.nodes[:num_servers]
            self.client_nodes = cluster.nodes[num_servers:]
            self.modules = None
        elif system in ("krcore_rc", "krcore_dc"):
            # The pool composition is part of the experiment: no background
            # RC creation racing the measurement window.
            self.sim, cluster, meta, modules = krcore_cluster(
                memory_size=memory_size, background_rc=False
            )
            self.server_nodes = cluster.nodes[1 : 1 + num_servers]
            self.client_nodes = cluster.nodes[1 + num_servers :]
            self.modules = {node.gid: module for node, module in zip(cluster.nodes, modules)}
        elif system == "lite":
            self.sim, cluster, modules = lite_cluster(memory_size=memory_size)
            self.server_nodes = cluster.nodes[:num_servers]
            self.client_nodes = cluster.nodes[num_servers:]
            self.modules = {node.gid: module for node, module in zip(cluster.nodes, modules)}
        else:
            raise ValueError(f"unknown system {system!r}")
        self.remote_regions = []
        for server in self.server_nodes:
            size = max(1 << 20, memory_size // 4)
            addr = server.memory.alloc(size)
            if system in ("krcore_rc", "krcore_dc"):
                region = self.modules[server.gid].boot_mr(addr, size)
            else:
                region = server.memory.register(addr, size)
            self.remote_regions.append((addr, region))

    def make_issuer(self, node, cpu_id, opcode, payload):
        """Returns issue(server_index, sync, batch=...) -- a process."""
        local_size = max(64 * 1024, payload * 2)
        laddr = node.memory.alloc(local_size)
        if self.system == "verbs":
            region = node.memory.register(laddr, local_size)
            cq = CompletionQueue(self.sim)
            context = DriverContext(node, kernel=True)
            qps = []
            for server in self.server_nodes:
                qp = context.create_qp_fast(QPT_RC, cq, recv_cq=cq)
                peer = DriverContext(server, kernel=True).create_qp_fast(
                    QPT_RC, CompletionQueue(self.sim)
                )
                wire_rc_pair(qp, peer)
                qps.append(qp)
            return self._verbs_issuer(qps, laddr, region.lkey, opcode, payload)
        if self.system == "lite":
            region = node.memory.register(laddr, local_size)
            module = self.modules[node.gid]
            for server in self.server_nodes:
                module.prewarm(self.modules[server.gid])
            return self._lite_issuer(module, laddr, region.lkey, opcode, payload)
        # KRCORE
        module = self.modules[node.gid]
        region = module.boot_mr(laddr, local_size)
        if self.system == "krcore_rc":
            for server in self.server_nodes:
                if not module.pool(cpu_id).has_rc(server.gid):
                    plant_rc(module, self.modules[server.gid], cpu_id=cpu_id)
        lib = KrcoreLib(node, cpu_id=cpu_id)
        # Connection happens lazily inside the client's own process (first
        # issue) so client setups never serialize against each other.
        return self._krcore_issuer(lib, [], laddr, region.lkey, opcode, payload)

    # -- per-system issuers ------------------------------------------------------

    def _wr(self, opcode, laddr, lkey, server_index, payload, signaled=True):
        raddr, region = self.remote_regions[server_index]
        factory = WorkRequest.read if opcode == "read" else WorkRequest.write
        return factory(laddr, payload, lkey, raddr, region.rkey, signaled=signaled)

    def _verbs_issuer(self, qps, laddr, lkey, opcode, payload):
        def issue(server_index, sync, batch=1):
            qp = qps[server_index]
            if sync:
                yield timing.POST_SEND_CPU_NS
                qp.post_send(self._wr(opcode, laddr, lkey, server_index, payload))
                yield from qp.send_cq.wait_poll()
                yield timing.POLL_CQ_CPU_NS
                return
            wrs = [
                self._wr(opcode, laddr, lkey, server_index, payload, signaled=(i == batch - 1))
                for i in range(batch)
            ]
            yield timing.POST_SEND_CPU_NS
            qp.post_send(wrs)
            while True:
                completions = yield from qp.send_cq.wait_poll(batch)
                if completions:
                    break
            yield timing.POLL_CQ_CPU_NS

        return issue

    def _lite_issuer(self, module, laddr, lkey, opcode, payload):
        def issue(server_index, sync, batch=1):
            raddr, region = self.remote_regions[server_index]
            gid = self.server_nodes[server_index].gid
            op = module.read if opcode == "read" else module.write
            if sync:
                yield from op(gid, laddr, lkey, raddr, region.rkey, payload)
                return
            # LITE async: forward a window straight to the shared QP.
            yield timing.SYSCALL_NS
            wrs = [
                self._wr(opcode, laddr, lkey, server_index, payload, signaled=(i == batch - 1))
                for i in range(batch)
            ]
            qp = module.post_async(gid, wrs)
            while True:
                completions = yield from qp.send_cq.wait_poll(batch)
                if completions:
                    break

        return issue

    def _krcore_issuer(self, lib, vqps, laddr, lkey, opcode, payload):
        def issue(server_index, sync, batch=1):
            if not vqps:
                for index, server in enumerate(self.server_nodes):
                    vqp = yield from lib.create_vqp()
                    yield from lib.qconnect(vqp, server.gid)
                    vqps.append(vqp)
                    # Warm the MRStore for this server (setup, like the
                    # paper's measured windows with caches warm).
                    raddr, region = self.remote_regions[index]
                    yield from lib.read_sync(vqp, laddr, lkey, raddr, region.rkey, 8)
            vqp = vqps[server_index]
            if sync:
                if opcode == "read":
                    raddr, region = self.remote_regions[server_index]
                    yield from lib.read_sync(vqp, laddr, lkey, raddr, region.rkey, payload)
                else:
                    raddr, region = self.remote_regions[server_index]
                    yield from lib.write_sync(vqp, laddr, lkey, raddr, region.rkey, payload)
                return
            wrs = [
                self._wr(opcode, laddr, lkey, server_index, payload, signaled=(i == batch - 1))
                for i in range(batch)
            ]
            yield from lib.post_send_and_wait(vqp, wrs)

        return issue
