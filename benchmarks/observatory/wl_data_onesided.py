"""data_onesided: 8 B one-sided READ and WRITE, the work-request path.

240 closed-loop clients on 8 nodes post doorbell windows of 16 WRs (last
one signaled) at 2 servers, the target drawn from the seed per window;
then 16 of them issue synchronous READs and WRITEs one at a time.  The
same op stream runs on user-space verbs, KRCORE over DC and KRCORE over
RC.  Connections, MR registration and MRStore warm-up are set-up; the
measured phase is the op stream alone, so the engine, ``verbs`` and
``cluster`` do nearly all the host work and the control path does not.

Every READ lands bytes of a seeded pattern that the client compares,
and every client's WRITE slot on each server must hold its last window
when the stream ends.
"""

import random

from repro.bench.setups import krcore_cluster, spread_clients, verbs_cluster
from repro.cluster import timing
from repro.krcore import KrcoreLib
from repro.verbs import CompletionQueue, WorkRequest

from shared import rc_pair, scaled

PRIMARY_OP = "sync 8 B READ on krcore_dc (us); async 8 B READ on krcore_dc (ops/s)"

SYSTEMS = ("verbs", "krcore_dc", "krcore_rc")
SERVERS = 2
CLIENT_NODES = 8
ASYNC_CLIENTS = 240
SYNC_CLIENTS = 16
BATCH = 16
WORD = 8
WINDOW_BYTES = BATCH * WORD
READ_AREA = 64 << 10
#: Sampling period of the servers' inbound-op counters (simulated ns).
SAMPLE_NS = 1000

#: Per client at scale 1.0: async windows per opcode, sync ops per opcode.
ASYNC_WINDOWS = 3
SYNC_OPS = 40

#: EXPERIMENTS.md, Fig 10: sync latency (us) and async peak per server (M/s).
PAPER_SYNC_READ_US = {"verbs": 2.15, "krcore_rc": 3.15, "krcore_dc": 3.24}
PAPER_ASYNC_MPS = {
    "read": {"verbs": 138.0, "krcore_rc": 138.0, "krcore_dc": 118.0},
    "write": {"verbs": 145.0, "krcore_rc": 145.0, "krcore_dc": 132.0},
}


def _steady_rate(served):
    """Ops/s the servers sustained over the middle half of a phase,
    where every client is posting: ``served`` is the sampler's list of
    (simulated ns, ops served so far)."""
    samples = served[1:]
    begin, end = samples[0][0], samples[-1][0]
    quarter = (end - begin) // 4
    inside = [s for s in samples if begin + quarter <= s[0] <= end - quarter]
    (t0, n0), (t1, n1) = inside[0], inside[-1]
    return (n1 - n0) * 1e9 / (t1 - t0)


class Pass:
    """One pass: three deployments, built and connected in set-up."""

    def __init__(self, seed, scale):
        self.seed = seed
        self.windows = scaled(ASYNC_WINDOWS, scale)
        self.sync_ops = scaled(SYNC_OPS, scale)
        self.systems = []

    def setup(self):
        for system in SYSTEMS:
            # The three systems replay the same seeded stream.
            deployment = _Deployment(system, self.seed, self.windows, self.sync_ops)
            deployment.connect()
            self.systems.append(deployment)

    def measure(self, tally):
        for deployment in self.systems:
            deployment.run_stream(tally)


class _Client:
    """One client's buffers, connections and seeded targets."""

    __slots__ = (
        "index", "node", "cpu_id", "read_addr", "write_addr", "lkey",
        "qps", "lib", "vqps", "targets", "sync_targets",
        "last_write",
    )


class _Deployment:
    def __init__(self, system, seed, windows, sync_ops):
        self.system = system
        krcore = system != "verbs"
        num_nodes = SERVERS + CLIENT_NODES + (1 if krcore else 0)
        if krcore:
            self.sim, self.cluster, _meta, modules = krcore_cluster(
                num_nodes=num_nodes, background_rc=False
            )
            first = 1
        else:
            self.sim, self.cluster = verbs_cluster(num_nodes=num_nodes)
            first = 0
        nodes = self.cluster.nodes
        self.servers = nodes[first : first + SERVERS]
        client_nodes = nodes[first + SERVERS :]

        # Server memory: a seeded pattern to READ, then one WRITE slot
        # per client.
        rng = random.Random(seed)
        self.pattern = [rng.randbytes(READ_AREA) for _ in self.servers]
        self.server_base = []
        self.server_rkey = [None] * SERVERS
        area = READ_AREA + ASYNC_CLIENTS * WINDOW_BYTES
        for server, pattern in zip(self.servers, self.pattern):
            base = server.memory.alloc(area)
            server.memory.write(base, pattern)
            self.server_base.append(base)
        if not krcore:
            for index, server in enumerate(self.servers):
                region = server.memory.register(self.server_base[index], area)
                self.server_rkey[index] = region.rkey
        self.area = area

        self.clients = []
        for index, (node, cpu_id) in enumerate(spread_clients(ASYNC_CLIENTS, client_nodes)):
            client = _Client()
            client.index = index
            client.node = node
            client.cpu_id = cpu_id
            client.read_addr = node.memory.alloc(2 * WINDOW_BYTES)
            client.write_addr = client.read_addr + WINDOW_BYTES
            client.lkey = None
            # Per opcode and window: (server, word offset into the pattern).
            client.targets = {
                opcode: [
                    (rng.randrange(SERVERS), rng.randrange(READ_AREA // WORD - BATCH))
                    for _ in range(windows)
                ]
                for opcode in ("read", "write")
            }
            client.sync_targets = [
                (rng.randrange(SERVERS), rng.randrange(READ_AREA // WORD))
                for _ in range(sync_ops)
            ]
            client.last_write = {}
            self.clients.append(client)

    # ---------------------------------------------------------------- set-up

    def connect(self):
        if self.system == "verbs":
            self._connect_verbs()
        else:
            self._connect_krcore()

    def _connect_verbs(self):
        for client in self.clients:
            node = client.node
            region = node.memory.register(client.read_addr, 2 * WINDOW_BYTES)
            client.lkey = region.lkey
            cq = CompletionQueue(self.sim)
            client.qps = [
                rc_pair(self.sim, node, server, cq)[0] for server in self.servers
            ]

    def _connect_krcore(self):
        sim = self.sim

        def register_server(index, server):
            lib = KrcoreLib(server)
            region = yield from lib.reg_mr(self.server_base[index], self.area)
            self.server_rkey[index] = region.rkey

        for index, server in enumerate(self.servers):
            sim.process(register_server(index, server))
        if self.system == "krcore_rc":
            # One kernel RCQP per (client CPU pool, server), through the
            # full handshake, before any VQP connects.
            pools = {}
            for client in self.clients:
                module = client.node.services["krcore"]
                pools[(client.node.gid, client.cpu_id)] = (module, module.pool(client.cpu_id))

            def establish(module, pool):
                for server in self.servers:
                    yield from module.establish_rc(server.gid, pool)

            for module, pool in pools.values():
                sim.process(establish(module, pool))
        sim.run()

        def connect(client):
            lib = client.lib = KrcoreLib(client.node, cpu_id=client.cpu_id)
            region = yield from lib.reg_mr(client.read_addr, 2 * WINDOW_BYTES)
            client.lkey = region.lkey
            client.vqps = []
            for index, server in enumerate(self.servers):
                vqp = yield from lib.create_vqp()
                yield from lib.qconnect(vqp, server.gid)
                client.vqps.append(vqp)
                # Warm the MRStore: measured windows run with caches warm.
                yield from lib.read_sync(
                    vqp, client.read_addr, client.lkey,
                    self.server_base[index], self.server_rkey[index], WORD,
                )

        for client in self.clients:
            sim.process(connect(client))
        sim.run()

    # -------------------------------------------------------- measured phase

    def run_stream(self, tally):
        sim = self.sim
        system = self.system
        began = sim.now
        for opcode in ("read", "write"):
            served = []
            sim.process(self._sample_served(served, [len(self.clients)]))
            for client in self.clients:
                sim.process(self._async_client(client, opcode, tally, served))
            sim.run()
            rate = _steady_rate(served)
            tally.notes[f"{system}.async_{opcode}_ops_per_s"] = rate
            tally.headline(
                f"{system}.async_{opcode}_mps_per_server",
                rate / SERVERS / 1e6,
                PAPER_ASYNC_MPS[opcode][system],
            )
            if system == "krcore_dc" and opcode == "read":
                tally.ops_per_s = rate
        samples = []
        for client in self.clients[:SYNC_CLIENTS]:
            sim.process(self._sync_client(client, samples, tally))
        sim.run()
        tally.notes[f"{system}.sync_read_ns"] = samples
        tally.headline(
            f"{system}.sync_read_us",
            sum(samples) / len(samples) / 1000.0,
            PAPER_SYNC_READ_US[system],
        )
        if system == "krcore_dc":
            tally.latencies_ns = samples
        self._check_writes(tally)
        tally.cluster_done(sim, self.cluster, began)

    def _wrs(self, client, opcode, server, word_offset, count):
        if opcode == "read":
            make, laddr, raddr = WorkRequest.read, client.read_addr, (
                self.server_base[server] + word_offset * WORD
            )
        else:
            make, laddr, raddr = WorkRequest.write, client.write_addr, (
                self.server_base[server] + READ_AREA + client.index * WINDOW_BYTES
            )
        rkey = self.server_rkey[server]
        return [
            make(
                laddr + i * WORD, WORD, client.lkey, raddr + i * WORD, rkey,
                signaled=(i == count - 1),
            )
            for i in range(count)
        ]

    def _post_and_wait(self, client, server, wrs):
        """Process: post one window and wait for its signaled completion;
        returns whether it completed without error."""
        if self.system == "verbs":
            qp = client.qps[server]
            yield timing.POST_SEND_CPU_NS
            qp.post_send(wrs)
            while True:
                completions = yield from qp.send_cq.wait_poll(len(wrs))
                if completions:
                    break
            yield timing.POLL_CQ_CPU_NS
            return completions[-1].ok
        entry = yield from client.lib.post_send_and_wait(client.vqps[server], wrs)
        return entry.ok

    def _sample_served(self, served, active):
        """Process: sample the servers' inbound-op counters every
        microsecond while ``active[0]`` clients are still posting."""
        served.append(active)
        while active[0]:
            served.append(
                (self.sim.now, sum(s.rnic.stats_inbound_ops for s in self.servers))
            )
            yield SAMPLE_NS

    def _async_client(self, client, opcode, tally, served):
        memory = client.node.memory
        for window, (server, word_offset) in enumerate(client.targets[opcode]):
            if opcode == "write":
                image = (client.index * 65536 + window).to_bytes(WORD, "big") * BATCH
                memory.write(client.write_addr, image)
            ok = yield from self._post_and_wait(
                client, server, self._wrs(client, opcode, server, word_offset, BATCH)
            )
            if opcode == "read":
                start = word_offset * WORD
                expected = self.pattern[server][start : start + WINDOW_BYTES]
                ok = ok and memory.read(client.read_addr, WINDOW_BYTES) == expected
            else:
                client.last_write[server] = image
            tally.op(ok, BATCH)
        served[0][0] -= 1

    def _sync_client(self, client, samples, tally):
        memory = client.node.memory
        sim = self.sim
        for server, word_offset in client.sync_targets:
            start = sim.now
            ok = yield from self._post_and_wait(
                client, server, self._wrs(client, "read", server, word_offset, 1)
            )
            samples.append(sim.now - start)
            at = word_offset * WORD
            tally.op(ok and memory.read(client.read_addr, WORD) == self.pattern[server][at : at + WORD])
        for op_index, (server, _offset) in enumerate(client.sync_targets):
            word = (client.index * 65536 + 32768 + op_index).to_bytes(WORD, "big")
            memory.write(client.write_addr, word)
            ok = yield from self._post_and_wait(
                client, server, self._wrs(client, "write", server, 0, 1)
            )
            previous = client.last_write.get(server, bytes(WINDOW_BYTES))
            client.last_write[server] = word + previous[WORD:]
            tally.op(ok)

    def _check_writes(self, tally):
        for client in self.clients:
            for server, image in sorted(client.last_write.items()):
                at = self.server_base[server] + READ_AREA + client.index * WINDOW_BYTES
                tally.check(
                    self.servers[server].memory.read(at, WINDOW_BYTES) == image,
                    f"{self.system}: client {client.index} write slot on server {server}",
                )
