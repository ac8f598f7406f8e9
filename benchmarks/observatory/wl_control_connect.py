"""control_connect: connection establishment, the paper's headline path.

Five closed-loop storms, no data traffic beyond the two meta READs an
uncached qconnect costs:

* ``uncached`` -- one client alone, then 120 clients, each evicting its
  target's DCCache entry before every qconnect (syscall + meta lookup);
* ``cached``   -- the same 120 clients against warm DCCache entries;
* ``mesh``     -- 96 KRCORE workers connect to every other worker;
* ``sharded``  -- 16 workers on one CPU storm a 4-shard ``MetaPlane``;
* ``baseline`` -- 24 verbs workers (driver init + ``rc_connect``), then
  24 LITE-style workers on the shared kernel context.

Targets are drawn from the seed.  Cluster build and module boot are
set-up.  Each qconnect's result is checked: a DC-backed VQP must hold
exactly the DCT metadata its target published, and an RC connection
must have reached RTS.
"""

import random
import statistics

from repro.bench.setups import krcore_cluster, spread_clients, verbs_cluster
from repro.krcore import KrcoreLib
from repro.verbs import DriverContext, QpState, rc_connect

from shared import scaled

PRIMARY_OP = "uncached qconnect, 120 clients (us; conn/s)"

STORM_CLIENTS = 120
STORM_TARGETS = 3
CLIENT_NODES = 8
MESH_WORKERS = 96
SHARDS = 4
SHARD_WORKERS = 16
BASELINE_WORKERS = 24

#: Per client at scale 1.0.
SOLO_CONNECTS = 40
UNCACHED_CONNECTS = 90
CACHED_CONNECTS = 300
SHARDED_CONNECTS = 380
BASELINE_ROUNDS = 10

#: EXPERIMENTS.md, Fig 8a.
PAPER_QCONNECT_US = 5.4
PAPER_VERBS_CONNECT_MS = 15.7
PAPER_LITE_CONNECT_MS = 2.0


class Pass:
    def __init__(self, seed, scale):
        self.rng = random.Random(seed)
        self.scale = scale

    def setup(self):
        scale = self.scale
        self.storm = _Storm(self.rng, scale)
        self.sharded = _ShardedStorm(self.rng, scaled(SHARDED_CONNECTS, scale))
        self.baseline = _Baseline(self.rng, scaled(BASELINE_ROUNDS, scale))

    def measure(self, tally):
        self.storm.run(tally)
        self.sharded.run(tally)
        self.baseline.run(tally)


def _check_vqp(vqp, target_module):
    """A connected VQP holds a physical QP and, over DC, exactly the DCT
    metadata the target published."""
    if vqp.qp is None:
        return False
    return vqp.is_rc_backed or tuple(vqp.dct_meta) == tuple(target_module.own_dct_meta)


class _Storm:
    """The uncached, cached and full-mesh storms share one deployment:
    node 0 meta, then the storm targets, then the client nodes."""

    def __init__(self, rng, scale):
        self.sim, self.cluster, _meta, self.modules = krcore_cluster(
            num_nodes=1 + STORM_TARGETS + CLIENT_NODES, background_rc=False
        )
        nodes = self.cluster.nodes
        self.targets = nodes[1 : 1 + STORM_TARGETS]
        self.client_nodes = nodes[1 + STORM_TARGETS :]
        self.module_of = {node.gid: module for node, module in zip(nodes, self.modules)}
        self.placements = spread_clients(STORM_CLIENTS, self.client_nodes)
        self.solo = [rng.randrange(STORM_TARGETS) for _ in range(scaled(SOLO_CONNECTS, scale))]
        self.uncached = [
            [rng.randrange(STORM_TARGETS) for _ in range(scaled(UNCACHED_CONNECTS, scale))]
            for _ in self.placements
        ]
        self.cached = [
            [rng.randrange(STORM_TARGETS) for _ in range(scaled(CACHED_CONNECTS, scale))]
            for _ in self.placements
        ]
        self.mesh = spread_clients(MESH_WORKERS, self.client_nodes)
        # Each mesh worker visits its peers in a seeded order.
        self.mesh_order = []
        for index in range(MESH_WORKERS):
            peers = [peer for peer in range(MESH_WORKERS) if peer != index]
            rng.shuffle(peers)
            self.mesh_order.append(peers)
        # Boot-time state: every client CPU's meta client pre-connected
        # and every client node's DCCache warm (one qconnect per target).
        for node, cpu_id in self.placements:
            self.sim.process(
                self._client(node, cpu_id, range(STORM_TARGETS), True, [], None)
            )
        self.sim.run()

    def _client(self, node, cpu_id, stream, evict, samples, tally):
        sim = self.sim
        module = self.module_of[node.gid]
        lib = KrcoreLib(node, cpu_id=cpu_id)
        for target_index in stream:
            target = self.targets[target_index]
            if evict:
                module.dc_cache.pop(target.gid, None)
            vqp = yield from lib.create_vqp()
            start = sim.now  # the paper times qconnect itself
            yield from lib.qconnect(vqp, target.gid)
            samples.append(sim.now - start)
            if tally is not None:
                tally.op(_check_vqp(vqp, self.module_of[target.gid]))

    def _mesh_worker(self, index, finished, tally):
        node, cpu_id = self.mesh[index]
        lib = KrcoreLib(node, cpu_id=cpu_id)
        for peer in self.mesh_order[index]:
            peer_node, _cpu = self.mesh[peer]
            vqp = yield from lib.create_vqp()
            yield from lib.qconnect(vqp, peer_node.gid, 100 + peer)
            tally.op(_check_vqp(vqp, self.module_of[peer_node.gid]))
        finished.append(self.sim.now)

    def run(self, tally):
        sim = self.sim
        began = sim.now
        solo = []
        node, cpu_id = self.placements[0]
        sim.process(self._client(node, cpu_id, self.solo, True, solo, tally))
        sim.run()
        tally.notes["solo_qconnect_ns"] = solo
        tally.headline("qconnect_uncached_1client_us", statistics.fmean(solo) / 1000.0, PAPER_QCONNECT_US)

        started = sim.now
        uncached = []
        for (node, cpu_id), stream in zip(self.placements, self.uncached):
            sim.process(self._client(node, cpu_id, stream, True, uncached, tally))
        sim.run()
        tally.latencies_ns = uncached
        tally.ops_per_s = len(uncached) * 1e9 / (sim.now - started)

        started = sim.now
        cached = []
        for (node, cpu_id), stream in zip(self.placements, self.cached):
            sim.process(self._client(node, cpu_id, stream, False, cached, tally))
        sim.run()
        tally.notes["cached_qconnect_ns"] = cached
        tally.notes["cached_conn_per_s"] = len(cached) * 1e9 / (sim.now - started)

        for module in self.modules:
            module.dc_cache.clear()
        started = sim.now
        finished = []
        for index in range(MESH_WORKERS):
            sim.process(self._mesh_worker(index, finished, tally))
        sim.run()
        tally.check(len(finished) == MESH_WORKERS, "every mesh worker finished")
        tally.notes["mesh_ns"] = max(finished) - started
        tally.cluster_done(sim, self.cluster, began)


class _ShardedStorm:
    """16 workers on one client CPU, one private target each, against a
    4-shard meta plane: lookups to different shards proceed in parallel."""

    def __init__(self, rng, connects):
        self.sim, self.cluster, _plane, modules = krcore_cluster(
            num_nodes=SHARDS + SHARD_WORKERS + 1,
            meta_shards=SHARDS,
            cores=4,
            background_rc=False,
        )
        self.client_node = self.cluster.nodes[-1]
        self.client_module = modules[-1]
        self.target_modules = modules[SHARDS : SHARDS + SHARD_WORKERS]
        order = list(range(SHARD_WORKERS))
        rng.shuffle(order)
        self.assignment = order  # worker -> target
        self.connects = connects

    def _worker(self, target_module, samples, tally):
        sim = self.sim
        lib = KrcoreLib(self.client_node, cpu_id=0)
        gid = target_module.node.gid
        for _ in range(self.connects):
            self.client_module.dc_cache.pop(gid, None)
            vqp = yield from lib.create_vqp()
            start = sim.now
            yield from lib.qconnect(vqp, gid)
            samples.append(sim.now - start)
            tally.op(_check_vqp(vqp, target_module))

    def run(self, tally):
        sim = self.sim
        started = sim.now
        samples = []
        for target in self.assignment:
            sim.process(self._worker(self.target_modules[target], samples, tally))
        sim.run()
        tally.notes["sharded_qconnect_ns"] = samples
        tally.notes["sharded_conn_per_s"] = len(samples) * 1e9 / (sim.now - started)
        tally.cluster_done(sim, self.cluster, started)


class _Baseline:
    """The old control path: per-process driver init + RC handshake
    (verbs), or the handshake alone on a shared kernel context (LITE)."""

    def __init__(self, rng, rounds):
        self.rounds = rounds
        self.deployments = []
        for kernel in (False, True):
            sim, cluster = verbs_cluster()
            servers = cluster.nodes[:2]
            placements = spread_clients(BASELINE_WORKERS, cluster.nodes[2:])
            streams = [
                [rng.randrange(len(servers)) for _ in range(rounds)]
                for _ in placements
            ]
            self.deployments.append((kernel, sim, cluster, servers, placements, streams))

    def run(self, tally):
        for kernel, sim, cluster, servers, placements, streams in self.deployments:
            samples = []
            began = sim.now

            def worker(node, stream):
                for server_index in stream:
                    # verbs: every elastic worker is a fresh process.
                    context = DriverContext(node, kernel=kernel)
                    start = sim.now
                    yield from context.ensure_init()
                    cq = yield from context.create_cq()
                    qp = yield from rc_connect(context, cq, servers[server_index].gid)
                    samples.append(sim.now - start)
                    tally.op(qp.state is QpState.RTS)

            # One worker alone first: the paper's single-connection latency.
            sim.process(worker(placements[0][0], streams[0][:1]))
            sim.run()
            name = "lite" if kernel else "verbs"
            paper = PAPER_LITE_CONNECT_MS if kernel else PAPER_VERBS_CONNECT_MS
            tally.headline(f"{name}_connect_1worker_ms", samples[0] / 1e6, paper)
            for (node, _cpu), stream in zip(placements, streams):
                sim.process(worker(node, stream))
            sim.run()
            tally.notes[f"{name}_connect_ns"] = samples
            tally.cluster_done(sim, cluster, began)
