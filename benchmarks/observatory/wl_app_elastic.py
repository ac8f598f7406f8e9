"""app_elastic: the paper's elastic applications, control and data mixed.

* ``race``       -- a load spike forks RACE computing workers on 7 nodes;
  each connects to 2 storage nodes through its backend's control plane
  (krcore, verbs, lite), registers scratch memory, then runs a seeded
  Zipf YCSB-B stream of one-sided GETs and PUTs;
* ``serverless`` -- ServerlessBench TestCase5 message passes between two
  functions, payload sizes from the seed, over verbs and KRCORE;
* ``microview``  -- a collector harvests per-pod 4 KB MRs serially,
  doorbell-batched and with ``READ_V`` while a seeded churn driver
  retracts and re-registers pods under it.

MR registration and retraction run *beside* reads here (``MrStore`` and
``ValidMr`` take writes as well as lookups), two-sided messaging is in
the mix, and ``cluster`` and ``apps`` carry a visible share.

Every GET must return a value tagged with its own key; every harvested
pod page must carry the tag of the pod generation the snapshot named,
except at most one page per read that lost the race with a retraction
(those races are planned and counted apart, not as failures).
"""

import random

from repro.apps.microview import KrcoreBackend as MicroViewKrcore
from repro.apps.microview import PodDirectory
from repro.apps.race import KrcoreBackend, LiteBackend, RaceClient, RaceError, RaceStorage, VerbsBackend
from repro.apps.race.backends import register_storage
from repro.apps.race.hashing import fingerprint
from repro.apps.serverless import run_transfer_testcase
from repro.bench.setups import krcore_cluster, lite_cluster, verbs_cluster
from repro.cluster import timing
from repro.sim import US
from repro.workloads import YCSB_B, YcsbWorkload

from shared import scaled

PRIMARY_OP = "RACE GET on krcore during the spike (us); RACE requests on krcore (req/s)"

STORAGE_NODES = 2
COMPUTE_NODES = 7
RACE_KEYS = 1024
RACE_WORKERS = {"krcore": 56, "verbs": 21, "lite": 21}
VALUE_PAD = 24

MICROVIEW_WORKERS = 3
PODS_PER_WORKER = 12
TAG_BYTES = 16
STRATEGIES = ("serial", "batched", "vectored")

#: At scale 1.0: YCSB ops per RACE worker, transfers per backend,
#: harvest cycles per strategy.
RACE_OPS = 150
TRANSFERS = 30
HARVEST_CYCLES = 160
CHURN_INTERVAL_NS = 60 * US
HARVEST_GAP_NS = 20 * US

#: EXPERIMENTS.md: Fig 12b (verbs transfer ms, KRCORE's reduction in %)
#: and Fig 16 (KRCORE bootstrap is fork-bound: 244 ms for the 26 workers
#: each compute node forks serially at 180 workers).
PAPER_VERBS_TRANSFER_MS = 33.3
PAPER_TRANSFER_REDUCTION_PCT = 99.0
PAPER_KRCORE_FORK_MS_PER_WORKER = 244.0 / 26


class Pass:
    def __init__(self, seed, scale):
        self.seed = seed
        self.scale = scale

    def setup(self):
        rng = random.Random(self.seed)
        ops = scaled(RACE_OPS, self.scale)
        self.races = [_RaceSpike(backend, self.seed, ops) for backend in RACE_WORKERS]
        self.serverless = _Serverless(rng, scaled(TRANSFERS, self.scale))
        self.microview = _MicroView(rng, scaled(HARVEST_CYCLES, self.scale))

    def measure(self, tally):
        for race in self.races:
            race.run(tally)
        self.serverless.run(tally)
        self.microview.run(tally)


# ---------------------------------------------------------------------------
# RACE hashing under a load spike
# ---------------------------------------------------------------------------


def _value(key, version):
    return key + b"=" + (b"%d" % version).rjust(VALUE_PAD, b"0")


class _RaceSpike:
    def __init__(self, backend, seed, ops):
        self.backend = backend
        self.workers = RACE_WORKERS[backend]
        num_nodes = STORAGE_NODES + COMPUTE_NODES + (1 if backend == "krcore" else 0)
        modules = None
        if backend == "krcore":
            self.sim, self.cluster, _meta, modules = krcore_cluster(
                num_nodes=num_nodes, background_rc=False
            )
            first = 1
        elif backend == "lite":
            self.sim, self.cluster, _lite = lite_cluster(num_nodes=num_nodes)
            first = 0
        else:
            self.sim, self.cluster = verbs_cluster(num_nodes=num_nodes)
            first = 0
        nodes = self.cluster.nodes
        storage_nodes = nodes[first : first + STORAGE_NODES]
        self.compute = nodes[first + STORAGE_NODES :]

        # Storage: registered the way the deployment needs, then bulk-loaded.
        self.storages = [
            RaceStorage(node, heap_bytes=1 << 20, register=modules is None)
            for node in storage_nodes
        ]
        if modules is not None:
            for storage in self.storages:
                module = storage.node.services["krcore"]
                self.sim.process(register_storage(storage, module))
            self.sim.run()
        self.catalogs = [storage.catalog() for storage in self.storages]
        workload = YcsbWorkload(mix=YCSB_B, num_keys=RACE_KEYS, seed=seed)
        for key in workload.load_keys():
            _fp, spread = fingerprint(key)
            # Same placement rule as RaceClient: by the spread's high bits.
            self.storages[(spread >> 20) % STORAGE_NODES].load(key, _value(key, 0))

        # Each worker's seeded YCSB-B stream.
        self.streams = []
        for worker in range(self.workers):
            stream = YcsbWorkload(
                mix=YCSB_B, num_keys=RACE_KEYS, seed=seed * 7919 + worker
            )
            self.streams.append([stream.next_op() for _ in range(ops)])

    def _make_backend(self, node, cpu_id):
        if self.backend == "krcore":
            return KrcoreBackend(node, cpu_id=cpu_id)
        if self.backend == "lite":
            return LiteBackend(node)
        return VerbsBackend(node)

    def _worker(self, index, node, cpu_id, ready, gets, tally):
        sim = self.sim
        client = RaceClient(self._make_backend(node, cpu_id), self.catalogs)
        yield from client.setup(max_batch=1)
        ready.append(sim.now)
        version = 0
        for kind, key in self.streams[index]:
            start = sim.now
            try:
                if kind == "read":
                    value = yield from client.get(key)
                    gets.append(sim.now - start)
                    ok = value is not None and value.startswith(key + b"=")
                else:
                    version += 1
                    yield from client.put(key, _value(key, index * 100000 + version))
                    ok = True
            except RaceError:
                ok = False
            tally.op(ok)

    def _spawner(self, node, indexes, ready, gets, tally):
        # The node's process spawner forks workers serially.
        for slot, index in enumerate(indexes):
            yield timing.PROCESS_SPAWN_NS
            self.sim.process(
                self._worker(index, node, slot % node.cores, ready, gets, tally)
            )

    def run(self, tally):
        sim = self.sim
        started = sim.now
        ready, gets = [], []
        per_node = [[] for _ in self.compute]
        for index in range(self.workers):
            per_node[index % len(self.compute)].append(index)
        for node, indexes in zip(self.compute, per_node):
            sim.process(self._spawner(node, indexes, ready, gets, tally))
        sim.run()
        name = self.backend
        tally.check(len(ready) == self.workers, f"race/{name}: every worker came up")
        ready_ms = (max(ready) - started) / 1e6
        ops = sum(len(stream) for stream in self.streams)
        tally.notes[f"race.{name}.ready_ms"] = ready_ms
        tally.notes[f"race.{name}.get_ns"] = gets
        tally.notes[f"race.{name}.req_per_s"] = ops * 1e9 / (sim.now - started)
        if name == "krcore":
            tally.latencies_ns = gets
            tally.ops_per_s = ops * 1e9 / (sim.now - started)
            tally.headline(
                "race_krcore_fork_ms_per_worker",
                ready_ms / max(len(indexes) for indexes in per_node),
                PAPER_KRCORE_FORK_MS_PER_WORKER,
            )
        tally.cluster_done(sim, self.cluster, started)


# ---------------------------------------------------------------------------
# ServerlessBench TestCase5
# ---------------------------------------------------------------------------


class _Serverless:
    def __init__(self, rng, transfers):
        self.payloads = [rng.randrange(1024, 9217) for _ in range(transfers)]
        self.verbs = verbs_cluster(num_nodes=3)
        self.krcore = krcore_cluster(num_nodes=3)[:2]

    def run(self, tally):
        mean_ms = {}
        for backend, (sim, cluster), first in (
            ("verbs", self.verbs, 0), ("krcore", self.krcore, 1)
        ):
            sender, receiver = cluster.node(first), cluster.node(first + 1)
            outcomes = []
            began = sim.now

            def transfers():
                for payload in self.payloads:
                    result = yield from run_transfer_testcase(
                        sim, sender, receiver, payload, backend
                    )
                    outcomes.append(result.transfer_ns)
                    tally.op(result.payload_bytes == payload and result.send_ns > 0)

            sim.run_process(transfers())
            tally.notes[f"serverless.{backend}.transfer_ns"] = outcomes
            mean_ms[backend] = sum(outcomes) / len(outcomes) / 1e6
            tally.cluster_done(sim, cluster, began)
        tally.headline("serverless_verbs_transfer_ms", mean_ms["verbs"], PAPER_VERBS_TRANSFER_MS)
        tally.headline(
            "serverless_krcore_reduction_pct",
            100.0 * (1 - mean_ms["krcore"] / mean_ms["verbs"]),
            PAPER_TRANSFER_REDUCTION_PCT,
        )


# ---------------------------------------------------------------------------
# MicroView harvest under pod churn
# ---------------------------------------------------------------------------


def _tag(pod):
    return pod.index.to_bytes(8, "big") + pod.generation.to_bytes(8, "big")


class _MicroView:
    """Node 0 meta, node 1 the collector, then the pod workers; one
    deployment per harvest strategy, pods deployed and the collector
    connected in set-up."""

    def __init__(self, rng, cycles):
        self.cycles = cycles
        self.runs = []
        for strategy in STRATEGIES:
            # No background RC promotion: a harvest READ that loses the race
            # with a retraction on a VQP already moved to a promoted RCQP
            # never completes (seen at the parent commit), and a workload
            # must not hang.
            sim, cluster, _meta, modules = krcore_cluster(
                num_nodes=2 + MICROVIEW_WORKERS, background_rc=False
            )
            workers = [(cluster.node(2 + i), modules[2 + i]) for i in range(MICROVIEW_WORKERS)]
            directory = PodDirectory(workers)
            backend = MicroViewKrcore(cluster.node(1))
            scratch = []

            def deploy(directory=directory, backend=backend, scratch=scratch):
                yield from directory.deploy(PODS_PER_WORKER)
                for pod in directory.pods:
                    pod.node.memory.write(pod.region.addr, _tag(pod))
                yield from backend.connect(sorted({node.gid for node, _ in workers}))
                nbytes = len(directory.pods) * directory.pod_bytes
                scratch.append((yield from backend.setup_buffer(nbytes)))

            sim.run_process(deploy())
            # The churn victims, in order, drawn from the seed.
            victims = [
                rng.randrange(MICROVIEW_WORKERS * PODS_PER_WORKER)
                for _ in range(cycles * 4)
            ]
            self.runs.append((strategy, sim, cluster, directory, backend, scratch[0], victims))

    def run(self, tally):
        for strategy, sim, cluster, directory, backend, (laddr, lkey), victims in self.runs:
            harvest = getattr(backend, f"harvest_{strategy}")
            memory = cluster.node(1).memory
            state = {"harvesting": True, "raced": 0}
            cycle_ns = []
            began = sim.now

            def churn():
                for victim in victims:
                    yield CHURN_INTERVAL_NS
                    if not state["harvesting"]:
                        return
                    pod = directory.pods[victim]
                    yield from directory.churn_one(pod)
                    pod.node.memory.write(pod.region.addr, _tag(pod))

            def collect():
                for _ in range(self.cycles):
                    targets = directory.targets()
                    expected = [_tag(pod) for pod in directory.pods]
                    start = sim.now
                    _bytes_ok, raced = yield from harvest(targets, laddr, lkey)
                    cycle_ns.append(sim.now - start)
                    wrong = sum(
                        memory.read(laddr + i * directory.pod_bytes, TAG_BYTES) != tag
                        for i, tag in enumerate(expected)
                    )
                    state["raced"] += raced
                    tally.op(True, len(targets) - raced)
                    tally.check(
                        wrong <= raced,
                        f"microview/{strategy}: {wrong} wrong pages, {raced} raced reads",
                    )
                    yield HARVEST_GAP_NS
                state["harvesting"] = False

            sim.process(churn())
            sim.run_process(collect())
            tally.cluster_done(sim, cluster, began)
            sim.run()  # drain the deferred frees: every lease runs out
            tally.notes[f"microview.{strategy}.cycle_ns"] = cycle_ns
            tally.notes[f"microview.{strategy}.raced_reads"] = state["raced"]
            tally.notes[f"microview.{strategy}.churns"] = directory.stats_churns
