"""chaos_guarded: the same layers on their slow paths.

* ``chaos``    -- ``repro.faults`` chaos runs over sub-seeds drawn from
  the seed: YCSB-A READ/WRITE over KRCORE while a random plan drops and
  duplicates packets, stalls RNIC engines, crashes and restarts a
  server and takes the meta service out, alternating a single meta
  server with a 2-shard plane;
* ``overload`` -- an open-loop qconnect storm at 4x the meta-lookup
  capacity with ``DegradePolicy.protected()`` on: admission gate,
  deadlines, breakers.

Retransmit timers (future-heap insert and cancel, not ready-slab
dispatch), QP error and repair, ``lookup_dct_robust`` backoff,
stale-lease ``MrStore`` and the admission gates do the work here, and
it is the only workload in which ``faults`` and ``degrade`` run at all.

Each chaos run must end with every invariant of its ``ChaosReport``
holding (exactly-once completion, no corruption, convergence, lease
safety, every op resolved).  In the storm every arrival must end as a
completion, a typed rejection or a deadline failure; shed and expired
arrivals are the protection working, not failures.  There is no paper
reference for these numbers: the workload is unvalidated.
"""

import random
import statistics

from repro.bench.setups import krcore_cluster
from repro.cluster import timing
from repro.degrade import DegradePolicy
from repro.faults.harness import ChaosHarness
from repro.krcore import KrcoreLib
from repro.verbs.errors import DeadlineExceededError, KrcoreError, OverloadRejectedError

from shared import scaled

PRIMARY_OP = "YCSB-A op over KRCORE under faults, retries included (us; op/s)"

CHAOS_CLIENTS = 4
CLIENT_LINK_FAULTS = 3
#: At scale 1.0: chaos runs per pass and ops per chaos client.
CHAOS_RUNS = 24
CHAOS_OPS = 300

#: The overload storm (as in the ``overload`` figure): per-qconnect SLO,
#: one uncached lookup's serialized cost, offered multiple of capacity.
SLO_NS = 60 * timing.US
LOOKUP_NS = timing.META_KV_READS_PER_LOOKUP * timing.META_KV_READ_RTT_NS
OVERLOAD_MULTIPLE = 4.0
STORM_TARGETS = 64
STORM_ARRIVALS = 8000


class Pass:
    def __init__(self, seed, scale):
        self.rng = random.Random(seed)
        self.scale = scale

    def setup(self):
        rng, scale = self.rng, self.scale
        self.harnesses = []
        for index in range(scaled(CHAOS_RUNS, scale)):
            harness = ChaosHarness(
                rng.randrange(1, 1 << 30),
                num_clients=CHAOS_CLIENTS,
                ops_per_client=scaled(CHAOS_OPS, scale),
                meta_shards=1 + index % 2,
            )
            _add_client_link_faults(harness, rng)
            self.harnesses.append(harness)
        self.storm = _OverloadStorm(rng, scaled(STORM_ARRIVALS, scale))

    def measure(self, tally):
        latencies = []
        rates = []
        for harness in self.harnesses:
            report = harness.run()
            tally.op(True, report.ops_ok)
            tally.op(False, report.ops_failed)
            tally.check(report.all_invariants_hold, f"chaos seed {report.seed}: {report.summary()}")
            spans, stream = _op_spans(report.op_log, harness.op_gap_ns)
            latencies.extend(spans)
            rates.append(len(spans) * 1e9 / stream)
            tally.notes[f"chaos.{report.seed}"] = [
                report.digest(), report.retried_ops, report.stale_accepts,
                report.meta_failovers, report.rc_fallbacks, len(report.fault_log),
            ]
            tally.cluster_done(harness.sim, harness.cluster, 0)
        tally.latencies_ns = latencies
        # Closed loop with a pacing gap: ops completed per second of op
        # stream, so time lost to retries and backoff lowers it; the
        # median over the runs, which one crash-heavy plan does not move.
        tally.ops_per_s = statistics.median(rates)
        self.storm.run(tally)


def _add_client_link_faults(harness, rng):
    """The harness's random plan degrades links among the servers only;
    add lossy windows on client<->server links, where the YCSB traffic
    runs, so the requester-side retransmit timers fire."""
    horizon = harness.horizon_ns
    for _ in range(CLIENT_LINK_FAULTS):
        harness.plan.degrade_link(
            rng.randrange(horizon // 10, horizon * 6 // 10),
            rng.choice(harness.client_nodes).gid,
            rng.choice(harness.server_nodes).gid,
            duration_ns=rng.randrange(horizon // 10, horizon // 3),
            drop_prob=rng.choice([0.02, 0.05, 0.10]),
            dup_prob=rng.choice([0.0, 0.02]),
            both_ways=True,
        )


def _op_spans(op_log, gap_ns):
    """Per-op simulated latency, retries included, recovered from a
    report's op log: a client starts op *i* one pacing gap after op
    *i-1* ended.  Each client's first op (whose start the log does not
    give) is left out.  Also returns the op stream's length: from the
    first client's first op ending to the last client's last."""
    last_end = {}
    first_end = None
    spans = []
    for line in op_log:
        fields = line.split()
        if len(fields) < 3 or not fields[2].startswith("op"):
            continue  # verify/lease lines
        end = int(fields[0][2:])
        client = fields[1]
        if client in last_end:
            spans.append(end - last_end[client] - gap_ns)
        elif first_end is None:
            first_end = end
        last_end[client] = end
    return spans, max(last_end.values()) - first_end


class _OverloadStorm:
    def __init__(self, rng, arrivals):
        self.sim, self.cluster, _meta, modules = krcore_cluster(
            num_nodes=STORM_TARGETS + 2,
            cores=1,
            background_rc=False,
            degrade=DegradePolicy.protected(),
        )
        self.client_node = self.cluster.nodes[-1]
        self.client_module = modules[-1]
        gids = [self.cluster.nodes[1 + i].gid for i in range(STORM_TARGETS)]
        self.targets = [rng.choice(gids) for _ in range(arrivals)]

    def run(self, tally):
        sim = self.sim
        lib = KrcoreLib(self.client_node, cpu_id=0)
        dc_cache = self.client_module.dc_cache
        outcomes = {"good": 0, "late": 0, "deadline": 0, "rejected": 0, "error": 0}
        latencies = []

        def one_op(gid):
            dc_cache.pop(gid, None)
            started = sim.now
            vqp = yield from lib.create_vqp()
            try:
                yield from lib.qconnect(vqp, gid, deadline_ns=SLO_NS)
            except DeadlineExceededError:
                outcomes["deadline"] += 1
            except OverloadRejectedError:
                outcomes["rejected"] += 1
            except KrcoreError:
                outcomes["error"] += 1
            else:
                latency = sim.now - started
                latencies.append(latency)
                outcomes["good" if latency <= SLO_NS else "late"] += 1

        def arrivals():
            gap = max(int(LOOKUP_NS / OVERLOAD_MULTIPLE), 1)
            for gid in self.targets:
                sim.process(one_op(gid))
                yield gap

        sim.process(arrivals())
        sim.run()
        resolved = sum(outcomes.values())
        tally.op(True, resolved - outcomes["error"] - outcomes["late"])
        tally.op(False, outcomes["error"] + outcomes["late"])
        tally.check(resolved == len(self.targets), "overload: every arrival resolved")
        tally.notes["overload.outcomes"] = outcomes
        tally.notes["overload.qconnect_ns"] = latencies
        tally.notes["overload.goodput_per_s"] = outcomes["good"] * 1e9 / sim.now
        tally.cluster_done(sim, self.cluster, 0)
