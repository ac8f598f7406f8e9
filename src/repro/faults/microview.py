"""MicroView churn chaos: pod dereg/re-register storms under meta faults.

The MR-churn counterpart of the gray scenario (:mod:`repro.faults.gray`):
a collector node harvests every pod MR each cycle (rotating through the
serial / doorbell-batched / vectored strategies) while a seeded churn
driver retracts and re-registers pods out from under it and a fault plan
darkens the meta plane mid-run.  This is the scenario the MRStore
lease/epoch machinery exists for, and the run is checked end to end:

* ``no_dead_mr_read`` -- the :mod:`repro.check` churn-window invariant:
  no READ executes against an MR retracted more than one lease ago
  (``dereg_mr`` defers the physical free exactly one lease);
* ``degraded_mode_engaged`` -- the meta outage actually pushed the
  collector's MRStore into stale-accept mode *and* the stale fast path
  served repeat validations without re-running the lookup slow path;
* ``shared_qp_healthy`` -- KRCORE's software pre-checks kept every
  churn race (retracted rkey mid-harvest) from wrecking the shared
  physical QP (§3.1 C#3);
* ``harvest_progress`` / ``churn_and_faults_applied`` -- the run did
  what the scenario claims: every cycle completed with bytes harvested,
  pods churned, faults fired, and the churn hooks observed traffic;
* ``checker_clean`` -- the full invariant registry holds.

A short MR lease (``LEASE_NS``) makes epochs roll over mid-run, so lease
expiry, stale accepts, and the deferred free all actually happen inside
the simulated window.  Everything derives from the seed;
``report.digest()`` is byte-stable.
"""

from repro.apps.microview import Collector, KrcoreBackend, PodDirectory
from repro.apps.microview.collector import STRATEGIES
from repro.cluster import timing
from repro.faults.chaos import ChaosRun
from repro.faults.plan import FaultPlan
from repro.verbs.types import QPS_ERR

#: Short MR lease so epochs roll over inside the chaos window.
LEASE_NS = 200 * timing.US


class MicroViewChaosHarness(ChaosRun):
    """The MR-churn scenario (tests reach the directory, collector and
    plan through its attributes).  Layout: two meta shards, the
    collector, then ``workers`` worker nodes."""

    checked = True

    def __init__(
        self,
        seed,
        workers=2,
        pods_per_worker=4,
        cycles=14,
        cycle_gap_ns=150 * timing.US,
        # Slow enough that a good fraction of pods outlive the meta
        # outage: stale accepts need entries that *expire* (epoch roll)
        # rather than churn away (new rkey, no cached record).  One
        # exhausted lookup costs ~0.8ms (failover probes + backoff), so
        # the outage below must outlast a whole validation-storm cycle
        # (pods x 0.8ms) for the stale markers to get re-hit.
        churn_interval_ns=1500 * timing.US,
        horizon_ns=16 * timing.MS,
        plan=None,
    ):
        self.cycles = cycles
        self.pods_per_worker = pods_per_worker
        self.cycle_gap_ns = cycle_gap_ns
        self.churn_interval_ns = churn_interval_ns
        self.horizon_ns = horizon_ns
        super().__init__(
            seed, plan, 2, 1 + workers, cycles=0, bytes_ok=0,
            failed_reads=0, churns=0, stale_accepts=0, stale_hits=0,
        )

    def place(self, nodes):
        self.collector_node = nodes[0]
        self.worker_nodes = nodes[1:]

    def module_kwargs(self, node):
        return {"mr_lease_ns": LEASE_NS}

    def setup(self):
        self.backend = KrcoreBackend(self.collector_node)
        self.directory = PodDirectory(
            [(node, self.modules[node.gid]) for node in self.worker_nodes]
        )
        self.collector = Collector(self.collector_node, self.backend, self.directory)

    def default_plan(self):
        """Deterministic faults: a full-plane meta outage spanning an
        epoch boundary (forcing stale accepts), then one lagging shard,
        plus a gray link under the harvest path."""
        h = self.horizon_ns
        return (
            FaultPlan(seed=self.seed)
            # Long enough to span several epoch rolls AND one whole
            # validation-storm cycle past the first roll: the first
            # expired validation of each pod is a slow-path stale
            # accept, the next cycle's repeats hit the check_cached
            # stale fast path.
            .meta_outage(h // 8, duration_ns=h * 5 // 8)
            .gray_link(h // 4, self.collector_node.gid,
                       self.worker_nodes[0].gid,
                       duration_ns=h // 8, latency_mult=3.0)
            .lag_meta(h * 4 // 5, duration_ns=h // 10,
                      extra_ns=100 * timing.US, shard=0)
        )

    def drive(self):
        self.sim.process(self._harvest_loop(), name="microview-chaos-harvest")

    def _harvest_loop(self):
        yield from self.directory.deploy(self.pods_per_worker)
        yield from self.collector.setup()
        self.sim.process(
            self.directory.churn_driver(
                self.churn_interval_ns, self.horizon_ns, seed=self.seed
            ),
            name="microview-chaos-churn",
        )
        for cycle in range(self.cycles):
            strategy = STRATEGIES[cycle % len(STRATEGIES)]
            before_ok = self.collector.stats.bytes_ok
            before_failed = self.collector.stats.failed_reads
            yield from self.collector.harvest_cycle(strategy)
            stats = self.collector.stats
            self.report.record(
                f"cycle{cycle} {strategy} t={self.sim.now} "
                f"lat={stats.cycle_ns[-1]} "
                f"ok={stats.bytes_ok - before_ok} "
                f"failed={stats.failed_reads - before_failed}"
            )
            yield self.cycle_gap_ns

    def audit(self, checker):
        stats = self.collector.stats
        report = self.report
        report.cycles = stats.cycles
        report.bytes_ok = stats.bytes_ok
        report.failed_reads = stats.failed_reads
        report.churns = self.directory.stats_churns
        store = self.backend.lib.module.mr_store
        report.stale_accepts = store.stats_stale_accepts
        report.stale_hits = store.stats_stale_hits
        hooks_live = (
            checker.observed.get("mr.registered", 0) > 0
            and checker.observed.get("mr.retracted", 0) > 0
        )
        inv = report.invariants
        inv["harvest_progress"] = stats.cycles == self.cycles and stats.bytes_ok > 0
        inv["churn_and_faults_applied"] = (
            report.churns > 0 and bool(report.fault_log) and hooks_live
        )
        inv["degraded_mode_engaged"] = (
            report.stale_accepts > 0 and report.stale_hits > 0
        )
        inv["shared_qp_healthy"] = all(
            vqp.qp is None or vqp.qp.state is not QPS_ERR
            for vqp in self.backend._vqps.values()
        )
        inv["no_dead_mr_read"] = not any(
            v.invariant == "mr-read-churn-window" for v in checker.violations
        )

    def summary_fields(self):
        report = self.report
        return [
            f"cycles={report.cycles}", f"harvested={report.bytes_ok}B",
            f"failed={report.failed_reads}", f"churns={report.churns}",
            f"stale_accepts={report.stale_accepts}",
            f"stale_hits={report.stale_hits}",
        ]
