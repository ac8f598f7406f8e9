"""MicroView churn chaos: pod dereg/re-register storms under meta faults.

The MR-churn counterpart of :func:`repro.faults.gray.run_gray_chaos`: a
collector node harvests every pod MR each cycle (rotating through the
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

import hashlib

from repro.apps.microview import Collector, KrcoreBackend, PodDirectory
from repro.apps.microview.collector import STRATEGIES
from repro.check import hooks as _check_hooks
from repro.check.invariants import Checker
from repro.cluster import Cluster, timing
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultPlan
from repro.krcore import KrcoreModule, MetaPlane, MetaServer
from repro.sim import Simulator
from repro.verbs.types import QPS_ERR

#: Short MR lease so epochs roll over inside the chaos window.
LEASE_NS = 200 * timing.US


class MicroViewChaosReport:
    """What one churn-chaos run did; digest-able for determinism checks."""

    def __init__(self, seed):
        self.seed = seed
        self.op_log = []
        self.fault_log = []
        self.invariants = {}
        self.cycles = 0
        self.bytes_ok = 0
        self.failed_reads = 0
        self.churns = 0
        self.stale_accepts = 0
        self.stale_hits = 0
        self.checker_summary = ""

    def record(self, line):
        self.op_log.append(line)

    @property
    def all_invariants_hold(self):
        return bool(self.invariants) and all(self.invariants.values())

    def digest(self):
        hasher = hashlib.sha256()
        for line in self.op_log:
            hasher.update(line.encode())
            hasher.update(b"\n")
        for entry in self.fault_log:
            hasher.update(repr(entry).encode())
            hasher.update(b"\n")
        for name in sorted(self.invariants):
            hasher.update(f"{name}={self.invariants[name]}".encode())
            hasher.update(b"\n")
        return hasher.hexdigest()

    def summary(self):
        return (
            f"seed={self.seed} cycles={self.cycles} "
            f"harvested={self.bytes_ok}B failed={self.failed_reads} "
            f"churns={self.churns} stale_accepts={self.stale_accepts} "
            f"stale_hits={self.stale_hits} "
            f"invariants={'PASS' if self.all_invariants_hold else 'FAIL'}"
        )


class MicroViewChaosHarness:
    """One seeded churn-chaos run.  Use :func:`run_microview_chaos`
    unless tests need the pieces (directory, collector, plan)."""

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
        check=True,
    ):
        self.seed = seed
        self.cycles = cycles
        self.pods_per_worker = pods_per_worker
        self.cycle_gap_ns = cycle_gap_ns
        self.churn_interval_ns = churn_interval_ns
        self.horizon_ns = horizon_ns
        self.check = check
        self.report = MicroViewChaosReport(seed)

        # Layout: nodes 0-1 host the two meta shards, 2 the collector,
        # 3.. the workers.
        self.sim = Simulator()
        self.cluster = Cluster(self.sim, num_nodes=3 + workers)
        self.meta_nodes = [self.cluster.node(0), self.cluster.node(1)]
        self.collector_node = self.cluster.node(2)
        self.worker_nodes = [self.cluster.node(3 + i) for i in range(workers)]
        self.meta = MetaPlane([MetaServer(node) for node in self.meta_nodes])
        self.modules = {}
        for node in self.cluster.nodes:
            self.modules[node.gid] = KrcoreModule(
                node, self.meta, mr_lease_ns=LEASE_NS, background_rc=False
            )

        self.backend = KrcoreBackend(self.collector_node)
        self.directory = PodDirectory(
            [(node, self.modules[node.gid]) for node in self.worker_nodes]
        )
        self.collector = Collector(self.collector_node, self.backend, self.directory)

        if plan is None:
            plan = self._default_plan()
        self.plan = plan
        self.injector = FaultInjector(self.cluster, self.meta, plan)

    def _default_plan(self):
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

    # ------------------------------------------------------------------- run

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

    def _finish(self, checker):
        stats = self.collector.stats
        report = self.report
        report.fault_log = list(self.injector.applied)
        report.cycles = stats.cycles
        report.bytes_ok = stats.bytes_ok
        report.failed_reads = stats.failed_reads
        report.churns = self.directory.stats_churns
        store = self.backend.lib.module.mr_store
        report.stale_accepts = store.stats_stale_accepts
        report.stale_hits = store.stats_stale_hits
        inv = report.invariants
        inv["harvest_progress"] = stats.cycles == self.cycles and stats.bytes_ok > 0
        inv["churn_and_faults_applied"] = (
            report.churns > 0 and bool(report.fault_log)
        )
        inv["degraded_mode_engaged"] = (
            report.stale_accepts > 0 and report.stale_hits > 0
        )
        inv["shared_qp_healthy"] = all(
            vqp.qp is None or vqp.qp.state is not QPS_ERR
            for vqp in self.backend._vqps.values()
        )
        if checker is not None:
            inv["no_dead_mr_read"] = not any(
                v.invariant == "mr-read-churn-window" for v in checker.violations
            )
            hooks_live = (
                checker.observed.get("mr.registered", 0) > 0
                and checker.observed.get("mr.retracted", 0) > 0
            )
            inv["churn_and_faults_applied"] = (
                inv["churn_and_faults_applied"] and hooks_live
            )
            inv["checker_clean"] = checker.ok
            report.checker_summary = checker.summary()

    def run(self):
        checker = Checker() if self.check else None

        def _drive():
            self.injector.start()
            self.sim.process(self._harvest_loop(), name="microview-chaos-harvest")
            self.sim.run()

        if checker is not None:
            with _check_hooks.checking(checker):
                _drive()
                checker.finalize(
                    modules=self.modules.values(),
                    plane=self.meta,
                    now=self.sim.now,
                )
        else:
            _drive()
        self._finish(checker)
        return self.report


def run_microview_chaos(seed, plan=None, **kwargs):
    """Run one seeded MicroView churn-chaos experiment; returns its report."""
    return MicroViewChaosHarness(seed, plan=plan, **kwargs).run()
