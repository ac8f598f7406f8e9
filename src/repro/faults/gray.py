"""Gray-failure chaos: two tenants, one sick meta shard, no outages.

:func:`run_gray_chaos` is the overload-protection counterpart of
:func:`repro.faults.harness.run_chaos`.  The binary harness proves the
stack survives crashes and outages; this one proves it stays *useful*
under gray failure -- every component alive, one of them slow -- which
is the regime binary defenses (retry, RC fallback) cannot even see.

The scenario
------------

A cluster with a two-shard meta plane, three servers, and two client
nodes hosting two tenants:

* the **victim**: a well-behaved tenant issuing paced, open-loop
  qconnects (each forced through the uncached path, so each costs a
  real meta lookup), with an SLO on every op;
* the **storm**: a misbehaving tenant running closed-loop workers that
  hammer uncached qconnects against a server whose metadata lives on
  the *same* primary shard the victim needs.

A seeded gray plan then makes that shard sick: ``lag_meta`` (answers
arrive, half a millisecond late), a ``gray_link`` under the storm's
feet, and ``rnic_degrade`` on the shard host.  Nothing is ever down, so
nothing fails over on its own.

With ``protected=False`` the victim's lookups queue behind the lag at
its meta-client mutex, latencies compound into the milliseconds, and
goodput (ops completing within the SLO) collapses.  With
``protected=True`` (a :class:`repro.degrade.DegradePolicy` on both
tenants) the run rides it out: deadlines kill queued work whose budget
died, those deadline corpses feed the shard's circuit breaker, the
breaker opens and routes the victim to the healthy replica shard, and
the storm's admission gate sheds its excess before it reaches the wire.

Invariants (asserted by tests on the protected run, and expected to
*fail* on the unprotected one):

* ``victim_goodput_floor`` -- the victim completes at least
  ``GOODPUT_FLOOR`` of its ops within the SLO;
* ``victim_p99_bounded`` -- p99 latency of the victim's *successful*
  ops stays under ``P99_BOUND_NS`` (the deadline layer never reports a
  "success" the caller had written off);
* ``storm_contained`` -- the storm's admission gate actually engaged
  (shed or rejected at least once);
* ``checker_clean`` -- the breaker/admission invariants registered with
  :mod:`repro.check` (state-machine sanity, shed accounting, no
  admitted-then-dropped) hold over the whole run.

Everything derives from the seed; ``report.digest()`` is byte-stable.
"""

import hashlib

from repro.check import hooks as _check_hooks
from repro.check.invariants import Checker
from repro.cluster import Cluster, timing
from repro.degrade import DegradePolicy
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultPlan
from repro.krcore import KrcoreLib, KrcoreModule, MetaPlane, MetaServer
from repro.krcore.meta import dct_key
from repro.sim import Simulator
from repro.verbs.errors import (
    DeadlineExceededError,
    KrcoreError,
    OverloadRejectedError,
)

#: The victim tenant's per-qconnect SLO.
SLO_NS = 400 * timing.US
#: The p99 bound asserted on the victim's successful ops: the SLO plus
#: slack for one op that passes its last checkpoint just under the wire.
P99_BOUND_NS = SLO_NS + 50 * timing.US
#: Minimum fraction of victim ops that must complete within the SLO.
GOODPUT_FLOOR = 0.70


def _p99(latencies):
    if not latencies:
        return 0
    ordered = sorted(latencies)
    return ordered[int(0.99 * (len(ordered) - 1))]


class GrayChaosReport:
    """What one gray-chaos run did; digest-able for determinism checks."""

    def __init__(self, seed, protected):
        self.seed = seed
        self.protected = protected
        self.op_log = []
        self.fault_log = []
        self.invariants = {}
        #: Victim latencies (ns) of *successful* qconnects, in op order.
        self.victim_latencies = []
        self.victim_ops = 0
        self.victim_good = 0  # completed within the SLO
        self.victim_deadline_fails = 0
        self.victim_other_fails = 0
        self.storm_ops_ok = 0
        self.storm_shed = 0  # OverloadRejectedError at the storm's gate
        self.storm_deadline_fails = 0
        self.storm_other_fails = 0
        self.checker_summary = ""

    def record(self, line):
        self.op_log.append(line)

    @property
    def victim_goodput(self):
        if not self.victim_ops:
            return 0.0
        return self.victim_good / self.victim_ops

    @property
    def victim_p99_ns(self):
        return _p99(self.victim_latencies)

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
            f"seed={self.seed} protected={self.protected} "
            f"goodput={self.victim_goodput:.2f} "
            f"victim_p99={self.victim_p99_ns}ns "
            f"storm ok={self.storm_ops_ok} shed={self.storm_shed} "
            f"invariants={'PASS' if self.all_invariants_hold else 'FAIL'}"
        )


class GrayChaosHarness:
    """One gray-failure run.  Use :func:`run_gray_chaos` unless you need
    the pieces (tests poke at breakers, gates, and the plan)."""

    def __init__(
        self,
        seed,
        protected=True,
        plan=None,
        victim_ops=80,
        victim_gap_ns=40 * timing.US,
        storm_workers=6,
        horizon_ns=4 * timing.MS,
        slo_ns=SLO_NS,
        check=True,
    ):
        self.seed = seed
        self.protected = protected
        self.sim = Simulator()
        self.report = GrayChaosReport(seed, protected)
        self.victim_ops = victim_ops
        self.victim_gap_ns = victim_gap_ns
        self.storm_workers = storm_workers
        self.horizon_ns = horizon_ns
        self.slo_ns = slo_ns
        self.check = check

        # Layout: nodes 0-1 host the two meta shards, 2-4 are servers,
        # 5 is the victim tenant's node, 6 the storm tenant's.
        self.cluster = Cluster(self.sim, num_nodes=7)
        self.meta_nodes = [self.cluster.node(0), self.cluster.node(1)]
        self.server_nodes = [self.cluster.node(2 + i) for i in range(3)]
        self.victim_node = self.cluster.node(5)
        self.storm_node = self.cluster.node(6)
        self.meta = MetaPlane([MetaServer(node) for node in self.meta_nodes])

        # Tenant policies.  The victim gets the full preset (its deadline
        # comes per-op via qconnect); the storm gets the same plus a
        # tight token-bucket quota, which is the knob a deployment
        # actually turns on a tenant that hammers the control plane.
        if protected:
            victim_policy = DegradePolicy.protected()
            storm_policy = DegradePolicy.protected(
                admission_rate_per_sec=30_000.0,
                admission_burst=2,
                admission_max_pending=1,
            )
        else:
            victim_policy = storm_policy = None

        kwargs = dict(background_rc=False)
        self.modules = {}
        for node in self.cluster.nodes:
            if node is self.victim_node:
                policy = victim_policy
            elif node is self.storm_node:
                policy = storm_policy
            else:
                policy = None
            self.modules[node.gid] = KrcoreModule(
                node, self.meta, degrade=policy, **kwargs
            )

        # Pick two server targets whose DCT keys share a primary shard
        # (three servers over two shards: the pigeonhole guarantees a
        # pair), so the storm's load and the victim's lookups meet on the
        # same sick shard.
        by_primary = {}
        for node in self.server_nodes:
            primary = self.meta.primary_index(dct_key(node.gid))
            by_primary.setdefault(primary, []).append(node.gid)
        self.sick_shard, pair = next(
            (shard, gids) for shard, gids in sorted(by_primary.items())
            if len(gids) >= 2
        )
        self.victim_target, self.storm_target = pair[0], pair[1]

        if plan is None:
            plan = self._default_plan()
        self.plan = plan
        self.injector = FaultInjector(self.cluster, self.meta, plan)

    def _default_plan(self):
        """The deterministic storm: one sick shard, three gray faults."""
        h = self.horizon_ns
        sick_gid = self.meta_nodes[self.sick_shard].gid
        return (
            FaultPlan(seed=self.seed)
            # Answers keep coming, 500 us late: invisible to outage
            # probes, lethal to a microsecond SLO.
            .lag_meta(h // 10, duration_ns=h // 2, extra_ns=500 * timing.US,
                      shard=self.sick_shard)
            # The storm's path to the sick shard gets congested too.
            .gray_link(h * 15 // 100, self.storm_node.gid, sick_gid,
                       duration_ns=h * 2 // 5, latency_mult=4.0)
            # And the shard host's RNIC is throttling.
            .degrade_rnic(h // 5, sick_gid, duration_ns=h * 2 // 5,
                          factor=8.0)
        )

    # ----------------------------------------------------------------- victim

    def _victim_op(self, index, lib, done):
        """One open-loop victim qconnect, forced through the uncached path."""
        module = self.modules[self.victim_node.gid]
        module.dc_cache.pop(self.victim_target, None)
        vqp = yield from lib.create_vqp()
        started = self.sim.now
        outcome = "ok"
        try:
            yield from lib.qconnect(
                vqp,
                self.victim_target,
                deadline_ns=self.slo_ns if self.protected else None,
            )
        except DeadlineExceededError:
            outcome = "deadline"
            self.report.victim_deadline_fails += 1
        except KrcoreError as err:
            outcome = type(err).__name__
            self.report.victim_other_fails += 1
        latency = self.sim.now - started
        self.report.victim_ops += 1
        if outcome == "ok":
            self.report.victim_latencies.append(latency)
            if latency <= self.slo_ns:
                self.report.victim_good += 1
        self.report.record(
            f"victim op{index} start={started} lat={latency} {outcome}"
        )
        done[0] += 1
        if done[0] == self.victim_ops + self.storm_workers:
            done[1].trigger(None)

    def _victim_launcher(self, done):
        """Open-loop pacing: one op process per tick, no matter how the
        previous one is doing -- a slow control plane must not get to
        slow down its own offered load."""
        lib = KrcoreLib(self.victim_node, cpu_id=0)
        for index in range(self.victim_ops):
            self.sim.process(
                self._victim_op(index, lib, done),
                name=f"gray-victim-{index}",
            )
            yield self.victim_gap_ns

    # ------------------------------------------------------------------ storm

    def _storm_worker(self, worker, done):
        """Closed-loop uncached qconnect hammer.  Workers are packed onto
        two CPUs: enough distinct meta clients to pile onto the shard
        concurrently, while several workers share each per-CPU admission
        gate -- which is what makes its bounded queue actually shed."""
        lib = KrcoreLib(self.storm_node, cpu_id=worker % 2)
        module = self.modules[self.storm_node.gid]
        attempt = 0
        salt = f"storm{self.seed}:{worker}"
        while self.sim.now < self.horizon_ns:
            module.dc_cache.pop(self.storm_target, None)
            vqp = yield from lib.create_vqp()
            try:
                yield from lib.qconnect(vqp, self.storm_target)
            except OverloadRejectedError:
                self.report.storm_shed += 1
            except DeadlineExceededError:
                self.report.storm_deadline_fails += 1
            except KrcoreError:
                self.report.storm_other_fails += 1
            else:
                self.report.storm_ops_ok += 1
                attempt = 0
                continue
            # Rejected/failed: back off with seed-derived jitter so the
            # workers do not re-arrive as one synchronized herd.
            attempt += 1
            backoff = timing.KRCORE_BACKOFF_BASE_NS
            yield backoff + timing.backoff_jitter_ns(backoff, salt, attempt)
        done[0] += 1
        if done[0] == self.victim_ops + self.storm_workers:
            done[1].trigger(None)

    # ------------------------------------------------------------------- run

    def _controller(self, done):
        yield done[1]
        self.report.fault_log = list(self.injector.applied)
        gates = [
            pool.admission
            for pool in self.modules[self.storm_node.gid].built_pools()
            if pool.admission is not None
        ]
        contained = any(
            gate.stats_shed + gate.stats_rejected for gate in gates
        ) or self.report.storm_shed > 0
        inv = self.report.invariants
        inv["victim_goodput_floor"] = self.report.victim_goodput >= GOODPUT_FLOOR
        inv["victim_p99_bounded"] = self.report.victim_p99_ns <= P99_BOUND_NS
        inv["storm_contained"] = contained

    def run(self):
        # done = [completed process count, completion event]
        done = [0, self.sim.event()]
        checker = Checker() if self.check else None

        def _drive():
            self.injector.start()
            self.sim.process(self._victim_launcher(done), name="gray-victim")
            for worker in range(self.storm_workers):
                self.sim.process(
                    self._storm_worker(worker, done),
                    name=f"gray-storm-{worker}",
                )
            self.sim.process(self._controller(done), name="gray-controller")
            self.sim.run()

        if checker is not None:
            with _check_hooks.checking(checker):
                _drive()
                checker.finalize(
                    modules=self.modules.values(),
                    plane=self.meta,
                    now=self.sim.now,
                )
            self.report.invariants["checker_clean"] = checker.ok
            self.report.checker_summary = checker.summary()
        else:
            _drive()
        return self.report


def run_gray_chaos(seed, protected=True, plan=None, **kwargs):
    """Run one seeded gray-failure experiment; returns its report."""
    return GrayChaosHarness(seed, protected=protected, plan=plan, **kwargs).run()
