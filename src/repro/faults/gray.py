"""Gray-failure chaos: two tenants, one sick meta shard, no outages.

:class:`GrayChaosHarness` is the overload-protection counterpart of the
YCSB scenario (:mod:`repro.faults.harness`).  That one proves the stack
survives crashes and outages; this one proves it stays *useful* under
gray failure -- every component alive, one of them slow -- which is the
regime binary defenses (retry, RC fallback) cannot even see.

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

from repro.cluster import timing
from repro.degrade import DegradePolicy
from repro.faults.chaos import ChaosRun
from repro.faults.plan import FaultPlan
from repro.krcore import KrcoreLib
from repro.krcore.meta import dct_key
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


class GrayChaosHarness(ChaosRun):
    """The gray-failure scenario (tests poke at breakers, gates, and the
    plan through its attributes).  Layout: two meta shards, three
    servers, the victim tenant's node, the storm tenant's node."""

    checked = True

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
    ):
        self.protected = protected
        self.victim_ops = victim_ops
        self.victim_gap_ns = victim_gap_ns
        self.storm_workers = storm_workers
        self.horizon_ns = horizon_ns
        self.slo_ns = slo_ns
        #: Victim latencies (ns) of *successful* qconnects, in op order.
        self.victim_latencies = []
        super().__init__(
            seed, plan, 2, 5, protected=protected,
            victim_ops=0, victim_good=0,  # completed within the SLO
            storm_ops_ok=0, storm_shed=0,  # shed: rejected at the storm's gate
        )

    def place(self, nodes):
        self.server_nodes = nodes[:3]
        self.victim_node, self.storm_node = nodes[3:]

    def module_kwargs(self, node):
        # The victim gets the full preset (its deadline comes per-op via
        # qconnect); the storm gets the same plus a tight token-bucket
        # quota, which is the knob a deployment actually turns on a
        # tenant that hammers the control plane.
        if self.protected and node is self.victim_node:
            return {"degrade": DegradePolicy.protected()}
        if self.protected and node is self.storm_node:
            return {"degrade": DegradePolicy.protected(
                admission_rate_per_sec=30_000.0,
                admission_burst=2,
                admission_max_pending=1,
            )}
        return {}

    def setup(self):
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

    def default_plan(self):
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

    def drive(self):
        self.sim.process(self._victim_launcher(), name="gray-victim")
        for worker in range(self.storm_workers):
            self.sim.process(
                self._storm_worker(worker), name=f"gray-storm-{worker}"
            )

    def audit(self, checker):
        report = self.report
        report.victim_goodput = (
            report.victim_good / report.victim_ops if report.victim_ops else 0.0
        )
        report.victim_p99_ns = _p99(self.victim_latencies)
        gates = [
            pool.admission
            for pool in self.modules[self.storm_node.gid].built_pools()
            if pool.admission is not None
        ]
        contained = any(
            gate.stats_shed + gate.stats_rejected for gate in gates
        ) or report.storm_shed > 0
        inv = report.invariants
        inv["victim_goodput_floor"] = report.victim_goodput >= GOODPUT_FLOOR
        inv["victim_p99_bounded"] = report.victim_p99_ns <= P99_BOUND_NS
        inv["storm_contained"] = contained

    def summary_fields(self):
        report = self.report
        return [
            f"protected={self.protected}",
            f"goodput={report.victim_goodput:.2f}",
            f"victim_p99={report.victim_p99_ns}ns",
            f"storm ok={report.storm_ops_ok}", f"shed={report.storm_shed}",
        ]

    # ----------------------------------------------------------------- victim

    def _victim_op(self, index, lib):
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
        except KrcoreError as err:
            outcome = type(err).__name__
        latency = self.sim.now - started
        self.report.victim_ops += 1
        if outcome == "ok":
            self.victim_latencies.append(latency)
            if latency <= self.slo_ns:
                self.report.victim_good += 1
        self.report.record(
            f"victim op{index} start={started} lat={latency} {outcome}"
        )

    def _victim_launcher(self):
        """Open-loop pacing: one op process per tick, no matter how the
        previous one is doing -- a slow control plane must not get to
        slow down its own offered load."""
        lib = KrcoreLib(self.victim_node, cpu_id=0)
        for index in range(self.victim_ops):
            self.sim.process(
                self._victim_op(index, lib), name=f"gray-victim-{index}"
            )
            yield self.victim_gap_ns

    # ------------------------------------------------------------------ storm

    def _storm_worker(self, worker):
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
            except KrcoreError:
                pass
            else:
                self.report.storm_ops_ok += 1
                attempt = 0
                continue
            # Rejected/failed: back off with seed-derived jitter so the
            # workers do not re-arrive as one synchronized herd.
            attempt += 1
            backoff = timing.KRCORE_BACKOFF_BASE_NS
            yield backoff + timing.backoff_jitter_ns(backoff, salt, attempt)
