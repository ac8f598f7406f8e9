"""Partition-local fault targeting for the cluster-scale model.

The partitioned engine's fault story has one rule: **a fault belongs to
the partition that owns its target**.  A :class:`~repro.faults.plan
.FaultPlan` of ``node_slow`` windows names nodes by gid; each partition
applies exactly the windows of the nodes it owns (the model filters by
ownership when it builds per-node state), so the same plan perturbs the
same simulated entities identically at every partition count — which is
what this harness proves, run by run.

``run_scale_chaos`` draws a seeded ``node_slow`` plan over a rack
topology, runs the qconnect-storm model at ``partitions=1`` and at the
requested partition count (plus a clean P=1 control run), and checks:

* ``digests_match`` — the faulted run's digest is identical at every
  partition count (the headline equivalence-under-faults invariant);
* ``faults_applied`` — the faulted digest differs from the clean one
  (a plan that perturbs nothing proves nothing);
* ``all_ops_complete`` — slowdowns delay ops but never lose them;
* ``latency_degraded`` — mean qconnect latency under faults is at least
  the clean mean (service multipliers only ever add time).

Reports digest deterministically: one ``(seed, partitions)`` pair gives
one byte sequence, on every host.
"""

import hashlib

from repro.cluster.scale import ScaleSpec, run_scale
from repro.faults.plan import NODE_SLOW, FaultPlan


def faults_from_plan(plan, topology):
    """Lower a ``node_slow`` plan onto the scale model's fault tuples.

    Returns ``(node, at_ns, duration_ns, mult)`` tuples in plan order.
    Raises on any other fault kind: the scale model's entities are
    abstract service queues, so link/crash/meta kinds have no meaning
    here and silently dropping them would fake coverage.
    """
    gid_to_node = {topology.gid(node): node for node in range(topology.num_nodes)}
    out = []
    for event in plan.sorted_events():
        if event.kind != NODE_SLOW:
            raise ValueError(
                f"the scale model only consumes node_slow faults, got "
                f"{event.kind!r} at t={event.at_ns}"
            )
        gid = event.params["gid"]
        if gid not in gid_to_node:
            raise ValueError(f"fault targets unknown node {gid!r}")
        out.append((
            gid_to_node[gid],
            event.at_ns,
            event.params["duration_ns"],
            event.params["factor"],
        ))
    return out


class ScaleChaosReport:
    """Outcome of one partitioned-equivalence-under-faults run."""

    def __init__(self, spec, partitions):
        self.spec = spec
        self.partitions = partitions
        self.fault_log = []  # (t, kind, summary) mirroring the other harnesses
        self.digests = {}  # partition count -> faulted digest
        self.clean_digest = None
        self.completed = 0
        self.expected = 0
        self.clean_mean_ns = 0.0
        self.faulted_mean_ns = 0.0
        self.windows = 0
        self.invariants = {}

    @property
    def all_invariants_hold(self):
        return all(self.invariants.values())

    def digest(self):
        h = hashlib.sha256()
        h.update(repr(sorted(self.spec.to_dict().items())).encode())
        for entry in self.fault_log:
            h.update(repr(entry).encode())
        for count in sorted(self.digests):
            h.update(f"{count}:{self.digests[count]}".encode())
        h.update((self.clean_digest or "").encode())
        h.update(f"{self.completed}/{self.expected}".encode())
        return h.hexdigest()

    def summary(self):
        return (
            f"scale-chaos seed={self.spec.seed} partitions={self.partitions} "
            f"nodes={self.spec.racks * self.spec.nodes_per_rack} "
            f"ops={self.completed}/{self.expected} windows={self.windows} "
            f"faults={len(self.fault_log)} "
            f"mean={self.clean_mean_ns:.0f}ns->{self.faulted_mean_ns:.0f}ns "
            f"invariants={'PASS' if self.all_invariants_hold else 'FAIL'}"
        )


def run_scale_chaos(seed, partitions=2, racks=6, nodes_per_rack=2,
                    tenants_per_node=2, ops_per_tenant=12,
                    mean_think_ns=6_000, fault_events=4):
    """Prove fault-targeting equivalence for one seed; see module doc."""
    clean_spec = ScaleSpec(
        racks=racks, nodes_per_rack=nodes_per_rack,
        tenants_per_node=tenants_per_node, ops_per_tenant=ops_per_tenant,
        mean_think_ns=mean_think_ns, seed=seed,
    )
    topology = clean_spec.topology()
    # Horizon estimate: every tenant thinks ~mean between its ops.
    horizon = 2 * ops_per_tenant * mean_think_ns
    plan = FaultPlan.random_scale(seed, topology, horizon, events=fault_events)
    faulted_spec = ScaleSpec.from_dict({
        **clean_spec.to_dict(),
        "faults": faults_from_plan(plan, topology),
    })

    report = ScaleChaosReport(faulted_spec, partitions)
    report.fault_log = [
        (e.at_ns, e.kind,
         f"{e.params['gid']} x{e.params['factor']} for {e.params['duration_ns']}ns")
        for e in plan.sorted_events()
    ]

    clean = run_scale(clean_spec, partitions=1)
    base = run_scale(faulted_spec, partitions=1)
    other = run_scale(faulted_spec, partitions=partitions)

    report.clean_digest = clean.digest()
    report.digests = {1: base.digest(), partitions: other.digest()}
    report.completed = other.completed
    report.expected = (racks * nodes_per_rack * tenants_per_node
                       * ops_per_tenant)
    report.clean_mean_ns = clean.mean_latency_ns()
    report.faulted_mean_ns = base.mean_latency_ns()
    report.windows = other.windows

    report.invariants = {
        "digests_match": base.digest() == other.digest(),
        "faults_applied": base.digest() != clean.digest(),
        "all_ops_complete": other.completed == report.expected,
        "latency_degraded": report.faulted_mean_ns >= report.clean_mean_ns,
    }
    return report
