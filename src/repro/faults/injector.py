"""The fault injector: walks a FaultPlan inside the simulation.

One driver process sleeps between the plan's (sorted) timestamps and
applies each event when it falls due.  Link faults are installed with a
private LCG seeded from ``(plan.seed, event index)``, so the packet-level
drop/duplicate draws are reproducible run-to-run regardless of how many
packets the workload pushes through.

A node crash also retracts the victim's DCT metadata from the meta
server, playing the role of the deployment's failure detector (§4.2:
metadata is "only invalidated when the host is down").  The restart
event reboots the node and then calls the harness-supplied ``on_restart``
hook, which is responsible for reloading the software stack (KRCORE
module, MR registrations) exactly like an operator would.
"""

from repro import obs
from repro.cluster.fabric import LinkFault
from repro.faults import plan as plan_mod

#: The fault kinds :meth:`FaultInjector.start` accepts: every kind
#: :mod:`repro.faults.plan` builds.
APPLIED_KINDS = frozenset((
    plan_mod.LINK_FAULT, plan_mod.GRAY_LINK, plan_mod.RNIC_STALL,
    plan_mod.NODE_CRASH, plan_mod.NODE_RESTART, plan_mod.META_OUTAGE,
    plan_mod.META_LAG, plan_mod.RNIC_DEGRADE,
))
_LINK_KINDS = (plan_mod.LINK_FAULT, plan_mod.GRAY_LINK)
#: Event parameters that name a node.
_GID_PARAMS = ("gid", "src_gid", "dst_gid")


class FaultInjector:
    """Applies a :class:`~repro.faults.plan.FaultPlan` to a cluster."""

    def __init__(self, cluster, meta_server, plan, on_restart=None):
        self.cluster = cluster
        self.sim = cluster.sim
        self.fabric = cluster.fabric
        self.meta_server = meta_server
        self.plan = plan
        self.on_restart = on_restart
        self._nodes = {node.gid: node for node in cluster.nodes}
        #: Applied (timestamp, kind, summary) triples, for reports.
        self.applied = []

    def start(self):
        """Check every event against the cluster, then spawn the driver
        process; returns self for chaining.

        A kind the injector cannot apply, or a gid that names no node,
        raises ``ValueError`` here -- before simulated time passes, not
        at the event's fire time.  (Not at construction: callers may
        append events to the plan until the run starts.)
        """
        events = self.plan.sorted_events()
        for event in events:
            if event.kind not in APPLIED_KINDS:
                raise ValueError(
                    f"the injector cannot apply {event.kind!r} faults "
                    f"(event at t={event.at_ns})"
                )
            for name in _GID_PARAMS:
                if name in event.params and event.params[name] not in self._nodes:
                    raise ValueError(
                        f"{event.kind} at t={event.at_ns}: no node "
                        f"{event.params[name]!r} in the cluster"
                    )
        self.sim.process(self._driver(events), name="fault-injector")
        return self

    # -------------------------------------------------------------- driver

    def _driver(self, events):
        for index, event in enumerate(events):
            delay = event.at_ns - self.sim.now
            if delay > 0:
                yield delay
            self._apply(index, event)
        yield 0

    def _apply(self, index, event):
        params = event.params
        kind = event.kind
        if kind in _LINK_KINDS:
            src, dst = params["src_gid"], params["dst_gid"]
            knobs = {
                name: value for name, value in params.items()
                if name not in ("src_gid", "dst_gid", "duration_ns")
            }
            self.fabric.set_link_fault(
                src, dst,
                LinkFault(seed=self.plan.seed * 1_000_003 + index, **knobs),
            )
            self.sim.schedule(
                params["duration_ns"],
                lambda: self.fabric.clear_link_fault(src, dst),
            )
            if kind == plan_mod.GRAY_LINK:
                summary = f"{src}->{dst} x{params['latency_mult']}"
            else:
                summary = (
                    f"{src}->{dst} drop={params['drop_prob']} "
                    f"dup={params['dup_prob']}"
                )
        elif kind == plan_mod.RNIC_STALL:
            node = self._nodes[params["gid"]]
            self.sim.process(
                node.rnic.stall(params["duration_ns"], engine=params["engine"]),
                name=f"fault-stall@{node.gid}",
            )
            summary = f"{node.gid} {params['engine']} {params['duration_ns']}ns"
        elif kind == plan_mod.NODE_CRASH:
            node = self._nodes[params["gid"]]
            node.fail()
            # The failure detector: §4.2 invalidates a dead host's DCT
            # metadata at the meta server.  Remote DCCaches stay stale on
            # purpose -- hitting them exercises revalidation.
            self.meta_server.retract_node(node.gid)
            summary = node.gid
        elif kind == plan_mod.NODE_RESTART:
            node = self._nodes[params["gid"]]
            node.restart()
            if self.on_restart is not None:
                self.on_restart(node)
            summary = node.gid
        elif kind == plan_mod.META_OUTAGE:
            shard = params.get("shard")
            self.meta_server.set_outage(params["duration_ns"], shard=shard)
            summary = f"{params['duration_ns']}ns"
            if shard is not None:
                summary += f" shard={shard}"
        elif kind == plan_mod.META_LAG:
            shard = params.get("shard")
            self.meta_server.set_lag(
                params["duration_ns"], params["extra_ns"], shard=shard
            )
            summary = f"+{params['extra_ns']}ns for {params['duration_ns']}ns"
            if shard is not None:
                summary += f" shard={shard}"
        else:  # RNIC_DEGRADE, the last kind start() accepts
            node = self._nodes[params["gid"]]
            node.rnic.set_degraded(params["duration_ns"], params["factor"])
            summary = f"{node.gid} x{params['factor']} {params['duration_ns']}ns"
        if obs.OBSERVER is not None:
            obs.OBSERVER.on_fault_injected(self.sim.now, kind, summary)
        self.applied.append((self.sim.now, kind, summary))
