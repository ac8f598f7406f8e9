"""The cluster-scale qconnect-storm model: a partitionable workload.

This is the serverless-burst scenario of the paper's §5.3 at rack scale:
hundreds of nodes, thousands of tenants, all ``qconnect``-ing at once.
Each node runs a control-plane *server* that admits connection requests
with the paper's qconnect service costs (Fig 8: uncached vs DCCache-hit);
tenants are open-loop request generators pinned to their home node.

The model is built to be **provably partition-independent**: every op's
completion timestamp is a pure function of the spec, regardless of how
many engine partitions execute it or whether partitions live in one
process or many.  The rules that make that true (and that the
equivalence suite enforces):

* Nodes interact **only through messages** — requests and responses with
  deterministic wire latency (in-rack vs spine).  Cross-rack messages
  always go through the partition channel layer, even when both racks
  share a partition, so buffering and injection timing never depend on
  the partition count.
* A node admits the requests arriving at one timestamp **in canonical
  order** ``(src_node, seq)``, not handler-dispatch order: arrivals
  buffer, and a single per-timestamp drain (scheduled behind every
  same-timestamp arrival — the engine dispatches same-timestamp work in
  schedule order) sorts them before serializing service on the node's
  accumulator clock.
* Per-tenant randomness comes from private integer LCG streams seeded
  from ``(spec.seed, node, tenant)``; nothing ever draws from a shared
  stream.
* Results are harvested as records and **sorted by op identity** before
  digesting, so aggregation cannot observe execution interleaving.

Faults (``spec.faults``) are node-local service-time degradations — the
gray ``node_slow`` windows of :mod:`repro.faults.plan` — applied by the
partition that owns the node, which keeps fault injection deterministic
at every partition count.
"""

import hashlib

from repro.cluster import timing
from repro.cluster.topology import RackTopology, plan_partitions
from repro.sim.partition import Partition, run_partitioned

#: Message kinds on the wire.
REQ = "qconnect.req"
RESP = "qconnect.resp"


class ScaleSpec:
    """Everything that determines a cluster-scale run, picklable + JSON-able.

    ``faults`` is a list of ``(node, at_ns, duration_ns, mult)`` tuples:
    node-local service-time multipliers over a window (see
    ``repro.faults.scale`` for deriving them from a ``FaultPlan``).
    """

    __slots__ = ("racks", "nodes_per_rack", "tenants_per_node",
                 "ops_per_tenant", "mean_think_ns", "cross_rack_frac",
                 "cached_frac", "seed", "faults")

    def __init__(self, racks=4, nodes_per_rack=4, tenants_per_node=2,
                 ops_per_tenant=8, mean_think_ns=20_000,
                 cross_rack_frac=0.35, cached_frac=0.5, seed=1,
                 faults=()):
        if racks * nodes_per_rack < 2:
            raise ValueError("the model needs at least two nodes")
        if ops_per_tenant < 1 or tenants_per_node < 1:
            raise ValueError("need at least one tenant issuing one op")
        if mean_think_ns < 1:
            raise ValueError("mean_think_ns must be >= 1")
        self.racks = int(racks)
        self.nodes_per_rack = int(nodes_per_rack)
        self.tenants_per_node = int(tenants_per_node)
        self.ops_per_tenant = int(ops_per_tenant)
        self.mean_think_ns = int(mean_think_ns)
        self.cross_rack_frac = float(cross_rack_frac)
        self.cached_frac = float(cached_frac)
        self.seed = int(seed)
        self.faults = tuple(tuple(f) for f in faults)

    def topology(self):
        return RackTopology(self.racks, self.nodes_per_rack)

    def to_dict(self):
        return {
            "racks": self.racks,
            "nodes_per_rack": self.nodes_per_rack,
            "tenants_per_node": self.tenants_per_node,
            "ops_per_tenant": self.ops_per_tenant,
            "mean_think_ns": self.mean_think_ns,
            "cross_rack_frac": self.cross_rack_frac,
            "cached_frac": self.cached_frac,
            "seed": self.seed,
            "faults": [list(f) for f in self.faults],
        }

    @classmethod
    def from_dict(cls, data):
        data = dict(data)
        data.pop("engine", None)  # schedule files from before PR 21 name an event core
        data["faults"] = [tuple(f) for f in data.pop("faults", [])]
        return cls(**data)

    def __repr__(self):
        return f"ScaleSpec({self.to_dict()!r})"


def digest_records(records):
    """SHA-256 over canonically ordered completion records.

    The equivalence suite's currency: identical digests mean every op
    completed at the same simulated time with the same outcome.
    """
    h = hashlib.sha256()
    for record in sorted(records):
        h.update(repr(record).encode())
        h.update(b"\n")
    return h.hexdigest()


_FIXED = 1 << 32


class _Lcg:
    """A private 64-bit LCG stream (same constants as LinkFault's)."""

    __slots__ = ("state",)

    def __init__(self, seed):
        # splitmix-style scramble so nearby seeds diverge immediately.
        state = (seed + 0x9E3779B97F4A7C15) % (1 << 64)
        state = ((state ^ (state >> 30)) * 0xBF58476D1CE4E5B9) % (1 << 64)
        self.state = state or 1

    def draw32(self):
        self.state = (self.state * 6364136223846793005 + 1442695040888963407) % (1 << 64)
        return self.state >> 32

    def below(self, bound):
        return self.draw32() % bound

    def chance(self, frac_fixed):
        return self.draw32() < frac_fixed


class _NodeState:
    """One node's control-plane server, partition-local."""

    __slots__ = ("node", "busy_until_ns", "arrivals", "drain_scheduled",
                 "slow_windows", "served")

    def __init__(self, node, slow_windows):
        self.node = node
        self.busy_until_ns = 0
        self.arrivals = []
        self.drain_scheduled = False
        #: Sorted (start_ns, end_ns, mult) windows; consulted at service start.
        self.slow_windows = slow_windows
        self.served = 0

    def slow_mult(self, at_ns):
        for start, end, mult in self.slow_windows:
            if start <= at_ns < end:
                return mult
            if start > at_ns:
                break
        return 1.0


class _ScaleState:
    """Partition-local model state, hung off the Partition object."""

    __slots__ = ("spec", "topology", "assignment", "nodes", "records", "issued")

    def __init__(self, spec, topology, assignment):
        self.spec = spec
        self.topology = topology
        self.assignment = assignment
        self.nodes = {}
        self.records = []
        self.issued = 0


def _wire_ns(topology, src, dst):
    """One-way request/response latency between two nodes."""
    if topology.same_rack(src, dst):
        return timing.WIRE_ONE_WAY_NS
    return timing.INTER_RACK_ONE_WAY_NS


def _deliver(partition, state, src, dst, kind, payload, deliver_ns):
    """Route a message: channel for cross-rack, direct for rack-mates."""
    if state.topology.same_rack(src, dst):
        partition.send_direct(kind, payload, src, deliver_ns)
    else:
        dst_part = state.assignment.partition_of_node(dst)
        partition.send(dst_part, kind, payload, src, deliver_ns)


class _TenantIssue:
    """One tenant's next scheduled op (self-rescheduling callback)."""

    __slots__ = ("partition", "state", "node", "tenant", "op_index", "lcg")

    def __init__(self, partition, state, node, tenant, op_index, lcg):
        self.partition = partition
        self.state = state
        self.node = node
        self.tenant = tenant
        self.op_index = op_index
        self.lcg = lcg

    def __call__(self):
        state = self.state
        spec = state.spec
        sim = self.partition.sim
        topology = state.topology
        now = sim.now

        cross = self.lcg.chance(int(spec.cross_rack_frac * _FIXED))
        my_rack = topology.rack_of(self.node)
        if cross and topology.racks > 1:
            # Uniform over nodes outside my rack, by skipping my block.
            total = topology.num_nodes - topology.nodes_per_rack
            pick = self.lcg.below(total)
            base = my_rack * topology.nodes_per_rack
            target = pick if pick < base else pick + topology.nodes_per_rack
        elif topology.nodes_per_rack > 1:
            pick = self.lcg.below(topology.nodes_per_rack - 1)
            base = my_rack * topology.nodes_per_rack
            target = base + pick + (1 if base + pick >= self.node else 0)
        else:
            # Single-node racks cannot connect in-rack; force cross-rack.
            pick = self.lcg.below(topology.num_nodes - 1)
            target = pick + (1 if pick >= self.node else 0)
        cached = 1 if self.lcg.chance(int(spec.cached_frac * _FIXED)) else 0

        payload = (target, self.node, self.tenant, self.op_index, now, cached)
        state.issued += 1
        _deliver(self.partition, state, self.node, target, REQ, payload,
                 now + _wire_ns(topology, self.node, target))

        next_index = self.op_index + 1
        if next_index < spec.ops_per_tenant:
            self.op_index = next_index
            sim.schedule(1 + self.lcg.below(2 * spec.mean_think_ns), self)


class _Drain:
    """Per-(node, timestamp) canonical admission of buffered arrivals."""

    __slots__ = ("partition", "state", "node_state")

    def __init__(self, partition, state, node_state):
        self.partition = partition
        self.state = state
        self.node_state = node_state

    def __call__(self):
        ns = self.node_state
        ns.drain_scheduled = False
        arrivals, ns.arrivals = ns.arrivals, []
        # Canonical admission order: (src_node, seq) — handler dispatch
        # order (which may legally vary around the partition boundary)
        # never reaches the service accumulator.
        arrivals.sort(key=lambda pair: pair[0])
        state = self.state
        topology = state.topology
        now = self.partition.sim.now
        busy = ns.busy_until_ns
        if busy < now:
            busy = now
        for _key, payload in arrivals:
            _target, src, tenant, op_index, issue_ns, cached = payload
            base = (timing.QCONNECT_CACHED_SERVICE_NS if cached
                    else timing.QCONNECT_UNCACHED_SERVICE_NS)
            busy += int(base * ns.slow_mult(busy))
            ns.served += 1
            resp = (src, tenant, op_index, issue_ns, cached, ns.node)
            _deliver(self.partition, state, ns.node, src, RESP, resp,
                     busy + _wire_ns(topology, ns.node, src))
        ns.busy_until_ns = busy


def _on_request(partition, msg):
    state = partition.scale_state
    ns = state.nodes[msg.payload[0]]
    ns.arrivals.append(((msg.src_node, msg.seq), msg.payload))
    if not ns.drain_scheduled:
        ns.drain_scheduled = True
        # Runs at this same timestamp, after every arrival handler already
        # scheduled for it (the engine dispatches same-ts work in schedule
        # order, and all arrivals at t were scheduled strictly before t).
        partition.sim.schedule(0, _Drain(partition, state, ns))


def _on_response(partition, msg):
    state = partition.scale_state
    src, tenant, op_index, issue_ns, cached, server = msg.payload
    state.records.append(
        (src, tenant, op_index, server, issue_ns, partition.sim.now, cached)
    )


class _Harvest:
    """Picklable harvest callable (mp workers ship it back verbatim)."""

    __slots__ = ("partition",)

    def __init__(self, partition):
        self.partition = partition

    def __call__(self):
        state = self.partition.scale_state
        return {
            "records": state.records,
            "issued": state.issued,
            "served": {node: ns.served for node, ns in state.nodes.items()
                       if ns.served},
            "events_dispatched": self.partition.sim.events_dispatched,
            "messages_sent": self.partition.messages_sent,
        }


def build_scale_partition(args, index):
    """Build one partition of the qconnect-storm model.

    ``args`` is ``(spec, num_partitions)``; module-level so the ``mp``
    mode can import it by reference into worker processes.
    """
    spec, num_partitions = args
    topology = spec.topology()
    assignment = plan_partitions(topology, num_partitions)
    partition = Partition(index, num_partitions, timing.INTER_RACK_ONE_WAY_NS)
    state = _ScaleState(spec, topology, assignment)
    partition.scale_state = state
    partition.register(REQ, _on_request)
    partition.register(RESP, _on_response)

    slow_by_node = {}
    for node, at_ns, duration_ns, mult in spec.faults:
        slow_by_node.setdefault(node, []).append(
            (int(at_ns), int(at_ns) + int(duration_ns), float(mult))
        )

    for node in assignment.nodes_of_partition(index):
        state.nodes[node] = _NodeState(node, sorted(slow_by_node.get(node, ())))
        for tenant in range(spec.tenants_per_node):
            lcg = _Lcg((spec.seed * 1_000_003 + node) * 1_000_003 + tenant)
            issue = _TenantIssue(partition, state, node, tenant, 0, lcg)
            # First op after one think-time draw, so tenants don't all
            # fire at t=0.
            partition.sim.schedule(1 + lcg.below(2 * spec.mean_think_ns), issue)
    partition.harvest = _Harvest(partition)
    return partition


class ScaleResult:
    """Merged, canonically ordered outcome of one cluster-scale run."""

    __slots__ = ("spec", "partitions", "mode", "records", "issued", "served",
                 "windows", "cross_messages", "events_dispatched", "wall_s",
                 "partition_compute_s", "coordinator_s")

    def __init__(self, spec, partitions, mode, records, issued, served,
                 windows, cross_messages, events_dispatched,
                 partition_compute_s=(), coordinator_s=0.0):
        self.spec = spec
        self.partitions = partitions
        self.mode = mode
        self.records = records
        self.issued = issued
        self.served = served
        self.windows = windows
        self.cross_messages = cross_messages
        self.events_dispatched = events_dispatched
        self.wall_s = None
        self.partition_compute_s = list(partition_compute_s)
        self.coordinator_s = coordinator_s

    @property
    def completed(self):
        return len(self.records)

    @property
    def horizon_ns(self):
        return max((r[5] for r in self.records), default=0)

    def throughput_per_sec(self):
        """Simulated qconnect completions per simulated second."""
        horizon = self.horizon_ns
        if horizon <= 0:
            return 0.0
        return self.completed * 1e9 / horizon

    def digest(self):
        """See :func:`digest_records` (records are already sorted here)."""
        return digest_records(self.records)

    def mean_latency_ns(self):
        if not self.records:
            return 0.0
        return sum(r[5] - r[4] for r in self.records) / len(self.records)

    @property
    def critical_path_s(self):
        """Wall seconds the run would take given one core per partition.

        The slowest partition's own compute plus the coordinator's serial
        overhead — the honest speedup measure when the host has fewer
        cores than partitions (partitions then timeshare one core and raw
        wall time cannot show the split).
        """
        peak = max(self.partition_compute_s) if self.partition_compute_s else 0.0
        return peak + self.coordinator_s

    def qconnects_per_wall_sec(self, seconds=None):
        """Completed qconnects per wall-clock second of engine compute."""
        seconds = self.critical_path_s if seconds is None else seconds
        if not seconds or seconds <= 0:
            return 0.0
        return self.completed / seconds


def run_scale(spec, partitions=1, mode="inline", mp_context=None):
    """Run the qconnect-storm model over ``partitions`` engine partitions."""
    result = run_partitioned(
        build_scale_partition, (spec, partitions), partitions,
        timing.INTER_RACK_ONE_WAY_NS, mode=mode, mp_context=mp_context,
    )
    records = []
    issued = 0
    served = {}
    for harvest in result.harvests:
        records.extend(harvest["records"])
        issued += harvest["issued"]
        served.update(harvest["served"])
    records.sort()
    return ScaleResult(
        spec=spec,
        partitions=partitions,
        mode=result.mode,
        records=records,
        issued=issued,
        served=served,
        windows=result.windows,
        cross_messages=result.cross_messages,
        events_dispatched=result.events_dispatched,
        partition_compute_s=result.partition_compute_s,
        coordinator_s=result.coordinator_s,
    )
