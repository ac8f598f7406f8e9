"""Model-checking scenarios: small workloads with many real interleavings.

Each scenario is a function ``fn(controller, checker, **kwargs)`` that
builds its own :class:`~repro.sim.Simulator`, attaches the controller
(so the strategy owns same-timestamp dispatch order), runs a workload
exercising one slice of the control plane, calls
``checker.finalize(...)`` (a chaos run does that itself, see
:mod:`repro.faults.chaos`), and returns a small summary dict.  The
runner (:mod:`repro.check.runner`) supplies the controller/checker and
handles strategy sweeps, replay, and shrinking.

Scenario catalogue
------------------

``racey_pipeline``
    A deliberately order-sensitive producer/consumer toy on the bare
    engine: under FIFO the producers of each round always run before the
    consumers, under reordering a consumer can drain an empty buffer.
    Exists to validate the controller + shrinker end-to-end (a failure
    here is a *scenario* property, not a control-plane bug).
``pool_churn``
    Tiny RC pools (``max_rc_per_cpu=1``) with cross-traffic between
    three nodes and a low background-RC threshold: establish / accept /
    LRU-evict / retire races, plus a thread-migration retarget.  Drives
    the pool-accounting, DCCache, and completion-dispatch invariants.
``chaos_small``
    A shrunk chaos run (crash + restart + meta outage over a sharded
    plane) with the full invariant registry attached and the chaos
    harness's own invariants folded in.
``batch_fault``
    Doorbell-batched WR chains (``QueuePair.post_send_batch``) posted
    over a lossy link with a tiny retry budget: some chain hits a
    mid-chain RETRY_EXC and wrecks the QP, and the ``batch-exactly-once``
    invariant must still hold -- every chain member completes exactly
    once (successors flush, none dropped, none duplicated).  The QP is
    reconfigured between chains so later chains run on a clean queue.
``kvs_lin``
    Concurrent 8-byte one-sided READ/WRITEs against per-key server
    slots with every op recorded; the Wing & Gong checker must find the
    per-key histories linearizable under *any* schedule.
``meta_failover``
    MR publication / retraction over a replicated 3-shard plane with
    per-shard outage windows; checks replica convergence and records
    the lookup histories (reported, not enforced: a failover read from
    a not-yet-converged replica is legal for this plane, which only
    guarantees convergence -- see DESIGN.md §10).
``mr_churn``
    The MicroView churn-chaos harness (pod dereg/re-register storms +
    meta outage + stale accepts) under the full registry, most notably
    ``mr-read-churn-window``: no schedule may let a READ execute
    against an MR retracted more than one lease ago.
"""

from collections import deque

from repro.check.linearizability import record_invoke, record_response
from repro.obs import current_tracer

__all__ = ["SCENARIOS", "get_scenario", "scenario"]

US = 1_000
MS = 1_000_000

SCENARIOS = {}


class ScenarioSpec:
    __slots__ = ("name", "fn", "lin", "defaults", "doc")

    def __init__(self, name, fn, lin, defaults):
        self.name = name
        self.fn = fn
        self.lin = lin
        self.defaults = dict(defaults)
        self.doc = (fn.__doc__ or "").strip().splitlines()[0] if fn.__doc__ else ""


def scenario(name, lin=False, **defaults):
    """Register a scenario.  ``lin=True`` makes the runner *enforce*
    linearizability of the recorded histories (it always reports)."""

    def decorate(fn):
        SCENARIOS[name] = ScenarioSpec(name, fn, lin, defaults)
        return fn

    return decorate


def get_scenario(name):
    spec = SCENARIOS.get(name)
    if spec is None:
        known = ", ".join(sorted(SCENARIOS))
        raise KeyError(f"unknown scenario {name!r} (known: {known})")
    return spec


# --------------------------------------------------------------- racey toy


@scenario("racey_pipeline", rounds=4, lanes=3, gap_ns=1 * US)
def racey_pipeline(controller, checker, rounds=4, lanes=3, gap_ns=1 * US):
    """Order-sensitive producer/consumer toy (controller validation)."""
    from repro.sim import Simulator

    sim = Simulator()
    controller.attach(sim)
    buffer = deque()
    stats = {"produced": 0, "consumed": 0, "underflows": 0}

    def producer(lane):
        for _ in range(rounds):
            yield gap_ns
            buffer.append(lane)
            stats["produced"] += 1

    def consumer(lane):
        for _ in range(rounds):
            yield gap_ns
            if buffer:
                buffer.popleft()
                stats["consumed"] += 1
            else:
                stats["underflows"] += 1
                checker.custom(
                    "racey-underflow",
                    sim.now,
                    f"consumer {lane} drained an empty buffer "
                    f"(round boundary t={sim.now})",
                )

    # Producers first: FIFO start order makes every round produce before
    # it consumes, so the toy is safe under the engine's own schedule.
    for lane in range(lanes):
        sim.process(producer(lane), name=f"producer-{lane}")
    for lane in range(lanes):
        sim.process(consumer(lane), name=f"consumer-{lane}")
    sim.run()
    checker.finalize(now=sim.now)
    return stats


# ------------------------------------------------------------- pool churn


def _boot_region(module, meta, slots=8, slot_bytes=64):
    """Register + boot-publish a server data region (harness idiom)."""
    node = module.node
    length = slots * slot_bytes
    addr = node.memory.alloc(length)
    region = node.memory.register(addr, length)
    module.valid_mr.record(region)
    meta.publish_mr(node.gid, region.rkey, region.addr, region.length)
    return addr, region


@scenario("pool_churn", ops=6, gap_ns=4 * US, rc_threshold=3)
def pool_churn(controller, checker, ops=6, gap_ns=4 * US, rc_threshold=3):
    """RC establish/accept/evict/retire churn with 1-entry RC pools."""
    from repro.cluster import Cluster
    from repro.krcore import KrcoreLib, KrcoreModule, MetaServer
    from repro.sim import Simulator

    sim = Simulator()
    controller.attach(sim)
    cluster = Cluster(sim, num_nodes=4, cores=2)
    meta = MetaServer(cluster.node(0))
    nodes = [cluster.node(i) for i in range(1, 4)]
    modules = {}
    for node in cluster.nodes:
        modules[node.gid] = KrcoreModule(
            node,
            meta,
            dc_per_cpu=1,
            max_rc_per_cpu=1,
            background_rc=True,
            rc_traffic_threshold=rc_threshold,
        )
    regions = {node.gid: _boot_region(modules[node.gid], meta) for node in nodes}
    scratch_bytes = 64
    done = {"clients": 0}

    def client(node):
        # Read both peers round-robin from CPU 0: with a 1-entry RC pool
        # and two hot targets, background RC creation keeps evicting.
        lib = KrcoreLib(node, cpu_id=0)
        module = modules[node.gid]
        scratch = node.memory.alloc(scratch_bytes)
        sregion = yield from module.reg_mr(scratch, scratch_bytes)
        peers = [peer for peer in nodes if peer.gid != node.gid]
        vqps = {}
        for peer in peers:
            vqp = yield from lib.create_vqp()
            yield from lib.qconnect(vqp, peer.gid)
            vqps[peer.gid] = vqp
        for index in range(ops):
            yield gap_ns
            for peer in peers:
                base, region = regions[peer.gid]
                yield from lib.read_sync(
                    vqps[peer.gid], scratch, sregion.lkey,
                    base, region.rkey, scratch_bytes,
                )
        # Thread migration: retarget one VQP onto CPU 1's pool mid-flight,
        # then prove it still works.
        victim = peers[0]
        yield from module.migrate_vqp(vqps[victim.gid], 1)
        base, region = regions[victim.gid]
        yield from lib.read_sync(
            vqps[victim.gid], scratch, sregion.lkey,
            base, region.rkey, scratch_bytes,
        )
        done["clients"] += 1

    for node in nodes:
        sim.process(client(node), name=f"churn-client@{node.gid}")
    sim.run()
    plane = modules[nodes[0].gid].meta_plane
    checker.finalize(modules=modules.values(), plane=plane, now=sim.now)
    return {
        "clients_done": done["clients"],
        "rc_inserts": checker.observed.get("pool.insert", 0),
        "rc_retires": checker.observed.get("pool.retire", 0),
    }


# ------------------------------------------------------------ small chaos


@scenario("chaos_small", seed=11, ops_per_client=12)
def chaos_small(controller, checker, seed=11, ops_per_client=12):
    """A shrunk chaos run (crash+restart+outage) under the registry."""
    from repro.faults.harness import ChaosHarness
    from repro.faults.plan import FaultPlan

    plan = (
        FaultPlan(seed)
        .crash_node(2 * MS, "node2")
        .restart_node(4 * MS, "node2")
        .meta_outage(5 * MS, 1 * MS)
    )
    harness = ChaosHarness(
        seed, plan, ops_per_client=ops_per_client, meta_shards=2
    )
    controller.attach(harness.sim)
    report = harness.run()
    for name, holds in sorted(report.invariants.items()):
        if not holds:
            checker.custom(
                f"chaos-{name}", harness.sim.now,
                f"chaos harness invariant {name} failed ({report.summary()})",
            )
    return {
        "report_digest": report.digest(),
        "ops_ok": report.ops_ok,
        "ops_failed": report.ops_failed,
        "faults": len(report.fault_log),
    }


# ------------------------------------------------------- batched chains


@scenario("batch_fault", chains=3, chain=5, drop_pct=35, seed=9)
def batch_fault(controller, checker, chains=3, chain=5, drop_pct=35, seed=9):
    """Batched WR chains over a lossy link (batch-exactly-once)."""
    from repro.cluster import Cluster
    from repro.cluster.fabric import LinkFault
    from repro.sim import Simulator
    from repro.verbs import (
        CompletionQueue, DriverContext, QpState, QpType, WcStatus, WorkRequest,
    )

    sim = Simulator()
    controller.attach(sim)
    cluster = Cluster(sim, num_nodes=2)
    node_a, node_b = cluster.node(0), cluster.node(1)
    cq = CompletionQueue(sim)
    ctx_a = DriverContext(node_a, kernel=True)
    ctx_b = DriverContext(node_b, kernel=True)
    # A tiny retry budget so a couple of consecutive drops escalate to
    # RETRY_EXC quickly instead of riding out the full timeout ladder.
    qp_a = ctx_a.create_qp_fast(QpType.RC, cq, recv_cq=cq, sq_depth=64)
    qp_a.retry_cnt = 1
    qp_a.timeout_ns = 2 * US
    qp_b = ctx_b.create_qp_fast(QpType.RC, cq, recv_cq=cq, sq_depth=64)
    qp_a.to_init(); qp_a.to_rtr((node_b.gid, qp_b.qpn)); qp_a.to_rts()
    qp_b.to_init(); qp_b.to_rtr((node_a.gid, qp_a.qpn)); qp_b.to_rts()
    nbytes = 32
    src = node_a.memory.alloc(nbytes)
    dst = node_b.memory.alloc(nbytes)
    lregion = node_a.memory.register(src, nbytes)
    rregion = node_b.memory.register(dst, nbytes)
    cluster.fabric.set_link_fault(
        node_a.gid, node_b.gid, LinkFault(drop_prob=drop_pct / 100, seed=seed)
    )
    stats = {"success": 0, "retry_exc": 0, "flushed": 0, "repairs": 0}

    def client():
        for round_no in range(chains):
            wrs = [
                WorkRequest.write(
                    src, nbytes, lregion.lkey, dst, rregion.rkey,
                    wr_id=round_no * 100 + index,
                )
                for index in range(chain)
            ]
            qp_a.post_send_batch(wrs)
            drained = 0
            while drained < chain:
                completions = yield from cq.wait_poll(chain - drained)
                for wc in completions:
                    drained += wc.covers
                    if wc.status is WcStatus.SUCCESS:
                        stats["success"] += 1
                    elif wc.status is WcStatus.FLUSH_ERR:
                        stats["flushed"] += 1
                    else:
                        stats["retry_exc"] += 1
            if qp_a.state is not QpState.RTS:
                stats["repairs"] += 1
                yield from qp_a.reconfigure()

    sim.process(client(), name="batch-client")
    sim.run()
    checker.finalize(now=sim.now)
    return stats


# ------------------------------------------------------- linearizable KVS


@scenario("kvs_lin", lin=True, seed=3, clients=3, ops=8, keys=4)
def kvs_lin(controller, checker, seed=3, clients=3, ops=8, keys=4):
    """Concurrent 8-byte one-sided ops; histories must linearize."""
    import random

    from repro.cluster import Cluster
    from repro.krcore import KrcoreLib, KrcoreModule, MetaServer
    from repro.sim import Simulator

    sim = Simulator()
    controller.attach(sim)
    cluster = Cluster(sim, num_nodes=2 + clients)
    meta = MetaServer(cluster.node(0))
    server = cluster.node(1)
    client_nodes = [cluster.node(2 + i) for i in range(clients)]
    modules = {
        node.gid: KrcoreModule(node, meta, background_rc=False)
        for node in cluster.nodes
    }
    slot_bytes = 8
    base, region = _boot_region(modules[server.gid], meta, slots=keys,
                                slot_bytes=slot_bytes)
    stats = {"ops": 0}

    def client(cnum, node):
        rng = random.Random(seed * 1009 + cnum)
        tracer = current_tracer()
        lib = KrcoreLib(node, cpu_id=0)
        module = modules[node.gid]
        scratch = node.memory.alloc(slot_bytes)
        sregion = yield from module.reg_mr(scratch, slot_bytes)
        vqp = yield from lib.create_vqp()
        yield from lib.qconnect(vqp, server.gid)
        for index in range(ops):
            yield rng.randrange(1, 3 * US)
            key = rng.randrange(keys)
            raddr = base + key * slot_bytes
            if rng.random() < 0.5:
                value = (cnum + 1) * 1000 + index + 1
                node.memory.write(scratch, value.to_bytes(slot_bytes, "big"))
                aid = record_invoke(tracer, sim.now, f"k{key}", "w",
                                    f"c{cnum}", value=value)
                yield from lib.write_sync(
                    vqp, scratch, sregion.lkey, raddr, region.rkey, slot_bytes
                )
                record_response(tracer, sim.now, aid)
            else:
                aid = record_invoke(tracer, sim.now, f"k{key}", "r", f"c{cnum}")
                yield from lib.read_sync(
                    vqp, scratch, sregion.lkey, raddr, region.rkey, slot_bytes
                )
                value = int.from_bytes(node.memory.read(scratch, slot_bytes), "big")
                record_response(tracer, sim.now, aid, value=value)
            stats["ops"] += 1

    for cnum, node in enumerate(client_nodes):
        sim.process(client(cnum, node), name=f"lin-client-{cnum}")
    sim.run()
    checker.finalize(
        modules=modules.values(),
        plane=modules[server.gid].meta_plane,
        now=sim.now,
    )
    return stats


# ----------------------------------------------------------- meta failover


@scenario("meta_failover", seed=5, writers=2, rounds=3, shards=3)
def meta_failover(controller, checker, seed=5, writers=2, rounds=3, shards=3):
    """MR publish/retract over a replicated plane with shard outages."""
    from repro.cluster import Cluster
    from repro.krcore import KrcoreModule, MetaPlane, MetaServer
    from repro.sim import Simulator

    sim = Simulator()
    controller.attach(sim)
    cluster = Cluster(sim, num_nodes=shards + writers)
    shard_nodes = [cluster.node(i) for i in range(shards)]
    writer_nodes = [cluster.node(shards + i) for i in range(writers)]
    plane = MetaPlane([MetaServer(node) for node in shard_nodes])
    modules = {
        node.gid: KrcoreModule(node, plane, background_rc=False)
        for node in cluster.nodes
    }
    stats = {"published": 0, "lookups": 0, "lookup_failures": 0}

    def outages():
        # One staggered outage window per shard; lookups must fail over.
        for index in range(shards):
            yield 300 * US
            plane.set_outage(400 * US, shard=index)

    def writer(wnum, node):
        # Each writer churns its *own* MR records (distinct keys: two
        # writers never race on one key, so convergence is well-defined).
        tracer = current_tracer()
        module = modules[node.gid]
        length = 64
        for index in range(rounds):
            yield 200 * US
            addr = node.memory.alloc(length)
            aid = record_invoke(
                tracer, sim.now, f"mr:{node.gid}", "w", f"w{wnum}", value=addr
            )
            region = yield from module.reg_mr(addr, length)
            # Publication rides async kernel messages: the write is only
            # known applied once a later lookup observes it, so the op
            # stays open-ended (see linearizability.Op).
            del aid
            stats["published"] += 1
            yield 200 * US
            for reader_gid in sorted(modules):
                if reader_gid == node.gid:
                    continue
                reader = modules[reader_gid]
                raid = record_invoke(
                    tracer, sim.now, f"mr:{node.gid}", "r", reader_gid
                )
                try:
                    record = yield from reader.plane_lookup_mr(
                        0, node.gid, region.rkey
                    )
                except Exception:
                    # No answer is not an observation: leave the op
                    # incomplete (extract_histories drops open reads).
                    stats["lookup_failures"] += 1
                else:
                    # A reachable shard with no record observes the
                    # initial state (0, the register checker's default).
                    record_response(
                        tracer, sim.now, raid,
                        value=0 if record is None else record[0],
                    )
                stats["lookups"] += 1
            if index + 1 < rounds:
                yield from module.dereg_mr(region)

    sim.process(outages(), name="meta-outages")
    for wnum, node in enumerate(writer_nodes):
        sim.process(writer(wnum, node), name=f"meta-writer-{wnum}")
    sim.run()
    checker.finalize(modules=modules.values(), plane=plane, now=sim.now)
    return stats


# --------------------------------------------------------------- MR churn


@scenario("mr_churn", seed=5, cycles=14)
def mr_churn(controller, checker, seed=5, cycles=14):
    """MicroView pod churn + meta outage under the churn-window invariant."""
    from repro.faults.microview import MicroViewChaosHarness

    harness = MicroViewChaosHarness(seed, cycles=cycles)
    controller.attach(harness.sim)
    report = harness.run()
    # Fold in the harness's schedule-independent correctness invariants.
    # degraded_mode_engaged is deliberately left out: whether the outage
    # catches enough expired entries is scenario *effectiveness*, and a
    # reordered schedule may legally shift the epoch-roll/outage overlap.
    for name in ("harvest_progress", "shared_qp_healthy", "churn_and_faults_applied"):
        if not report.invariants[name]:
            checker.custom(
                f"microview-{name}", harness.sim.now,
                f"microview harness invariant {name} failed ({report.summary()})",
            )
    return {
        "report_digest": report.digest(),
        "cycles": report.cycles,
        "failed_reads": report.failed_reads,
        "churns": report.churns,
        "stale_accepts": report.stale_accepts,
        "reads_after_retract": checker.observed.get("mr.read_after_retract", 0),
    }
