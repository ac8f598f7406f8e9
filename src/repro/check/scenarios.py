"""Model-checking scenarios: small workloads that drive one slice each.

Each scenario is a function ``fn(checker)`` that builds its own
deployment (with :func:`~repro.bench.setups.krcore_cluster` where it
runs KRCORE), runs a workload exercising one slice of the control plane
to quiescence under the engine's own order, calls
``checker.finalize(...)`` and returns a small summary dict.  A scenario
that drives a chaos run returns ``(run, summary)`` instead: the run
finalizes the checker itself (see :mod:`repro.faults.chaos`) and the
runner folds its failed invariants in.  A scenario that checks
linearizability records its ops in ``checker.history``.  The runner
(:mod:`repro.check.runner`) installs the checker.

Scenario catalogue
------------------

``pool_churn``
    Tiny RC pools (``max_rc_per_cpu=1``) with cross-traffic between
    three nodes and a low background-RC threshold: establish / accept /
    LRU-evict / retire races, plus a thread-migration retarget.  Drives
    the pool-accounting, DCCache, and completion-dispatch invariants.
``chaos_small``
    A small chaos run (crash + restart + meta outage over a sharded
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
    per-key histories linearizable.
``meta_failover``
    MR publication / retraction over a replicated 3-shard plane with
    per-shard outage windows; checks replica convergence and records
    the lookup histories (reported, not enforced: a failover read from
    a not-yet-converged replica is legal for this plane, which only
    guarantees convergence -- see DESIGN.md §10).
``mr_churn``
    The MicroView churn-chaos harness (pod dereg/re-register storms +
    meta outage + stale accepts) under the full registry, most notably
    ``mr-read-churn-window``: no READ may execute against an MR
    retracted more than one lease ago.  It is the ``microview`` chaos
    run at seed 5, every harness invariant folded in.
``transfer_race``
    §4.6's fenced QP transfer under fire: two VQP owners keep two READs
    in flight each while background RC promotion and a thread
    migration move their VQPs between QPs.  Every post must land on
    the QP its owner polls: an owner left waiting fails
    ``transfer-owner-stranded``, a completion never dispatched
    ``wr-exactly-once``.
"""

from repro.bench.setups import krcore_cluster
from repro.check.linearizability import Op
from repro.cluster import Cluster
from repro.cluster.fabric import LinkFault
from repro.faults.harness import ChaosHarness
from repro.faults.microview import MicroViewChaosHarness
from repro.faults.plan import FaultPlan
from repro.krcore import KrcoreLib
from repro.sim import Simulator
from repro.verbs import CompletionQueue, DriverContext, QpState, QpType, WcStatus
from repro.verbs import WorkRequest, wire_rc_pair

__all__ = ["SCENARIOS", "get_scenario", "scenario"]

US = 1_000
MS = 1_000_000

#: Meta shards of ``meta_failover``'s replicated plane.
META_FAILOVER_SHARDS = 3

SCENARIOS = {}


class ScenarioSpec:
    __slots__ = ("name", "fn", "lin", "doc")

    def __init__(self, name, fn, lin):
        self.name = name
        self.fn = fn
        self.lin = lin
        self.doc = (fn.__doc__ or "").strip().splitlines()[0] if fn.__doc__ else ""


def scenario(name, lin=False):
    """Register a scenario.  ``lin=True`` makes the runner *enforce*
    linearizability of the recorded histories (it always reports)."""

    def decorate(fn):
        SCENARIOS[name] = ScenarioSpec(name, fn, lin)
        return fn

    return decorate


def get_scenario(name):
    spec = SCENARIOS.get(name)
    if spec is None:
        known = ", ".join(sorted(SCENARIOS))
        raise KeyError(f"unknown scenario {name!r} (known: {known})")
    return spec


def _krcore(**kwargs):
    """``krcore_cluster(**kwargs)`` with its modules keyed by gid."""
    sim, cluster, _, modules = krcore_cluster(**kwargs)
    return sim, cluster, {module.node.gid: module for module in modules}


def _boot_region(module, length=512):
    """A boot-published data region on ``module``'s node: ``(addr, region)``."""
    addr = module.node.memory.alloc(length)
    return addr, module.boot_mr(addr, length)


# ------------------------------------------------------------- pool churn


@scenario("pool_churn")
def pool_churn(checker):
    """RC establish/accept/evict/retire churn with 1-entry RC pools."""
    ops, gap_ns, rc_threshold = 6, 4 * US, 3
    sim, cluster, modules = _krcore(
        num_nodes=4, cores=2, dc_per_cpu=1, max_rc_per_cpu=1,
        background_rc=True, rc_traffic_threshold=rc_threshold,
    )
    nodes = cluster.nodes[1:]
    regions = {node.gid: _boot_region(modules[node.gid]) for node in nodes}
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


@scenario("chaos_small")
def chaos_small(checker):
    """A small chaos run (crash+restart+outage) under the registry."""
    seed = 11
    plan = (
        FaultPlan(seed)
        .crash_node(2 * MS, "node2")
        .restart_node(4 * MS, "node2")
        .meta_outage(5 * MS, 1 * MS)
    )
    harness = ChaosHarness(seed, plan, ops_per_client=12, meta_shards=2)
    report = harness.run()
    return harness, {
        "report_digest": report.digest(),
        "ops_ok": report.ops_ok,
        "ops_failed": report.ops_failed,
        "faults": len(report.fault_log),
    }


# ------------------------------------------------------- batched chains


@scenario("batch_fault")
def batch_fault(checker):
    """Batched WR chains over a lossy link (batch-exactly-once)."""
    chains, chain = 3, 5
    sim = Simulator()
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
    wire_rc_pair(qp_a, qp_b)
    nbytes = 32
    src = node_a.memory.alloc(nbytes)
    dst = node_b.memory.alloc(nbytes)
    lregion = node_a.memory.register(src, nbytes)
    rregion = node_b.memory.register(dst, nbytes)
    cluster.fabric.set_link_fault(
        node_a.gid, node_b.gid, LinkFault(drop_prob=0.35, seed=9)
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


@scenario("kvs_lin", lin=True)
def kvs_lin(checker):
    """Concurrent 8-byte one-sided ops; histories must linearize."""
    import random

    clients, ops, keys = 3, 8, 4
    sim, cluster, modules = _krcore(num_nodes=2 + clients, background_rc=False)
    server = cluster.node(1)
    client_nodes = cluster.nodes[2:]
    slot_bytes = 8
    base, region = _boot_region(modules[server.gid], keys * slot_bytes)
    stats = {"ops": 0}

    def client(cnum, node):
        rng = random.Random(3 * 1009 + cnum)
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
                op = Op(f"c{cnum}", "w", value, sim.now, None)
                checker.history.append((f"k{key}", op))
                yield from lib.write_sync(
                    vqp, scratch, sregion.lkey, raddr, region.rkey, slot_bytes
                )
            else:
                op = Op(f"c{cnum}", "r", None, sim.now, None)
                checker.history.append((f"k{key}", op))
                yield from lib.read_sync(
                    vqp, scratch, sregion.lkey, raddr, region.rkey, slot_bytes
                )
                op.value = int.from_bytes(node.memory.read(scratch, slot_bytes), "big")
            op.response = sim.now
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


@scenario("meta_failover")
def meta_failover(checker):
    """MR publish/retract over a replicated plane with shard outages."""
    writers, rounds, shards = 2, 3, META_FAILOVER_SHARDS
    sim, cluster, modules = _krcore(
        num_nodes=shards + writers, meta_shards=shards, background_rc=False
    )
    writer_nodes = cluster.nodes[shards:]
    # One shard comes back bare from krcore_cluster; every module holds
    # the plane either way.
    plane = modules[cluster.node(0).gid].meta_plane
    stats = {"published": 0, "lookups": 0, "lookup_failures": 0}

    def outages():
        # One staggered outage window per shard; lookups must fail over.
        for index in range(shards):
            yield 300 * US
            plane.set_outage(400 * US, shard=index)

    def writer(wnum, node):
        # Each writer churns its *own* MR records (distinct keys: two
        # writers never race on one key, so convergence is well-defined).
        module = modules[node.gid]
        length = 64
        for index in range(rounds):
            yield 200 * US
            addr = node.memory.alloc(length)
            # Publication rides async kernel messages: the write is only
            # known applied once a later lookup observes it, so the op
            # stays open-ended (see linearizability.Op).
            checker.history.append(
                (f"mr:{node.gid}", Op(f"w{wnum}", "w", addr, sim.now, None))
            )
            region = yield from module.reg_mr(addr, length)
            stats["published"] += 1
            yield 200 * US
            for reader_gid in sorted(modules):
                if reader_gid == node.gid:
                    continue
                reader = modules[reader_gid]
                op = Op(reader_gid, "r", None, sim.now, None)
                checker.history.append((f"mr:{node.gid}", op))
                try:
                    record = yield from reader.plane_lookup_mr(
                        0, node.gid, region.rkey
                    )
                except Exception:
                    # No answer is not an observation: leave the op
                    # incomplete (by_key drops open reads).
                    stats["lookup_failures"] += 1
                else:
                    # A reachable shard with no record observes the
                    # initial state (0, the register checker's default).
                    op.value = 0 if record is None else record[0]
                    op.response = sim.now
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


@scenario("mr_churn")
def mr_churn(checker):
    """MicroView pod churn + meta outage under the churn-window invariant."""
    harness = MicroViewChaosHarness(5)
    report = harness.run()
    return harness, {
        "report_digest": report.digest(),
        "cycles": report.cycles,
        "failed_reads": report.failed_reads,
        "churns": report.churns,
        "stale_accepts": report.stale_accepts,
        "reads_after_retract": checker.observed.get("mr.read_after_retract", 0),
    }


# ------------------------------------------------------------ QP transfer


@scenario("transfer_race")
def transfer_race(checker):
    """Background RC promotion, thread migration and owner posts, concurrent."""
    ops, gap_ns = 24, 2 * US
    sim, cluster, modules = _krcore(
        num_nodes=3, cores=2, background_rc=True, rc_traffic_threshold=8
    )
    client, server = cluster.node(1), cluster.node(2)
    base, region = _boot_region(modules[server.gid])
    module = modules[client.gid]
    lib = KrcoreLib(client, cpu_id=0)
    nbytes = 8
    vqps = []
    stats = {"reads": 0, "owners_done": 0, "migrations": 0}

    def owner(vqp, scratch, lkey):
        # Two READs in flight per round: the second is posted while the
        # first -- or a transfer's fence -- is still on the wire.
        for _ in range(ops):
            yield gap_ns
            for slot in range(2):
                wr = WorkRequest.read(scratch, nbytes, lkey, base + slot * nbytes,
                                      region.rkey, nbytes)
                yield from lib.post_send(vqp, wr)
            for _ in range(2):
                entry = yield from vqp.wait_send_completion()
                stats["reads"] += entry.ok
        stats["owners_done"] += 1

    def migrator():
        # Thread migration of the first VQP, away and back, while both
        # owners post and the background promotion moves them onto RC.
        for cpu in (1, 0, 1):
            yield 24 * gap_ns
            yield from module.migrate_vqp(vqps[0], cpu)
            stats["migrations"] += 1

    def setup():
        scratch = client.memory.alloc(2 * nbytes)
        sregion = yield from module.reg_mr(scratch, 2 * nbytes)
        for index in range(2):
            vqp = yield from lib.create_vqp()
            yield from lib.qconnect(vqp, server.gid)
            vqps.append(vqp)
            sim.process(owner(vqp, scratch + index * nbytes, sregion.lkey),
                        name=f"transfer-owner-{index}")
        sim.process(migrator(), name="transfer-migrator")

    sim.process(setup(), name="transfer-setup")
    sim.run()
    if stats["owners_done"] != len(vqps):
        # An owner left waiting: its completion went where it no longer polls.
        checker.custom(
            "transfer-owner-stranded", sim.now,
            f"{len(vqps) - stats['owners_done']} VQP owner(s) never saw "
            f"their completions ({stats})",
        )
    checker.finalize(modules=modules.values(), plane=module.meta_plane, now=sim.now)
    stats["transfers"] = module.stats_transfers
    return stats
