"""Control-plane runs the invariant registry rides: each drives one slice
to quiescence under the engine's own order and leaves the verdict to the
checker that ``tests/conftest.py`` attaches to every test, which audits
the drained simulator at teardown.

Each is the only system run of something (``benchmarks/hitmap.py`` counts
this file as one): pool churn of RC retirement, QP unregistration and
thread migration; the transfer race of the fence's completion; the small
chaos run of a crashed node's retraction; the KVS run of the
linearizability checker.
"""

import random

from repro.bench.setups import krcore_cluster
from repro.check.linearizability import Op, by_key, check_histories
from repro.faults.harness import ChaosHarness
from repro.faults.plan import FaultPlan
from repro.krcore import KrcoreLib
from repro.verbs import WorkRequest

US = 1_000
MS = 1_000_000


def _krcore(**kwargs):
    """``krcore_cluster(**kwargs)`` with its modules keyed by gid."""
    sim, cluster, _, modules = krcore_cluster(**kwargs)
    return sim, cluster, {module.node.gid: module for module in modules}


def _boot_region(module, length=512):
    """A boot-published data region on ``module``'s node: ``(addr, region)``."""
    addr = module.node.memory.alloc(length)
    return addr, module.boot_mr(addr, length)


def pool_churn():
    """RC establish / accept / LRU-evict / retire churn with 1-entry RC
    pools, then a thread migration, run to quiescence."""
    ops, gap_ns = 6, 4 * US
    sim, cluster, modules = _krcore(
        num_nodes=4, cores=2, dc_per_cpu=1, max_rc_per_cpu=1,
        background_rc=True, rc_traffic_threshold=3,
    )
    nodes = cluster.nodes[1:]
    regions = {node.gid: _boot_region(modules[node.gid]) for node in nodes}
    nbytes = 64
    done = []

    def client(node):
        # Both peers from CPU 0: with a 1-entry RC pool and two hot
        # targets, background RC creation keeps evicting.
        lib, module = KrcoreLib(node, cpu_id=0), modules[node.gid]
        scratch = node.memory.alloc(nbytes)
        sregion = yield from module.reg_mr(scratch, nbytes)
        vqps = {}
        for peer in (peer for peer in nodes if peer is not node):
            vqps[peer.gid] = yield from lib.create_vqp()
            yield from lib.qconnect(vqps[peer.gid], peer.gid)
        for _ in range(ops):
            yield gap_ns
            for gid, vqp in vqps.items():
                base, region = regions[gid]
                yield from lib.read_sync(vqp, scratch, sregion.lkey, base, region.rkey, nbytes)
        gid, vqp = next(iter(vqps.items()))
        yield from module.migrate_vqp(vqp, 1)
        base, region = regions[gid]
        yield from lib.read_sync(vqp, scratch, sregion.lkey, base, region.rkey, nbytes)
        done.append(node.gid)

    for node in nodes:
        sim.process(client(node), name=f"churn-client@{node.gid}")
    sim.run()
    assert len(done) == len(nodes)


def test_pool_churn_fires_every_registry_hook(checker):
    """A silently disconnected call site makes the registry blind, so
    every hook kind must fire in the pool churn."""
    pool_churn()
    for kind in ("dct.publish", "dccache.insert", "pool.insert", "pool.retire",
                 "mrstore.accept", "meta.write", "wr.dispatch", "rnic.busy"):
        assert checker.observed.get(kind, 0) > 0, f"registry hook {kind} never fired"


def test_transfer_race_strands_no_owner():
    """§4.6's fenced QP transfer under fire: two owners keep two READs in
    flight each while background RC promotion and a thread migration
    move their VQPs.  An owner left waiting fails here; a completion
    never dispatched fails the checker's ``wr-exactly-once``."""
    ops, gap_ns, nbytes = 24, 2 * US, 8
    sim, cluster, modules = _krcore(num_nodes=3, cores=2, background_rc=True,
                                    rc_traffic_threshold=8)
    client, server = cluster.node(1), cluster.node(2)
    base, region = _boot_region(modules[server.gid])
    module, lib = modules[client.gid], KrcoreLib(client, cpu_id=0)
    vqps, owners_done = [], []

    def owner(vqp, scratch, lkey):
        # The second READ is posted while the first -- or a transfer's
        # fence -- is still on the wire.
        for _ in range(ops):
            yield gap_ns
            for slot in range(2):
                wr = WorkRequest.read(scratch, nbytes, lkey, base + slot * nbytes,
                                      region.rkey, nbytes)
                yield from lib.post_send(vqp, wr)
            for _ in range(2):
                assert (yield from vqp.wait_send_completion()).ok
        owners_done.append(vqp)

    def migrator():
        for cpu in (1, 0, 1):
            yield 24 * gap_ns
            yield from module.migrate_vqp(vqps[0], cpu)

    def setup():
        scratch = client.memory.alloc(2 * nbytes)
        sregion = yield from module.reg_mr(scratch, 2 * nbytes)
        for index in range(2):
            vqp = yield from lib.create_vqp()
            yield from lib.qconnect(vqp, server.gid)
            vqps.append(vqp)
            sim.process(owner(vqp, scratch + index * nbytes, sregion.lkey))
        sim.process(migrator())

    sim.process(setup())
    sim.run()
    assert len(owners_done) == len(vqps)
    assert module.stats_transfers > 0


def test_small_chaos_run_holds_its_invariants():
    """A crash, a restart and a meta outage over a two-shard plane."""
    plan = (FaultPlan(11).crash_node(2 * MS, "node2").restart_node(4 * MS, "node2")
            .meta_outage(5 * MS, 1 * MS))
    report = ChaosHarness(11, plan, ops_per_client=12, meta_shards=2).run()
    assert report.all_invariants_hold, report.summary()
    assert len(report.fault_log) == 3


def test_concurrent_kvs_ops_linearize():
    """Concurrent 8-byte one-sided READ / WRITEs on per-key server slots:
    every key's recorded history must linearize."""
    clients, ops, keys, slot = 3, 8, 4, 8
    sim, cluster, modules = _krcore(num_nodes=2 + clients, background_rc=False)
    server = cluster.node(1)
    base, region = _boot_region(modules[server.gid], keys * slot)
    history = []

    def client(cnum, node):
        rng = random.Random(3 * 1009 + cnum)
        lib = KrcoreLib(node, cpu_id=0)
        scratch = node.memory.alloc(slot)
        sregion = yield from modules[node.gid].reg_mr(scratch, slot)
        vqp = yield from lib.create_vqp()
        yield from lib.qconnect(vqp, server.gid)
        for index in range(ops):
            yield rng.randrange(1, 3 * US)
            key = rng.randrange(keys)
            args = (vqp, scratch, sregion.lkey, base + key * slot, region.rkey, slot)
            if rng.random() < 0.5:
                value = (cnum + 1) * 1000 + index + 1
                node.memory.write(scratch, value.to_bytes(slot, "big"))
                op = Op(f"c{cnum}", "w", value, sim.now, None)
                history.append((f"k{key}", op))
                yield from lib.write_sync(*args)
            else:
                op = Op(f"c{cnum}", "r", None, sim.now, None)
                history.append((f"k{key}", op))
                yield from lib.read_sync(*args)
                op.value = int.from_bytes(node.memory.read(scratch, slot), "big")
            op.response = sim.now

    for cnum, node in enumerate(cluster.nodes[2:]):
        sim.process(client(cnum, node))
    sim.run()
    assert all(op.response is not None for _, op in history)
    assert len(history) == clients * ops
    assert check_histories(by_key(history)) == []
