"""Fixed-seed chaos smoke: one small seeded run inside tier-1.

The full schedules live in ``test_chaos.py`` behind the ``chaos``
marker; this slice keeps one crash+restart+outage run (and the
determinism guarantee) in every default test invocation.
"""

from repro.cluster import timing
from repro.faults import FaultPlan
from repro.faults.harness import ChaosHarness

SEED = 5


def _smoke_plan():
    return (
        FaultPlan(seed=SEED)
        .crash_node(2 * timing.MS, "node1")
        .restart_node(4 * timing.MS, "node1")
        .meta_outage(5 * timing.MS, 1 * timing.MS)
    )


def test_chaos_smoke_invariants_hold():
    report = ChaosHarness(SEED, plan=_smoke_plan(), ops_per_client=30).run()
    assert report.all_invariants_hold, report.invariants
    assert report.ops_failed == 0
    assert len(report.fault_log) == 3
    # The crash/restart actually perturbed the run: at least one op (or
    # the post-fault verification) needed the recovery machinery.
    assert report.ops_ok > 0


def test_chaos_smoke_reports_time_to_recover():
    """Per restart and client: the µs from the restart to the client's
    first ok op on the restarted server, read off the op log."""
    report = ChaosHarness(SEED, plan=_smoke_plan(), ops_per_client=30).run()
    restart_ns = 4 * timing.MS
    assert set(report.recovery_us) == {(restart_ns, "node1", "c0"), (restart_ns, "node1", "c1")}
    for (_, gid, client), recovery_us in report.recovery_us.items():
        ok_after = [
            int(line.split()[0][2:]) for line in report.op_log
            if f" {client} op" in line and f"srv={gid} ok " in line
            and int(line.split()[0][2:]) >= restart_ns
        ]
        assert round(recovery_us * timing.US) == min(ok_after) - restart_ns > 0
    assert "recovery_p50_us=" in report.summary()
    calm = ChaosHarness(SEED, plan=FaultPlan(seed=SEED), ops_per_client=5).run()
    assert calm.recovery_us == {} and "recovery_p50_us" not in calm.summary()


def test_chaos_smoke_is_deterministic():
    first = ChaosHarness(SEED, plan=_smoke_plan(), ops_per_client=30).run()
    second = ChaosHarness(SEED, plan=_smoke_plan(), ops_per_client=30).run()
    assert first.digest() == second.digest()
    assert first.op_log == second.op_log


def test_chaos_different_seeds_diverge():
    a = ChaosHarness(5, ops_per_client=20).run()
    b = ChaosHarness(6, ops_per_client=20).run()
    assert a.digest() != b.digest()


def _sharded_plan():
    # Shard 1 goes dark across a lease boundary; its keys' lookups must
    # fail over to the replica on shard 0 without any op failing.
    return (
        FaultPlan(seed=SEED)
        .meta_outage(1 * timing.MS, 2 * timing.MS, shard=1)
    )


def test_chaos_smoke_sharded_failover():
    report = ChaosHarness(SEED, plan=_sharded_plan(), ops_per_client=30,
                          meta_shards=2).run()
    assert report.all_invariants_hold, report.invariants
    assert report.ops_failed == 0
    assert report.meta_failovers > 0  # the replica actually served reads
    second = ChaosHarness(SEED, plan=_sharded_plan(), ops_per_client=30,
                          meta_shards=2).run()
    assert report.digest() == second.digest()
