"""Full chaos suite: YCSB over KRCORE under seeded fault schedules.

Marked ``chaos`` and excluded from the default run (see pyproject);
run with ``make chaos`` or ``pytest -m chaos``.  Three named schedules
(packet loss, node crash + restart, meta-server outage) plus randomly
generated plans, each checked for the four invariants and for
seed-determinism (two runs, byte-identical digests).
"""

import pytest

from repro.cluster import timing
from repro.faults import FaultPlan
from repro.faults.harness import ChaosHarness

pytestmark = pytest.mark.chaos

MS = timing.MS
US = timing.US


def _plan_packet_loss(seed):
    return (
        FaultPlan(seed=seed)
        .degrade_link(
            1 * MS, "node3", "node1", duration_ns=3 * MS,
            drop_prob=0.10, dup_prob=0.05, extra_ns=2 * US, both_ways=True,
        )
        .degrade_link(
            2 * MS, "node4", "node2", duration_ns=2 * MS,
            drop_prob=0.05, both_ways=True,
        )
    )


def _plan_crash_restart(seed):
    return (
        FaultPlan(seed=seed)
        .crash_node(2 * MS, "node1")
        .restart_node(4 * MS, "node1")
        .stall_rnic(5 * MS, "node2", 100 * US, engine="inbound")
    )


def _plan_meta_outage(seed):
    return (
        FaultPlan(seed=seed)
        .meta_outage(1 * MS, 2 * MS)
        .crash_node(3500 * US, "node2")
        .restart_node(5 * MS, "node2")
    )


SCHEDULES = [
    ("packet-loss", _plan_packet_loss, 11),
    ("crash-restart", _plan_crash_restart, 22),
    ("meta-outage", _plan_meta_outage, 33),
]


@pytest.mark.parametrize("name,make_plan,seed", SCHEDULES, ids=[s[0] for s in SCHEDULES])
def test_named_schedule_invariants_and_determinism(name, make_plan, seed):
    first = ChaosHarness(seed, plan=make_plan(seed)).run()
    assert first.all_invariants_hold, (name, first.invariants, first.op_log[-10:])
    assert first.ops_failed == 0
    second = ChaosHarness(seed, plan=make_plan(seed)).run()
    assert first.digest() == second.digest(), f"{name}: nondeterministic"


@pytest.mark.parametrize("seed", [1, 7, 42])
def test_random_plan_invariants(seed):
    report = ChaosHarness(seed).run()
    assert report.all_invariants_hold, (seed, report.invariants, report.op_log[-10:])
    assert report.ops_failed == 0


def test_meta_outage_exercises_degraded_paths():
    report = ChaosHarness(33, plan=_plan_meta_outage(33)).run()
    # The outage window forces at least one degraded-mode decision
    # somewhere: a stale-lease acceptance or a client-level retry.
    assert report.stale_accepts + report.retried_ops > 0


def _plan_shard_outages(seed):
    # Two legs against a 2-shard meta plane: the whole plane dark while
    # the first qconnects are in flight (retry budget exhausts on every
    # owner -> RC-handshake fallback), then one shard dark mid-run
    # (reads fail over to the replica; nothing degrades).
    return (
        FaultPlan(seed=seed)
        .meta_outage(0, 1 * MS)
        .meta_outage(3 * MS, 2 * MS, shard=1)
        .meta_outage(6 * MS, 1 * MS, shard=0)
    )


def test_sharded_meta_outages_fail_over_and_degrade():
    first = ChaosHarness(44, plan=_plan_shard_outages(44), meta_shards=2).run()
    assert first.all_invariants_hold, (first.invariants, first.op_log[-10:])
    assert first.ops_failed == 0
    # One dark owner -> lookups fail over to the replica shard.
    assert first.meta_failovers > 0
    # Every owner dark -> the paper's old control path takes over.
    assert first.rc_fallbacks > 0
    second = ChaosHarness(44, plan=_plan_shard_outages(44), meta_shards=2).run()
    assert first.digest() == second.digest(), "sharded chaos: nondeterministic"
