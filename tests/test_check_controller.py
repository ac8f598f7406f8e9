"""Schedule-controller semantics: FIFO equivalence, replay, recording.

The whole model-checking layer rests on one contract: a
:class:`ScheduleController` with :class:`FifoStrategy` drives the engine
*event-for-event identically* to the engine's own run loop, so the
controller adds zero behavioural drift when not exploring -- the figure
CSVs, golden traces, and chaos digests all stay byte-identical.  These
tests pin that contract, plus decision recording and replay.
"""

import random

from repro import obs
from repro.check import (
    FifoStrategy,
    PctStrategy,
    RandomWalkStrategy,
    ReplayStrategy,
    Schedule,
    ScheduleController,
    run_once,
    sweep,
)
from repro.faults.harness import ChaosHarness
from repro.faults.plan import FaultPlan
from repro.krcore import KrcoreLib
from repro.sim import Simulator
from tests.conftest import krcore_cluster

import pytest

MS = 1_000_000


def _smoke_plan(seed):
    return (
        FaultPlan(seed)
        .crash_node(2 * MS, "node1")
        .restart_node(4 * MS, "node1")
        .meta_outage(5 * MS, 1 * MS)
    )


def _qconnect_digest(controlled):
    """The golden-trace scenario of test_obs_golden, optionally driven
    by a FIFO controller; returns (trace digest, sim, metrics snapshot)."""
    sim = Simulator()
    if controlled:
        ScheduleController(FifoStrategy()).attach(sim)
    cluster, meta, modules = krcore_cluster(sim, num_nodes=3)
    lib = KrcoreLib(cluster.node(1))
    target = cluster.node(2).gid

    def proc():
        vqp = yield from lib.create_vqp()
        yield from lib.qconnect(vqp, target)

    with obs.observe() as (tracer, metrics):
        sim.run_process(proc())
    return tracer.digest(), sim, metrics.snapshot()


def test_fifo_controller_is_trace_identical_to_engine():
    vanilla_digest, vanilla_sim, vanilla_metrics = _qconnect_digest(controlled=False)
    fifo_digest, fifo_sim, fifo_metrics = _qconnect_digest(controlled=True)
    assert fifo_digest == vanilla_digest
    # Both runs end through Simulator.end_run: one registry view.
    assert fifo_metrics == vanilla_metrics
    # The accounting counters advance identically too.
    assert fifo_sim.events_dispatched == vanilla_sim.events_dispatched
    assert fifo_sim.timer_fires == vanilla_sim.timer_fires
    assert fifo_sim.now == vanilla_sim.now


def test_fifo_controller_chaos_digest_identical():
    vanilla = ChaosHarness(11, _smoke_plan(11), ops_per_client=20).run()
    harness = ChaosHarness(11, _smoke_plan(11), ops_per_client=20)
    controller = ScheduleController(FifoStrategy())
    controller.attach(harness.sim)
    controlled = harness.run()
    assert controlled.digest() == vanilla.digest()
    # The run had real same-timestamp choice points -- the equivalence
    # statement is non-vacuous.
    assert controller.steps > 0
    assert controller.decisions == []


def test_fifo_equivalence_on_randomized_workload():
    """Random timer/event workloads: the controlled engine reaches the
    same final state and dispatch counts as the bare engine."""

    def run(controlled, seed):
        sim = Simulator()
        if controlled:
            ScheduleController(FifoStrategy()).attach(sim)
        rng = random.Random(seed)
        log = []

        def worker(wid):
            for step in range(rng.randrange(3, 9)):
                yield rng.randrange(0, 5)  # 0-delays collide timestamps
                log.append((sim.now, wid, step))

        for wid in range(6):
            sim.process(worker(wid), name=f"w{wid}")
        sim.run()
        return log, sim.events_dispatched, sim.timer_fires, sim.now

    for seed in range(5):
        assert run(False, seed) == run(True, seed)


def test_random_strategy_perturbs_and_replays_byte_identically():
    def run(strategy):
        harness = ChaosHarness(11, _smoke_plan(11), ops_per_client=20)
        controller = ScheduleController(strategy)
        controller.attach(harness.sim)
        report = harness.run()
        return controller, report.digest()

    _, fifo_digest = run(FifoStrategy())
    # Walk 2 perturbs the digest on the record sequence before and after
    # the PR 13 hop fusion (walk 7, pinned until then, only on the former).
    controller, random_digest = run(RandomWalkStrategy(2))
    assert controller.decisions, "random walk never deviated from FIFO"
    assert random_digest != fifo_digest, (
        "reordering same-timestamp dispatch changed nothing observable"
    )
    _, replay_digest = run(ReplayStrategy(controller.decisions))
    assert replay_digest == random_digest
    _, again = run(RandomWalkStrategy(2))
    assert again == random_digest


def test_pct_strategy_is_seeded():
    """PCT (the nightly sweep's mode for chaos_small) decides from its seed
    alone: one seed, one decision list; another seed, another."""
    first = run_once("pool_churn", PctStrategy(3))
    assert first.decisions, "PCT never deviated from FIFO"
    assert run_once("pool_churn", PctStrategy(3)).decisions == first.decisions
    assert run_once("pool_churn", PctStrategy(4)).decisions != first.decisions
    assert first.strategy == {"mode": "pct", "seed": 3, "depth": 3}


def test_pct_sweep_of_pool_churn_is_clean():
    results, failure = sweep("pool_churn", mode="pct", seeds=2)
    assert failure is None
    assert len(results) == 2


def test_controller_records_choice_points():
    sim = Simulator()
    controller = ScheduleController(RandomWalkStrategy(1))
    controller.attach(sim)
    hits = []

    def proc(pid):
        yield 10
        hits.append(pid)

    for pid in range(4):
        sim.process(proc(pid), name=f"p{pid}")
    sim.run()
    assert controller.steps > 0
    assert controller.points
    for step, n_alts, chosen in controller.points:
        assert n_alts >= 2
        assert 0 <= chosen < n_alts
    assert all(choice != 0 for _step, choice in controller.decisions)
    assert sorted(hits) == [0, 1, 2, 3]


def test_controller_respects_until_bound():
    def run(controlled):
        sim = Simulator()
        if controlled:
            ScheduleController(FifoStrategy()).attach(sim)
        fired = []
        for when in (0, 10, 10, 20, 30):
            sim.schedule(when, lambda w=when: fired.append(w))
        sim.run(until=15)
        mid = (list(fired), sim.now)
        sim.run()
        return mid, fired, sim.now

    assert run(True) == run(False)


def test_attach_rejects_second_controller():
    sim = Simulator()
    ScheduleController(FifoStrategy()).attach(sim)
    with pytest.raises(ValueError):
        ScheduleController(FifoStrategy()).attach(sim)


def test_schedule_round_trips_canonical_json(tmp_path):
    schedule = Schedule(
        "pool_churn",
        [(3, 1), (17, 2)],
        scenario_kwargs={"ops": 6},
        seed=9,
        invariant="pool-qp-accounting",
        note="test",
    )
    path = tmp_path / "s.json"
    schedule.save(path)
    loaded = Schedule.load(path)
    assert loaded.to_json() == schedule.to_json()
    assert loaded.decisions == [(3, 1), (17, 2)]
    assert path.read_text().endswith("\n")
