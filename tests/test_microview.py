"""The MicroView metrics-harvesting scenario: app, backends, chaos.

Covers the collector/backend/pod-directory stack (serial vs batched vs
vectored harvests over verbs/LITE/KRCORE), the seeded pod-churn driver,
and the churn chaos harness with its ``mr-read-churn-window`` invariant.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import obs
from repro.apps import microview, race
from repro.apps.microview import (
    STRATEGIES,
    Collector,
    KrcoreBackend,
    LiteBackend,
    PodDirectory,
    VerbsBackend,
)
from repro.bench.setups import lite_cluster, verbs_cluster
from repro.check.invariants import Checker
from repro.sim import MS, US, Simulator
from tests.conftest import krcore_cluster

POD = 4096


def _krcore_deploy(mr_lease_ns=None):
    sim = Simulator()
    kwargs = {"background_rc": False}
    if mr_lease_ns is not None:
        kwargs["mr_lease_ns"] = mr_lease_ns
    cluster, meta, modules = krcore_cluster(sim, num_nodes=4, **kwargs)
    backend = KrcoreBackend(cluster.node(1))
    workers = [(cluster.node(2), modules[2]), (cluster.node(3), modules[3])]
    return sim, cluster, meta, modules, backend, workers


def _run_harvest(sim, backend, workers, pods_per_worker, cycles, strategy,
                 directory=None, gap_ns=0, dead=0):
    """Deploy, then harvest; ``dead`` pods (the first ones, plain verbs
    MRs) lose their region before the first cycle."""
    directory = directory or PodDirectory(workers)
    collector = Collector(backend.node, backend, directory)

    def drive():
        yield from directory.deploy(pods_per_worker)
        for pod in directory.pods[:dead]:
            pod.node.memory.deregister(pod.region)
        yield from collector.setup()
        yield from collector.run_cycles(cycles, strategy, gap_ns=gap_ns)

    sim.run_process(drive())
    return collector.stats, directory


# ------------------------------------------------------------ backends


@pytest.mark.parametrize("stack", ["VerbsBackend", "LiteBackend", "KrcoreBackend"])
def test_each_backend_is_the_app_transport_of_its_stack(stack):
    """One transport per stack: a MicroView backend is the class RACE and
    the transaction client drive, plus the harvest strategies only."""
    backend, transport = getattr(microview, stack), getattr(race, stack)
    assert issubclass(backend, transport)
    mro = backend.__mro__
    added = {
        name
        for klass in mro[: mro.index(transport)]
        for name in vars(klass)
        if not name.startswith("__")
    }
    assert added <= {f"harvest_{strategy}" for strategy in STRATEGIES}


@pytest.mark.parametrize("strategy", ["serial", "batched", "vectored"])
def test_verbs_harvest_collects_every_pod(strategy):
    # A dead pod fails its READ and wrecks its worker's RC QP: the rest
    # of that worker's pods fail with it, the other worker's are read.
    for dead, (read, failed) in ((0, (4, 0)), (1, (2, 2))):
        sim, cluster = verbs_cluster(num_nodes=3)
        backend = VerbsBackend(cluster.node(0))
        workers = [(cluster.node(1), None), (cluster.node(2), None)]
        stats, _ = _run_harvest(sim, backend, workers, 2, 3, strategy, dead=dead)
        assert stats.cycles == 3
        assert (stats.bytes_ok, stats.failed_reads) == (3 * read * POD, 3 * failed)


@pytest.mark.parametrize("strategy", ["serial", "batched", "vectored"])
def test_krcore_harvest_collects_every_pod(strategy):
    sim, cluster, meta, modules, backend, workers = _krcore_deploy()
    stats, _ = _run_harvest(sim, backend, workers, 2, 3, strategy)
    assert stats.cycles == 3
    assert stats.bytes_ok == 3 * 4 * POD
    assert stats.failed_reads == 0


def test_lite_batched_and_vectored_degrade_to_serial():
    """LITE's kernel API has no doorbell chains and no gather WRs: every
    strategy must cost exactly the serial loop (that *is* the figure),
    and count a dead pod's failed READ exactly as it does."""
    for dead in (0, 1):
        outcomes = {}
        for strategy in ("serial", "batched", "vectored"):
            sim, cluster, _modules = lite_cluster(num_nodes=3)
            backend = LiteBackend(cluster.node(0))
            workers = [(cluster.node(1), None), (cluster.node(2), None)]
            stats, _ = _run_harvest(sim, backend, workers, 2, 2, strategy, dead=dead)
            outcomes[strategy] = (stats.total_ns, stats.bytes_ok, stats.failed_reads)
        assert outcomes["serial"] == outcomes["batched"] == outcomes["vectored"]
        _, bytes_ok, failed = outcomes["serial"]
        assert bytes_ok + failed * POD == 2 * 4 * POD
        assert (failed > 0) == bool(dead)


def test_verbs_batched_and_vectored_beat_serial():
    latencies = {}
    for strategy in ("serial", "batched", "vectored"):
        sim, cluster = verbs_cluster(num_nodes=3)
        backend = VerbsBackend(cluster.node(0))
        workers = [(cluster.node(1), None), (cluster.node(2), None)]
        stats, _ = _run_harvest(sim, backend, workers, 8, 2, strategy)
        latencies[strategy] = stats.total_ns
    assert latencies["batched"] < latencies["serial"]
    assert latencies["vectored"] < latencies["serial"]


def test_collector_rejects_unknown_strategy():
    sim, cluster, meta, modules, backend, workers = _krcore_deploy()
    directory = PodDirectory(workers)
    collector = Collector(backend.node, backend, directory)
    with pytest.raises(ValueError):
        sim.run_process(collector.run_cycles(1, "telepathy"))


# ---------------------------------------------------------------- churn


def test_churn_driver_swaps_pods_deterministically():
    sim, cluster, meta, modules, backend, workers = _krcore_deploy()
    directory = PodDirectory(workers)

    def drive():
        yield from directory.deploy(2)
        before = directory.targets()
        yield from directory.churn_driver(50 * US, 500 * US, seed=3)
        return before, directory.targets()

    before, after = sim.run_process(drive())
    assert directory.stats_churns > 0
    assert {t[2] for t in before} != {t[2] for t in after}  # rkeys moved
    assert len(before) == len(after)  # pods re-registered, never lost
    assert max(pod.generation for pod in directory.pods) > 0


def test_krcore_harvest_survives_churn_storm():
    """Churn races may fail individual READs under any strategy; they must
    never abort the harvest, wreck the shared physical QP or leave a
    completion unreaped."""
    from repro.verbs.types import QpState

    for strategy in STRATEGIES:
        sim, cluster, meta, modules, backend, workers = _krcore_deploy()
        directory = PodDirectory(workers)
        collector = Collector(backend.node, backend, directory)

        def drive():
            yield from directory.deploy(4)
            yield from collector.setup()
            sim.process(directory.churn_driver(20 * US, 2 * MS, seed=5), name="churn")
            yield from collector.run_cycles(10, strategy, gap_ns=20 * US)

        sim.run_process(drive())
        stats = collector.stats
        assert stats.cycles == 10
        assert stats.bytes_ok > 0
        assert directory.stats_churns > 0
        assert all(
            vqp.qp is None or vqp.qp.state is not QpState.ERR
            for vqp in backend.vqps.values()
        )
        assert not any(vqp.comp_queue for vqp in backend.vqps.values())


@settings(max_examples=8, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    interval_us=st.integers(min_value=15, max_value=120),
    strategy=st.sampled_from(["serial", "batched", "vectored"]),
)
def test_churned_harvest_upholds_churn_window_invariant(seed, interval_us, strategy):
    """Property: under any churn seed/rate/strategy, no READ executes
    against an MR retracted more than one lease ago, and the full
    invariant registry stays clean."""
    sim, cluster, meta, modules, backend, workers = _krcore_deploy(
        mr_lease_ns=200 * US
    )
    directory = PodDirectory(workers)
    collector = Collector(backend.node, backend, directory)

    def drive():
        yield from directory.deploy(3)
        yield from collector.setup()
        sim.process(
            directory.churn_driver(interval_us * US, 1500 * US, seed=seed),
            name="churn",
        )
        yield from collector.run_cycles(6, strategy, gap_ns=30 * US)

    checker = Checker()
    with obs.attached(checker=checker):
        sim.run_process(drive())
        checker.finalize(
            modules=[m for m in modules], plane=modules[1].meta_plane, now=sim.now
        )
    window = [v for v in checker.violations if v.invariant == "mr-read-churn-window"]
    assert not window, window
    assert checker.ok, checker.violations


# ---------------------------------------------------------------- chaos


def test_microview_chaos_invariants_hold_and_run_is_deterministic():
    from repro.faults.microview import MicroViewChaosHarness

    with obs.observe() as (_tracer, metrics):
        first = MicroViewChaosHarness(1).run()
    assert first.all_invariants_hold, first.invariants
    assert first.stale_accepts > 0 and first.stale_hits > 0
    # Both sides of a kept double count agree (tests/test_counts_are_read.py).
    assert first.stale_hits == metrics.value("krcore.mrstore_stale_hits")
    assert first.stale_accepts == metrics.value("krcore.mrstore_stale_accepts")
    assert first.churns > 0 and first.failed_reads >= 0
    second = MicroViewChaosHarness(1).run()
    assert first.digest() == second.digest()
    assert MicroViewChaosHarness(2).run().digest() != first.digest()
