"""Tests for the serverless platform and the TestCase5 transfer."""

import pytest

from repro.apps.serverless import (
    COLD_START_NS,
    FunctionError,
    ServerlessPlatform,
    WARM_START_NS,
    run_transfer_testcase,
)
from repro.cluster import Cluster
from repro.sim import MS, Simulator, US
from repro.verbs import ConnectionManager, DriverContext
from tests.conftest import krcore_cluster


@pytest.fixture
def platform_env():
    sim = Simulator()
    cluster = Cluster(sim, num_nodes=3)
    platform = ServerlessPlatform(sim)
    return sim, cluster, platform


def _noop_handler(ctx):
    yield 100_000  # 100 us of "compute"
    return ("done", ctx.function_name)


def test_deploy_and_invoke(platform_env):
    sim, cluster, platform = platform_env
    platform.deploy("fn", _noop_handler, cluster.node(0))

    def proc():
        return (yield from platform.invoke("fn"))

    assert sim.run_process(proc()) == ("done", "fn")


def test_cold_then_warm_start_costs(platform_env):
    sim, cluster, platform = platform_env
    platform.deploy("fn", _noop_handler, cluster.node(0))

    def proc():
        start = sim.now
        yield from platform.invoke("fn")
        cold = sim.now - start
        start = sim.now
        yield from platform.invoke("fn")
        warm = sim.now - start
        return cold, warm

    cold, warm = sim.run_process(proc())
    assert cold >= COLD_START_NS
    assert WARM_START_NS <= warm < COLD_START_NS
    assert platform.stats_cold_starts == 1
    assert platform.stats_warm_starts == 1


def test_prewarm_skips_cold_start(platform_env):
    sim, cluster, platform = platform_env
    platform.deploy("fn", _noop_handler, cluster.node(0))
    platform.prewarm("fn")

    def proc():
        start = sim.now
        yield from platform.invoke("fn")
        return sim.now - start

    assert sim.run_process(proc()) < COLD_START_NS
    assert platform.stats_cold_starts == 0


def test_duplicate_deploy_rejected(platform_env):
    sim, cluster, platform = platform_env
    platform.deploy("fn", _noop_handler, cluster.node(0))
    with pytest.raises(FunctionError):
        platform.deploy("fn", _noop_handler, cluster.node(1))


def test_unknown_function_rejected(platform_env):
    sim, cluster, platform = platform_env
    with pytest.raises(FunctionError):
        platform.prewarm("ghost")


# ---------------------------------------------------------------------------
# TestCase5 transfers
# ---------------------------------------------------------------------------


def test_verbs_transfer_is_tens_of_ms():
    sim = Simulator()
    cluster = Cluster(sim, num_nodes=2)
    for node in cluster.nodes:
        ConnectionManager(node, DriverContext(node, kernel=True))

    def proc():
        result = yield from run_transfer_testcase(
            sim, cluster.node(0), cluster.node(1), 1024, backend="verbs"
        )
        return result

    result = sim.run_process(proc())
    # Fig 12b: ~33 ms at 1 KB, dominated by both sides' control paths.
    assert 28 * MS < result.transfer_ns < 38 * MS
    assert result.receiver_setup_ns > 13 * MS
    assert result.sender_setup_ns > 13 * MS
    assert result.send_ns < 3 * MS


def test_krcore_transfer_is_tens_of_us():
    sim = Simulator()
    cluster, meta, modules = krcore_cluster(sim, num_nodes=3)

    def proc():
        result = yield from run_transfer_testcase(
            sim, cluster.node(1), cluster.node(2), 1024, backend="krcore"
        )
        return result

    result = sim.run_process(proc())
    assert result.transfer_ns < 100 * US


def test_krcore_cuts_transfer_time_by_99_percent():
    sim_v = Simulator()
    cluster_v = Cluster(sim_v, num_nodes=2)
    for node in cluster_v.nodes:
        ConnectionManager(node, DriverContext(node, kernel=True))

    def verbs_proc():
        result = yield from run_transfer_testcase(
            sim_v, cluster_v.node(0), cluster_v.node(1), 4096, backend="verbs"
        )
        return result

    verbs_result = sim_v.run_process(verbs_proc())

    sim_k = Simulator()
    cluster_k, meta, modules = krcore_cluster(sim_k, num_nodes=3)

    def krcore_proc():
        result = yield from run_transfer_testcase(
            sim_k, cluster_k.node(1), cluster_k.node(2), 4096, backend="krcore"
        )
        return result

    krcore_result = sim_k.run_process(krcore_proc())
    reduction = 1 - krcore_result.transfer_ns / verbs_result.transfer_ns
    assert reduction > 0.99  # §5.3.2's headline claim


def test_krcore_transfer_large_payload_uses_zero_copy():
    sim = Simulator()
    cluster, meta, modules = krcore_cluster(sim, num_nodes=3)
    size = 9 * 1024  # the top of Fig 12b's payload range

    def proc():
        result = yield from run_transfer_testcase(
            sim, cluster.node(1), cluster.node(2), size, backend="krcore"
        )
        return result

    result = sim.run_process(proc())
    assert result.transfer_ns < 200 * US
    # Byte-exactness of the delivery.
    assert result.payload_bytes == size


def test_transfer_rejects_unknown_backend():
    sim = Simulator()
    cluster = Cluster(sim, num_nodes=2)

    def proc():
        with pytest.raises(ValueError):
            yield from run_transfer_testcase(
                sim, cluster.node(0), cluster.node(1), 64, backend="tcp"
            )

    sim.run_process(proc())


def test_function_chain_through_platform(platform_env):
    sim, cluster, platform = platform_env

    def stage_two(ctx):
        yield 50_000
        return ["stage2@" + ctx.node.gid]

    def stage_one(ctx):
        yield 50_000
        result = yield from ctx.platform.invoke("stage2")
        return ["stage1@" + ctx.node.gid] + result

    platform.deploy("stage1", stage_one, cluster.node(0))
    platform.deploy("stage2", stage_two, cluster.node(1))

    def proc():
        return (yield from platform.invoke("stage1"))

    result = sim.run_process(proc())
    assert result == ["stage1@node0", "stage2@node1"]
    assert platform.stats_cold_starts == 2


def test_concurrent_invocations_share_warm_container(platform_env):
    sim, cluster, platform = platform_env
    platform.deploy("fn", _noop_handler, cluster.node(0))
    platform.prewarm("fn")
    finished = []

    def invoker(tag):
        result = yield from platform.invoke("fn")
        finished.append((tag, result))

    for tag in range(4):
        sim.process(invoker(tag))
    sim.run()
    assert len(finished) == 4
    assert platform.stats_cold_starts == 0
    assert platform.stats_warm_starts == 4
