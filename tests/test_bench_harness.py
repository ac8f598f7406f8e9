"""Tests for the benchmark harness and shared drivers (small configs)."""

import os

import pytest

from repro.bench.harness import FigureResult, Table, full_mode, hardware_profile
from repro.bench.onesided import run_onesided
from repro.bench.echo import run_echo
from repro.bench.setups import krcore_cluster, spread_clients, verbs_cluster
from repro.cluster import timing
from repro.krcore import KrcoreLib
from repro.sim import US


def test_table_renders_aligned_rows():
    table = Table("demo", ["name", "value"])
    table.add_row("alpha", 1.5)
    table.add_row("b", 12345.678)
    rendered = table.render()
    lines = rendered.splitlines()
    assert lines[0] == "demo"
    assert "alpha" in rendered
    assert "12,346" in rendered  # thousands formatting


def test_table_rejects_wrong_arity():
    table = Table("demo", ["a", "b"])
    with pytest.raises(ValueError):
        table.add_row(1)


def test_hardware_profile_restores_every_constant_when_its_block_raises():
    before = (timing.SYSCALL_NS, timing.VIRTUALIZATION_CHECK_NS)
    with pytest.raises(RuntimeError):
        with hardware_profile(SYSCALL_NS=0, VIRTUALIZATION_CHECK_NS=7):
            assert (timing.SYSCALL_NS, timing.VIRTUALIZATION_CHECK_NS) == (0, 7)
            raise RuntimeError("boom")
    assert (timing.SYSCALL_NS, timing.VIRTUALIZATION_CHECK_NS) == before


def test_hardware_profile_refuses_a_name_timing_does_not_define():
    before = timing.SYSCALL_NS
    entered = []
    with pytest.raises(AttributeError):
        with hardware_profile(SYSCALL_NS=0, NO_SUCH_NS=1):
            entered.append(True)
    assert not entered and timing.SYSCALL_NS == before
    assert not hasattr(timing, "NO_SUCH_NS")


def test_a_profile_without_the_syscall_makes_create_vqp_free():
    """Fig 12a's "+DCQP" row: the model reads the syscall cost at run time."""
    sim, cluster, _, _ = krcore_cluster(num_nodes=2, background_rc=False)
    lib = KrcoreLib(cluster.node(1))

    def proc():
        start = sim.now
        yield from lib.create_vqp()
        return sim.now - start

    with hardware_profile(SYSCALL_NS=0):
        assert sim.run_process(proc()) == 0
    assert sim.run_process(proc()) == timing.SYSCALL_NS


def test_figure_result_renders_all_tables():
    result = FigureResult("Fig X", "demo")
    t1 = result.table("one", ["c"])
    t1.add_row(1)
    t2 = result.table("two", ["c"])
    t2.add_row(2)
    rendered = result.render()
    assert "Fig X" in rendered and "one" in rendered and "two" in rendered


def test_full_mode_reads_environment(monkeypatch):
    monkeypatch.delenv("REPRO_BENCH_FULL", raising=False)
    assert not full_mode()
    monkeypatch.setenv("REPRO_BENCH_FULL", "1")
    assert full_mode()


def test_spread_clients_round_robin():
    sim, cluster = verbs_cluster(num_nodes=4)
    placements = spread_clients(10, cluster.nodes)
    nodes = [node.gid for node, _cpu in placements]
    assert nodes[:4] == ["node0", "node1", "node2", "node3"]
    # CPU ids advance once the nodes wrap.
    assert placements[0][1] == 0
    assert placements[4][1] == 1


def test_run_onesided_rejects_unknown_inputs():
    with pytest.raises(ValueError):
        run_onesided("tcp", "sync")
    with pytest.raises(ValueError):
        run_onesided("verbs", "turbo")
    with pytest.raises(ValueError):
        run_echo("tcp", "sync")


def test_run_onesided_sync_latency_sane():
    result = run_onesided("verbs", "sync", num_clients=1, measure_ns=60 * US)
    assert 2.0 < result.avg_latency_us < 2.4
    assert len(result.recorder) > 10


def test_run_onesided_async_throughput_counts_served_ops():
    result = run_onesided(
        "verbs", "async", num_clients=8, batch=8, measure_ns=60 * US
    )
    assert result.served is not None
    assert result.throughput_mps > 1.0


def test_run_onesided_single_node_placement():
    # All clients on one node: the Fig 15b topology.
    result = run_onesided(
        "lite", "sync", num_clients=3, single_node=True, measure_ns=60 * US
    )
    assert len(result.recorder) > 0


def test_krcore_cluster_boots_meta_first():
    sim, cluster, meta, modules = krcore_cluster(num_nodes=4, meta_index=2)
    assert meta.node is cluster.node(2)
    # Every module primed its DCCache with the meta node's metadata.
    for index, module in enumerate(modules):
        if index != 2:
            assert cluster.node(2).gid in module.dc_cache


def test_table_csv_roundtrip(tmp_path):
    result = FigureResult("Fig Y", "csv demo")
    table = result.table("series", ["x", "y"])
    table.add_row(1, 2.5)
    table.add_row(2, 3.5)
    paths = result.save_csv(tmp_path, "figy")
    assert len(paths) == 1
    content = paths[0].read_text().strip().splitlines()
    assert content[0] == "x,y"
    assert content[1] == "1,2.5"
