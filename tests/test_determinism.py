"""The simulation is deterministic: identical runs, identical results.

Determinism is what makes the regenerated figures reproducible and the
hypothesis failures replayable, so it gets its own tests.
"""

import pytest

from repro.bench.fig03 import run as run_fig03
from repro.bench.onesided import run_onesided
from repro.cluster.scale import ScaleSpec, run_scale
from repro.sim import Simulator, US
from repro.verbs import WorkRequest
from tests.conftest import krcore_cluster
from repro.krcore import KrcoreLib


def test_fig03_runs_are_identical():
    first = run_fig03(fast=True)
    second = run_fig03(fast=True)
    assert first.render() == second.render()
    assert first.metrics == second.metrics


def test_onesided_driver_is_deterministic():
    kwargs = dict(mode="sync", num_clients=5, servers=2, target="random",
                  measure_ns=80 * US, seed=7)
    a = run_onesided("krcore_dc", **kwargs)
    b = run_onesided("krcore_dc", **kwargs)
    assert a.recorder.samples == b.recorder.samples
    assert a.throughput_mps == b.throughput_mps


def test_onesided_driver_seed_changes_samples():
    base = dict(mode="sync", num_clients=5, servers=2, target="random",
                measure_ns=80 * US)
    a = run_onesided("krcore_dc", seed=7, **base)
    b = run_onesided("krcore_dc", seed=8, **base)
    # Different random target sequences -> different retarget patterns.
    assert a.recorder.samples != b.recorder.samples


def test_full_krcore_workload_replays_identically():
    def one_run():
        sim = Simulator()
        cluster, meta, modules = krcore_cluster(sim, num_nodes=4)
        lib_s = KrcoreLib(cluster.node(2))
        lib = KrcoreLib(cluster.node(1))
        trace = []

        def proc():
            raddr = cluster.node(2).memory.alloc(4096)
            rmr = yield from lib_s.reg_mr(raddr, 4096)
            laddr = cluster.node(1).memory.alloc(4096)
            lmr = yield from lib.reg_mr(laddr, 4096)
            vqp = yield from lib.create_vqp()
            yield from lib.qconnect(vqp, cluster.node(2).gid)
            for i in range(20):
                yield from lib.post_send(
                    vqp, WorkRequest.read(laddr, 8, lmr.lkey, raddr, rmr.rkey, wr_id=i)
                )
                entry = yield from vqp.wait_send_completion()
                trace.append((sim.now, entry.wr_id))
            return trace

        return sim.run_process(proc())

    assert one_run() == one_run()


# -- partitioned runs --------------------------------------------------------
#
# The partitioned engine must be deterministic along every axis at once:
# repeated same-seed runs, every partition count, and both execution modes.

_SCALE_KWARGS = dict(racks=4, nodes_per_rack=2, tenants_per_node=2,
                     ops_per_tenant=6, mean_think_ns=5_000, seed=21)


@pytest.mark.parametrize("partitions", [1, 2, 4])
def test_partitioned_same_seed_runs_are_identical(partitions):
    spec = ScaleSpec(**_SCALE_KWARGS)
    first = run_scale(spec, partitions=partitions)
    second = run_scale(spec, partitions=partitions)
    assert first.digest() == second.digest()
    assert first.records == second.records
    assert first.windows == second.windows
    assert first.events_dispatched == second.events_dispatched


def test_partitioned_mp_mode_is_deterministic():
    spec = ScaleSpec(**_SCALE_KWARGS)
    first = run_scale(spec, partitions=2, mode="mp")
    second = run_scale(spec, partitions=2, mode="mp")
    assert first.digest() == second.digest()
    assert first.windows == second.windows


def test_partitioned_seed_changes_digest():
    a = run_scale(ScaleSpec(**_SCALE_KWARGS), partitions=2)
    b = run_scale(ScaleSpec(**{**_SCALE_KWARGS, "seed": 22}), partitions=2)
    assert a.digest() != b.digest()
