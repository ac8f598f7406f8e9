"""The simulation is deterministic: identical runs, identical results.

Determinism is what makes the regenerated figures reproducible and the
hypothesis failures replayable, so it gets its own tests.
"""

from repro.bench.fig03 import run as run_fig03
from repro.bench import onesided
from repro.bench.onesided import run_onesided
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
                  measure_ns=80 * US)
    a = run_onesided("krcore_dc", **kwargs)
    b = run_onesided("krcore_dc", **kwargs)
    assert a.recorder.samples == b.recorder.samples
    assert a.throughput_mps == b.throughput_mps


def test_onesided_driver_seed_changes_samples(monkeypatch):
    base = dict(mode="sync", num_clients=5, servers=2, target="random",
                measure_ns=80 * US)
    monkeypatch.setattr(onesided, "SEED", 7)
    a = run_onesided("krcore_dc", **base)
    monkeypatch.setattr(onesided, "SEED", 8)
    b = run_onesided("krcore_dc", **base)
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

