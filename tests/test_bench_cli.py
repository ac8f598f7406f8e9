"""CLI-level smoke for ``python -m repro.bench``: --partitions x --jobs.

The contract under test is the no-double-fork rule: a partition-aware
figure (``cluster_scale``) may fork one OS process per engine partition,
so with ``--partitions > 1`` it must run in the *parent* process even
when ``--jobs`` fans the other figures out over a pool.  These tests
drive :func:`repro.bench.__main__.main` with a fake executor that
records exactly what gets submitted to the pool.
"""

import concurrent.futures

import pytest

from repro.bench.__main__ import ALL_FIGURES, PARTITION_AWARE, main
from repro.bench.perf import partition_aware, run_figure


class _ImmediateFuture:
    def __init__(self, value):
        self._value = value

    def result(self):
        return self._value


class _RecordingPool:
    """Stands in for ProcessPoolExecutor; runs submissions inline."""

    submitted = []  # figure names, across instances, reset per test

    def __init__(self, max_workers=None):
        self.max_workers = max_workers

    def submit(self, fn, name, *args):
        type(self).submitted.append(name)
        return _ImmediateFuture(fn(name, *args))

    def shutdown(self):
        pass


@pytest.fixture
def recording_pool(monkeypatch):
    _RecordingPool.submitted = []
    monkeypatch.setattr(
        concurrent.futures, "ProcessPoolExecutor", _RecordingPool
    )
    return _RecordingPool


def test_partition_aware_registry_matches_signatures():
    for name in ALL_FIGURES:
        assert partition_aware(name) == (name in PARTITION_AWARE)


def test_partitions_flag_rejects_nonpositive(capsys):
    with pytest.raises(SystemExit):
        main(["cluster_scale", "--partitions", "0"])
    assert "--partitions must be >= 1" in capsys.readouterr().err


def test_serial_run_forwards_partitions(capsys):
    assert main(["cluster_scale", "--partitions", "2"]) == 0
    out = capsys.readouterr().out
    # --partitions 2 narrows the sweep to {1, 2}: no partitions=4 rows.
    partition_col = [
        int(line.split()[2]) for line in out.splitlines()
        if line.strip() and line.split()[0] in ("4", "8")
    ]
    assert partition_col == [1, 2, 1, 2]  # both topologies, P in {1, 2}


def test_jobs_keeps_partition_aware_figure_in_parent(recording_pool, capsys):
    assert main(["fig01", "cluster_scale", "--jobs", "2",
                 "--partitions", "2"]) == 0
    assert recording_pool.submitted == ["fig01"]
    out = capsys.readouterr().out
    # Output order still matches submission order.
    assert out.index("Fig 1") < out.index("Cluster scale")


def test_jobs_pools_partition_aware_figure_without_partitions(recording_pool):
    # Precedence only bites with P > 1: at P=1 (or unset) cluster_scale
    # forks nothing, so the pool is the right place for it.
    assert main(["fig01", "cluster_scale", "--jobs", "2",
                 "--partitions", "1"]) == 0
    assert recording_pool.submitted == ["fig01", "cluster_scale"]


def test_run_figure_ignores_partitions_for_unaware_figures():
    result, wall_s = run_figure("fig01", partitions=4)
    assert result.tables and wall_s > 0
