"""CLI-level smoke for ``python -m repro.bench --jobs``.

Drives :func:`repro.bench.__main__.main` with a fake executor that
records what is submitted to the pool and runs it inline.
"""

import concurrent.futures

import pytest

from repro.bench.__main__ import main


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


def test_jobs_pools_every_figure_and_prints_in_submission_order(recording_pool, capsys):
    assert main(["fig01", "fig03", "--jobs", "2"]) == 0
    assert recording_pool.submitted == ["fig01", "fig03"]
    out = capsys.readouterr().out
    assert out.index("[fig01 regenerated") < out.index("[fig03 regenerated")


def test_profile_writes_a_pstats_report(tmp_path):
    path = tmp_path / "fig03.pstats.txt"
    assert main(["fig03", "--profile", str(path)]) == 0
    report = path.read_text()
    assert report.startswith("# cProfile of figure fig03")
    assert "== top 40 by cumulative time ==" in report
    assert "== top 40 by internal time ==" in report
