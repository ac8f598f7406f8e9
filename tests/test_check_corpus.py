"""Replay the committed schedule corpus under ``tests/schedules/``.

This is the tier-1 regression net for the model checker: every clean
baseline must stay violation-free, the shrunk racey schedule must keep
reproducing its violation, and the pool accept-path schedule must
reproduce the pre-PR-4 RC leak when the bug is re-introduced -- and stay
clean on today's fixed code.
"""

import json
from pathlib import Path

import pytest

from repro.check import Schedule
from repro.check.runner import replay_schedule
from tests._mutants import accept_leak

SCHEDULES = Path(__file__).parent / "schedules"


def _load(name):
    return Schedule.load(SCHEDULES / name)


def test_corpus_files_are_canonical_json():
    paths = sorted(SCHEDULES.glob("*.json"))
    assert len(paths) >= 6, "schedule corpus went missing"
    for path in paths:
        raw = path.read_text()
        schedule = Schedule.from_dict(json.loads(raw))
        assert schedule.to_json() == raw, f"{path.name} is not canonical"


@pytest.mark.parametrize(
    "name",
    [
        "pool_churn_fifo_clean.json",
        "kvs_lin_fifo_clean.json",
        "chaos_small_fifo_clean.json",
        "meta_failover_fifo_clean.json",
        "batch_fault_fifo_clean.json",
        "mr_churn_fifo_clean.json",
    ],
)
def test_clean_baselines_stay_clean(name):
    schedule = _load(name)
    assert schedule.invariant is None
    result = replay_schedule(schedule)
    assert result.ok, (name, result.violations)


def test_racey_underflow_schedule_still_reproduces():
    schedule = _load("racey_pipeline_underflow.json")
    result = replay_schedule(schedule)
    assert any(v.invariant == schedule.invariant for v in result.violations), (
        "shrunk racey schedule no longer reproduces its violation"
    )


def test_accept_leak_schedule_reproduces_pre_fix_bug():
    schedule = _load("pool_churn_accept_leak.json")
    assert schedule.invariant == "pool-qp-accounting"
    with accept_leak():
        result = replay_schedule(schedule)
    assert any(v.invariant == schedule.invariant for v in result.violations), (
        "committed schedule no longer reproduces the pre-fix accept leak"
    )


def test_accept_leak_schedule_passes_post_fix():
    result = replay_schedule(_load("pool_churn_accept_leak.json"))
    assert result.ok, result.violations
