"""``repro.check``: a deterministic-simulation model checker.

Built on three observations about the simulation engine:

1. all nondeterminism in a run is the *same-timestamp dispatch order* of
   the engine's ready queue (everything else is seeded), so a
   :class:`ScheduleController` that picks which pending callback runs
   next systematically explores exactly the interleavings real
   concurrency would produce;
2. the control plane's correctness arguments (pool accounting, DCCache
   incarnations, MR leases, meta replication, exactly-once completion
   dispatch) are all checkable as *invariants* over hook events --
   :class:`Checker` collects them without perturbing the run;
3. every explored schedule is just a list of ``(step, choice)``
   decisions, so a failing schedule can be delta-debugged down to a
   minimal JSON trace that replays byte-identically as a regression
   test.

Usage::

    python -m repro.check pool_churn --mode random --seeds 50
    python -m repro.check --replay tests/schedules/pool_churn_accept_leak.json

Exports are lazy: ``repro.krcore`` imports :mod:`repro.check.hooks` at
module load, so this package must not eagerly import the scenario layer
(which imports ``repro.krcore`` back).
"""

_LAZY = {
    "Checker": "repro.check.invariants",
    "Violation": "repro.check.invariants",
    "ScheduleController": "repro.check.controller",
    "Schedule": "repro.check.controller",
    "FifoStrategy": "repro.check.controller",
    "RandomWalkStrategy": "repro.check.controller",
    "PctStrategy": "repro.check.controller",
    "ReplayStrategy": "repro.check.controller",
    "Op": "repro.check.linearizability",
    "check_register": "repro.check.linearizability",
    "check_histories": "repro.check.linearizability",
    "extract_histories": "repro.check.linearizability",
    "shrink_decisions": "repro.check.shrink",
    "run_once": "repro.check.runner",
    "result_schedule": "repro.check.runner",
    "replay_schedule": "repro.check.runner",
    "sweep": "repro.check.runner",
    "shrink_failure": "repro.check.runner",
    "CheckResult": "repro.check.runner",
    "SCENARIOS": "repro.check.scenarios",
    "get_scenario": "repro.check.scenarios",
}

__all__ = sorted(_LAZY) + ["hooks"]

from repro.check import hooks  # noqa: E402  (dependency-free, always safe)


def __getattr__(name):
    module_name = _LAZY.get(name)
    if module_name is None:
        raise AttributeError(f"module 'repro.check' has no attribute {name!r}")
    import importlib

    return getattr(importlib.import_module(module_name), name)
