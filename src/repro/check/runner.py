"""Run scenarios under schedule strategies: sweep, replay, shrink.

The runner owns the glue the CLI and the tests share:

* :func:`run_once` -- one scenario under one strategy, with the checker
  installed and (for history-recording scenarios) the observability
  layer capturing op histories for the linearizability pass;
* :func:`sweep` -- a seed-budgeted randomized sweep (random-walk or PCT
  priorities);
* :func:`replay_schedule` -- deterministic re-execution of a serialized
  :class:`~repro.check.controller.Schedule`;
* :func:`shrink_failure` -- delta-debug a failing schedule to a minimal
  decision list (same invariant, byte-identical replay).
"""

import hashlib
import json

from repro.check import hooks
from repro.check.controller import (
    FifoStrategy,
    PctStrategy,
    RandomWalkStrategy,
    ReplayStrategy,
    Schedule,
    ScheduleController,
)
from repro.check.invariants import Checker
from repro.check.linearizability import check_histories, extract_histories
from repro.check.scenarios import get_scenario
from repro.check.shrink import shrink_decisions
from repro.obs import observe

__all__ = [
    "CheckResult",
    "replay_schedule",
    "run_once",
    "shrink_failure",
    "sweep",
]


class CheckResult:
    """Everything one checked run produced."""

    def __init__(self, scenario, scenario_kwargs, strategy_desc, controller,
                 checker, summary, histories=None, nonlinearizable=()):
        self.scenario = scenario
        self.scenario_kwargs = dict(scenario_kwargs)
        self.strategy = strategy_desc
        self.decisions = list(controller.decisions)
        self.points = list(controller.points)
        self.steps = controller.steps
        self.violations = list(checker.violations)
        self.observed = dict(checker.observed)
        self.summary = summary
        self.histories = histories
        self.nonlinearizable = list(nonlinearizable)

    @property
    def ok(self):
        return not self.violations

    def to_dict(self):
        return {
            "scenario": self.scenario,
            "scenario_kwargs": self.scenario_kwargs,
            "strategy": self.strategy,
            "steps": self.steps,
            "decisions": [list(pair) for pair in self.decisions],
            "violations": [v.to_dict() for v in self.violations],
            "observed": {k: self.observed[k] for k in sorted(self.observed)},
            "summary": self.summary,
            "nonlinearizable": self.nonlinearizable,
        }

    def digest(self):
        """SHA-256 of the canonical result JSON: two byte-identical runs
        produce equal digests (the determinism property tests rely on
        this being sensitive to every observable difference)."""
        text = json.dumps(self.to_dict(), sort_keys=True, default=repr)
        return hashlib.sha256(text.encode()).hexdigest()

    def describe(self):
        status = "PASS" if self.ok else f"FAIL({len(self.violations)})"
        return (
            f"{self.scenario} [{self.strategy}] {status} "
            f"steps={self.steps} decisions={len(self.decisions)}"
        )


def run_once(scenario_name, strategy=None, scenario_kwargs=None):
    """Run ``scenario_name`` once under ``strategy`` (FIFO by default)."""
    spec = get_scenario(scenario_name)
    kwargs = dict(spec.defaults)
    kwargs.update(scenario_kwargs or {})
    strategy = strategy or FifoStrategy()
    controller = ScheduleController(strategy)
    checker = Checker()
    with hooks.checking(checker):
        with observe() as (tracer, _metrics):
            summary = spec.fn(controller, checker, **kwargs)
            histories = extract_histories(tracer)
    nonlinearizable = check_histories(histories) if histories else []
    if spec.lin:
        for key in nonlinearizable:
            ops = sorted(histories[key], key=lambda op: op.invoke)
            checker.custom(
                "linearizability",
                max((op.invoke for op in ops), default=0),
                f"history for key {key} is not linearizable "
                f"({len(ops)} ops: {ops})",
            )
    return CheckResult(
        scenario_name, kwargs, strategy.describe(), controller, checker,
        summary, histories=histories or None, nonlinearizable=nonlinearizable,
    )


def result_schedule(result, note=None):
    """The :class:`Schedule` that reproduces ``result``."""
    seed = result.strategy.get("seed") if isinstance(result.strategy, dict) else None
    invariant = result.violations[0].invariant if result.violations else None
    return Schedule(
        result.scenario,
        result.decisions,
        scenario_kwargs=result.scenario_kwargs,
        seed=seed,
        invariant=invariant,
        note=note,
    )


def replay_schedule(schedule):
    """Re-execute a serialized schedule (decisions pin every recorded
    choice point; unrecorded points fall back to FIFO)."""
    return run_once(
        schedule.scenario,
        strategy=ReplayStrategy(schedule.decisions),
        scenario_kwargs=schedule.scenario_kwargs,
    )


def sweep(scenario_name, mode="random", seeds=20, seed_base=0, log=None):
    """Budgeted randomized sweep, stopped at the first failure; returns
    (results, failure or None)."""
    results = []
    for index in range(seeds):
        seed = seed_base + index
        if mode == "pct":
            strategy = PctStrategy(seed)
        else:
            strategy = RandomWalkStrategy(seed)
        result = run_once(scenario_name, strategy)
        results.append(result)
        if log is not None:
            log(result.describe())
        if not result.ok:
            return results, result
    return results, None


def shrink_failure(result, max_runs=300, log=None):
    """Delta-debug a failing result's decisions; returns (schedule,
    replay_result, runs_used) with the minimal decision list."""
    if result.ok:
        raise ValueError("shrink_failure needs a failing CheckResult")
    invariant = result.violations[0].invariant

    def still_fails(decisions):
        replay = run_once(
            result.scenario,
            ReplayStrategy(decisions),
            result.scenario_kwargs,
        )
        return any(v.invariant == invariant for v in replay.violations)

    minimal, runs = shrink_decisions(
        result.decisions, still_fails, max_runs=max_runs
    )
    if log is not None:
        log(
            f"shrink: {len(result.decisions)} -> {len(minimal)} decisions "
            f"in {runs} replays"
        )
    schedule = Schedule(
        result.scenario,
        minimal,
        scenario_kwargs=result.scenario_kwargs,
        invariant=invariant,
        note=f"shrunk from {len(result.decisions)} decisions ({runs} replays)",
    )
    return schedule, replay_schedule(schedule), runs
