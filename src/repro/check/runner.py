"""Run one scenario with the checker installed.

:func:`run_once` is the glue the CLI and the tests share: it installs a
:class:`~repro.check.invariants.Checker`, runs the scenario to
quiescence under the engine's own order, folds a chaos run's failed
invariants into the checker, checks the op history the scenario
recorded for linearizability and returns a :class:`CheckResult`.
"""

from repro.check import hooks
from repro.check.invariants import Checker
from repro.check.linearizability import by_key, check_histories
from repro.check.scenarios import get_scenario

__all__ = ["CheckResult", "run_once"]


class CheckResult:
    """Everything one checked run produced."""

    def __init__(self, scenario, checker, summary, histories=None, nonlinearizable=()):
        self.scenario = scenario
        self.violations = list(checker.violations)
        self.observed = dict(checker.observed)
        self.summary = summary
        self.histories = histories
        self.nonlinearizable = list(nonlinearizable)

    @property
    def ok(self):
        return not self.violations

    def describe(self):
        status = "PASS" if self.ok else f"FAIL({len(self.violations)})"
        return f"{self.scenario} {status} hook_events={sum(self.observed.values())}"


def run_once(scenario_name):
    """Run ``scenario_name`` once with the checker installed."""
    spec = get_scenario(scenario_name)
    checker = Checker()
    with hooks.checking(checker):
        summary = spec.fn(checker)
    if isinstance(summary, tuple):
        # A chaos run: each invariant its report failed is a violation.
        run, summary = summary
        report = run.report
        for name, holds in sorted(report.invariants.items()):
            if not holds:
                checker.custom(
                    f"chaos-{name}", run.sim.now,
                    f"chaos invariant {name} failed ({report.summary()})",
                )
    histories = by_key(checker.history)
    nonlinearizable = check_histories(histories)
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
        scenario_name, checker, summary,
        histories=histories or None, nonlinearizable=nonlinearizable,
    )
