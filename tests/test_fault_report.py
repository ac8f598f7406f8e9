"""Regression pin for ChaosReport invariant reporting.

``all_invariants_hold`` must be a *property* whose value feeds
``summary()``.  Were it a plain method, ``summary()``'s truthiness test
would see the bound method object -- always truthy -- and report PASS on
a failing run.  These tests fail on that regression in either direction.
"""

import inspect

from repro.faults import ChaosReport


def test_all_invariants_hold_is_a_property_not_a_method():
    attr = inspect.getattr_static(ChaosReport, "all_invariants_hold")
    assert isinstance(attr, property), (
        "all_invariants_hold must stay a property: as a bound method it "
        "is always truthy and summary() would report PASS on failures"
    )


def test_summary_reports_fail_when_an_invariant_is_false():
    report = ChaosReport(seed=1)
    report.invariants = {"convergence": True, "exactly_once": False}
    assert report.all_invariants_hold is False
    assert "invariants=FAIL" in report.summary()


def test_summary_reports_pass_only_when_all_hold():
    report = ChaosReport(seed=1)
    report.invariants = {"convergence": True, "exactly_once": True}
    assert report.all_invariants_hold is True
    assert "invariants=PASS" in report.summary()


def test_empty_invariants_do_not_count_as_passing():
    report = ChaosReport(seed=1)
    assert report.invariants == {}
    assert report.all_invariants_hold is False
    assert "invariants=FAIL" in report.summary()


def test_invariant_outcome_is_part_of_the_digest():
    passing = ChaosReport(seed=1)
    passing.invariants = {"convergence": True}
    failing = ChaosReport(seed=1)
    failing.invariants = {"convergence": False}
    assert passing.digest() != failing.digest()
