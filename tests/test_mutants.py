"""The mutant corpus as a regression net: every fixed bug that
``tests/_mutants.py`` re-injects fails its detector, and the detector
passes on the shipping code.

A detector is a checker scenario -- run under the invariant registry with
``run_once``; it fails when the run reports a violation -- or the tier-1
regression test written with the fix.  Where a scenario kills the mutant
it is the detector named here, since that is the kill the checker has to
keep, and where a registry law kills it the scenario's own checks do not
count; DESIGN.md §10 has the whole kill matrix.
"""

import functools

import pytest

import tests._mutants as mutants
from repro.check.runner import run_once
from repro.cluster import Cluster
from repro.sim import Simulator
from repro.verbs import VerbsError
from tests import (
    test_krcore_internals,
    test_node_rest_budget,
    test_race,
    test_srq_stock_oracle,
    test_verbs_control,
    test_verbs_dataplane,
)


def _scenario(name):
    def detect():
        result = run_once(name)
        assert result.ok, result.violations

    return detect


def _registry(name):
    """The scenario with its own checks (``Checker.custom``) discounted:
    only a law of the invariant registry kills the mutant."""

    def detect():
        result = run_once(name)
        laws = [v for v in result.violations if f"custom.{v.invariant}" not in result.observed]
        assert not laws, result.violations

    return detect


def _on_a_cluster(test):
    """``test(sim, cluster)`` on the ``cluster`` fixture's three nodes."""

    @functools.wraps(test)
    def detect():
        sim = Simulator()
        test(sim, Cluster(sim, num_nodes=3))

    return detect


def _monkeypatched(test):
    @functools.wraps(test)
    def detect():
        with pytest.MonkeyPatch.context() as monkeypatch:
            test(monkeypatch)

    return detect


#: mutant -> (detector, what the detector raises under the mutant).
CORPUS = {
    "accept_leak": (_scenario("pool_churn"), AssertionError),
    "transfer_post_gate": (_registry("transfer_race"), AssertionError),
    "batch_stale_completion": (_scenario("mr_churn"), AssertionError),
    "recycle_skips_owed": (
        test_srq_stock_oracle.test_a_drained_burst_larger_than_the_reserve_restocks_the_srq,
        AssertionError,
    ),
    "unbind_keeps_slots": (
        test_krcore_internals.test_destroying_a_bound_vqp_frees_the_slots_of_its_queued_messages,
        AssertionError,
    ),
    "reset_stale_completion": (
        test_verbs_control.test_cqes_left_in_the_cq_across_a_reset_release_no_slot,
        VerbsError,
    ),
    "err_flush_order": (
        _on_a_cluster(test_verbs_dataplane.test_error_flush_completes_in_posting_order),
        AssertionError,
    ),
    "reset_keeps_queued_wr": (
        test_verbs_control.test_a_wr_handed_to_the_parked_sender_does_not_survive_the_reset,
        VerbsError,
    ),
    "sender_pins_flight": (
        _monkeypatched(
            test_node_rest_budget.test_rest_budget_a_drained_window_pins_no_flight_and_no_wr
        ),
        AssertionError,
    ),
    "lite_no_read_batch": (
        functools.partial(test_race.test_batched_get_over_backend, test_race._lite_env),
        AttributeError,
    ),
    "race_put_first_hole": (
        functools.partial(
            test_race.test_update_of_an_overflowed_key_after_a_hole_keeps_one_slot,
            test_race._verbs_env,
        ),
        AssertionError,
    ),
    "race_get_batch_home_only": (
        functools.partial(
            test_race.test_batched_get_finds_overflowed_keys_and_fingerprint_twins,
            test_race._verbs_env,
        ),
        AssertionError,
    ),
    "race_load_first_hole": (
        functools.partial(
            test_race.test_local_load_after_a_hole_updates_in_place, test_race._verbs_env
        ),
        AssertionError,
    ),
}


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_each_mutant_fails_its_detector(name):
    detect, raised = CORPUS[name]
    detect()  # clean on the shipping code
    with getattr(mutants, name)():
        with pytest.raises(raised):
            detect()
    detect()  # and clean again once the block restores it


def test_the_corpus_is_every_mutant():
    public = {
        name for name in dir(mutants)
        if not name.startswith("_") and callable(getattr(mutants, name))
        and getattr(mutants, name).__module__ == mutants.__name__
    }
    assert public == set(CORPUS)
