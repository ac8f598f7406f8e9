"""The mutant corpus as a regression net: every fixed bug that
``tests/_mutants.py`` re-injects fails its detector, and the detector
passes on the shipping code.

A detector is a tier-1 test.  Where a law of the invariant registry
kills the mutant, the detector runs the test under a checker of its own
and only a law counts, never the test's own asserts, since that is the
kill the checker has to keep; DESIGN.md §10 has the whole kill matrix.
These tests run unchecked: the mutants break laws on purpose.
"""

import contextlib
import functools

import pytest

import tests._mutants as mutants
from repro import obs
from repro.check.invariants import Checker
from repro.cluster import Cluster
from repro.faults.microview import MicroViewChaosHarness
from repro.sim import SimulationError, Simulator
from repro.verbs import VerbsError
from tests import (
    test_krcore_internals,
    test_krcore_transfer,
    test_meta_plane,
    test_node_rest_budget,
    test_race,
    test_srq_stock_oracle,
    test_verbs_control,
    test_verbs_dataplane,
)

pytestmark = pytest.mark.unchecked("re-injects fixed bugs that break laws on purpose")


def _law(test):
    """``test`` under a checker of its own: a law of the invariant
    registry kills the mutant, the test's own asserts do not count."""

    @functools.wraps(test)
    def detect():
        checker = Checker()
        with obs.attached(checker=checker), contextlib.suppress(AssertionError, SimulationError):
            test()
        assert checker.finalize() == [], checker.violations

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


def _microview_chaos_holds():
    """The MicroView chaos run at seed 5, its checker's laws included."""
    report = MicroViewChaosHarness(5).run()
    assert report.all_invariants_hold, report.summary()


#: mutant -> (detector, what the detector raises under the mutant).
CORPUS = {
    "accept_leak": (
        _law(test_meta_plane.test_rc_accept_eviction_unregisters_victim_qp), AssertionError,
    ),
    "transfer_post_gate": (
        _law(test_krcore_transfer.test_harvest_under_churn_survives_background_promotion),
        AssertionError,
    ),
    "batch_stale_completion": (_microview_chaos_holds, AssertionError),
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
