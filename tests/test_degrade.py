"""The overload-protection layer: deadlines, breakers, admission.

Unit tests for the ``repro.degrade`` primitives, the regression tests
the PR 7 control-path bugs would have needed (deadline budgets shrinking
across meta failover; half-open probe behavior), and the goodput
acceptance bar asserted off the committed overload-figure CSV.
"""

import csv
import pathlib

import pytest

from repro import obs
from repro.check.invariants import Checker
from repro.cluster import timing
from repro.degrade import (
    AdmissionGate,
    CircuitBreaker,
    Deadline,
    TokenBucket,
)
from repro.krcore.meta import dct_key
from repro.sim import Simulator, US
from repro.verbs.errors import (
    DeadlineExceededError,
    KrcoreError,
    MetaUnavailableError,
    OverloadRejectedError,
)

CSV_DIR = pathlib.Path(__file__).resolve().parent.parent / (
    "benchmarks/results/fast/csv"
)


# ---------------------------------------------------------------- primitives


def test_deadline_budget_is_absolute():
    sim = Simulator()
    deadline = Deadline.after(sim, 100)
    assert deadline.remaining_ns(sim.now) == 100
    assert not deadline.expired(sim.now)
    deadline.check(sim.now, "fresh")  # no raise
    assert deadline.remaining_ns(sim.now + 40) == 60
    assert deadline.expired(sim.now + 100)
    with pytest.raises(DeadlineExceededError):
        deadline.check(sim.now + 150, "late")


def test_deadline_error_is_not_meta_unavailable():
    # The RC-fallback handlers catch MetaUnavailableError; a spent budget
    # must never trigger the milliseconds-long fallback.
    assert not issubclass(DeadlineExceededError, MetaUnavailableError)
    assert not issubclass(OverloadRejectedError, MetaUnavailableError)
    assert issubclass(DeadlineExceededError, KrcoreError)
    assert issubclass(OverloadRejectedError, KrcoreError)


def test_token_bucket_is_deterministic():
    sim = Simulator()
    bucket = TokenBucket(sim, rate_per_sec=1e6, burst=2)  # 1 token / us
    assert bucket.take(0)
    assert bucket.take(0)
    assert not bucket.take(0)
    assert bucket.ns_until_token(0) == 1000
    assert bucket.take(1000)
    # Refill caps at the burst.
    assert bucket.ns_until_token(10_000_000) == 0
    assert bucket.take(10_000_000)
    assert bucket.take(10_000_000)
    assert not bucket.take(10_000_000)


def _drive(sim, gen):
    """Run a generator process to completion, capturing its error."""
    box = {}

    def wrapper():
        try:
            box["value"] = yield from gen
        except Exception as err:  # noqa: BLE001 - test capture
            box["error"] = err

    sim.process(wrapper(), name="test-driver")
    return box


def test_token_bucket_rejects_a_burst_below_one_token():
    # Capped below one token, the bucket never yields one: a gate on it
    # would admit nothing and its drain pump would never let the run end.
    with pytest.raises(ValueError):
        TokenBucket(Simulator(), rate_per_sec=1000, burst=0.5)
    assert TokenBucket(Simulator(), rate_per_sec=1000, burst=1).take(0)


def test_breaker_walks_the_state_machine(monkeypatch):
    monkeypatch.setattr(timing, "DEGRADE_BREAKER_FAILURES", 2)
    monkeypatch.setattr(timing, "DEGRADE_BREAKER_RECOVERY_NS", 1000)
    monkeypatch.setattr(timing, "DEGRADE_BREAKER_LATENCY_NS", 500)
    sim = Simulator()
    checker = Checker()
    with obs.attached(checker=checker):
        breaker = CircuitBreaker(sim, name="t")
        assert breaker.allow()
        breaker.record_failure()
        assert breaker.state == "closed"
        breaker.record_failure()
        assert breaker.state == "open"
        # OPEN fast-fails until the recovery time elapses...
        assert not breaker.allow()
        assert breaker.stats_fast_fails == 1
        sim.schedule(1000, lambda: None)
        sim.run()
        # ...then admits exactly one half-open probe.
        assert breaker.allow()
        assert breaker.state == "half_open"
        assert not breaker.allow()  # second caller: probe in flight
        breaker.record_success(latency_ns=10)
        assert breaker.state == "closed"
        # A slow success counts as a failure (the gray signal): two of
        # them re-open the breaker.
        breaker.record_success(latency_ns=10_000)
        breaker.record_success(latency_ns=10_000)
        assert breaker.state == "open"
    assert checker.ok, checker.violations
    assert checker.observed["breaker.transition"] >= 4


def test_breaker_checker_flags_illegal_transition():
    sim = Simulator()
    checker = Checker()
    breaker = CircuitBreaker(sim, name="bad")
    checker.breaker_transition(breaker, "closed", "half_open", 0)
    assert not checker.ok
    assert checker.violations[0].invariant == "breaker-state-sanity"


def test_admission_gate_sheds_oldest_lifo():
    sim = Simulator()
    checker = Checker()
    with obs.attached(checker=checker):
        # One token then dry for a long time: rate = 1 token / 100 us.
        gate = AdmissionGate(
            sim, rate_per_sec=1e4, burst=1, max_pending=2, name="t"
        )
        boxes = [_drive(sim, gate.admit()) for _ in range(4)]
        sim.run()
        checker.finalize()
    # op0 took the burst token; op1/op2 queued; op3 overflowed the
    # bounded queue, shedding the *oldest* waiter (op1).  The drain pump
    # then serves the *newest* first (op3), then op2.
    assert "error" not in boxes[0]
    assert isinstance(boxes[1].get("error"), OverloadRejectedError)
    assert "error" not in boxes[2]
    assert "error" not in boxes[3]
    assert gate.stats_arrivals == 4
    assert gate.stats_admitted == 3
    assert gate.stats_shed == 1
    assert gate.pending == 0
    assert checker.ok, checker.violations


def test_admission_gate_rejects_eagain_with_no_queue():
    sim = Simulator()
    gate = AdmissionGate(sim, rate_per_sec=1e4, burst=1, max_pending=0)
    first = _drive(sim, gate.admit())
    second = _drive(sim, gate.admit())
    sim.run()
    assert "error" not in first
    assert isinstance(second.get("error"), OverloadRejectedError)
    assert gate.stats_rejected == 1


def test_admission_checker_flags_admitted_then_dropped():
    sim = Simulator()
    checker = Checker()
    gate = AdmissionGate(sim, rate_per_sec=1e4, burst=1, max_pending=1)
    checker.admission_event(gate, 7, "admitted", 0)
    checker.admission_event(gate, 7, "shed", 5)
    assert not checker.ok
    assert checker.violations[0].invariant == "admission-no-drop"


# ------------------------------------------------------------- control path


def _sharded_stack():
    from repro.bench.setups import krcore_cluster

    sim, cluster, meta, modules = krcore_cluster(
        num_nodes=4, meta_shards=2, cores=1, background_rc=False
    )
    client = modules[-1]
    target = cluster.nodes[2].gid
    return sim, meta, client, target


def test_deadline_shrinks_across_meta_failover():
    """Regression: the budget an outage probe burns on the primary shard
    is budget the replica probe no longer has.  A budget smaller than
    one probe must surface DeadlineExceededError -- not a replica
    success, and *not* MetaUnavailableError (which would trigger the
    RC fallback)."""
    sim, meta, client, target = _sharded_stack()
    primary = meta.primary_index(dct_key(target))
    meta.set_outage(10 * timing.MS, shard=primary)
    client.dc_cache.pop(target, None)

    short = Deadline.after(sim, timing.META_OUTAGE_PROBE_NS // 2)
    box = _drive(sim, client.lookup_dct_robust(0, target, deadline=short))
    sim.run()
    assert isinstance(box.get("error"), DeadlineExceededError)
    assert "owner probe" in str(box["error"])

    # With budget to spare, the same lookup fails over and succeeds.
    ample = Deadline.after(sim, 10 * timing.MS)
    box = _drive(sim, client.lookup_dct_robust(0, target, deadline=ample))
    sim.run()
    assert "error" not in box, box
    assert box["value"] is not None


def test_retry_loop_gives_up_before_backoff_exceeds_deadline():
    """lookup_dct_robust must not sleep a backoff the caller cannot
    afford: whole-plane outage + a small budget surfaces
    DeadlineExceededError instead of a pointless retry sleep."""
    sim, meta, client, target = _sharded_stack()
    meta.set_outage(50 * timing.MS)  # every shard dark
    client.dc_cache.pop(target, None)
    deadline = Deadline.after(sim, 3 * timing.META_OUTAGE_PROBE_NS)
    box = _drive(sim, client.lookup_dct_robust(0, target, deadline=deadline))
    sim.run()
    assert isinstance(box.get("error"), DeadlineExceededError)


def test_backoff_jitter_is_seeded_and_bounded():
    base = timing.KRCORE_BACKOFF_BASE_NS
    first = timing.backoff_jitter_ns(base, "nodeA->nodeB", 1)
    again = timing.backoff_jitter_ns(base, "nodeA->nodeB", 1)
    other = timing.backoff_jitter_ns(base, "nodeC->nodeB", 1)
    assert first == again  # deterministic
    assert 0 <= first < int(base * timing.KRCORE_BACKOFF_JITTER_FRAC)
    # Distinct salts actually desynchronize (for this pair, by value).
    assert first != other


# ------------------------------------------------------- overload figure bar


def _load_overload_rows():
    path = CSV_DIR / "overload-0.csv"
    with open(path, newline="") as handle:
        rows = list(csv.DictReader(handle))
    by_mode = {"protected": {}, "unprotected": {}}
    for row in rows:
        goodput = float(row["goodput (K/s)"].replace(",", ""))
        by_mode[row["mode"]][float(row["load multiple"])] = goodput
    return by_mode


def test_overload_figure_goodput_floor():
    """The acceptance bar: protection holds >= 70% of peak goodput at 4x
    offered load, while the unprotected stack collapses below half."""
    by_mode = _load_overload_rows()
    protected = by_mode["protected"]
    unprotected = by_mode["unprotected"]
    assert protected[4.0] >= 0.70 * max(protected.values())
    assert unprotected[4.0] < 0.50 * max(unprotected.values())
    # At or below capacity, protection is free: identical goodput.
    assert protected[0.5] == unprotected[0.5]
    assert protected[1.0] == unprotected[1.0]
