"""Overload protection and graceful degradation for the control plane.

KRCORE's headline claim is a control plane that stays microsecond-scale
under elastic bursts, but burst traffic has a failure mode binary fault
injection never exercises: *overload* and *gray failure*, where every
component is technically alive but slow, queues grow without bound, and
goodput collapses even though nothing ever "failed".  This package is
the defense layer:

- :class:`Deadline` -- an absolute time budget a qconnect/one-sided op
  carries across meta RPC hops.  Retry loops check it before sleeping,
  shard probes check it before failing over, and the meta client checks
  it after queueing for its mutex, so work a caller no longer has time
  for stops consuming capacity and surfaces a typed
  :class:`~repro.verbs.errors.DeadlineExceededError`.
- :class:`CircuitBreaker` -- the classic closed/open/half-open machine,
  one per (module, meta shard), driven by observed failures *and*
  latency so a lagging-but-alive shard is probed, not hammered.
- :class:`TokenBucket` / :class:`AdmissionGate` -- admission control on
  the shared DCT-lookup capacity: a deterministic token bucket with a
  bounded pending queue served LIFO (fresh arrivals ride the next token;
  the oldest waiter -- the one most likely already past its deadline --
  is shed first), rejecting early with a typed
  :class:`~repro.verbs.errors.OverloadRejectedError` instead of letting
  a storm collapse everyone's latency.
- :class:`DegradePolicy` -- its presence turns breakers and admission
  on for a module; a module built without one (``KrcoreModule(degrade=
  None)``, the default) takes none of these paths, which is what keeps
  every committed figure CSV byte-identical.

All timing is simulated-clock based and fully deterministic; breaker
transitions and admission lifecycle events report to ``repro.check``
hooks and ``repro.obs`` metrics behind the usual single falsy checks.
"""

import math

from repro.check import hooks as _check
from repro.cluster import timing
from repro.obs import metrics as _metrics
from repro.obs import trace as _trace
from repro.verbs.errors import DeadlineExceededError, OverloadRejectedError

__all__ = [
    "AdmissionGate",
    "CircuitBreaker",
    "Deadline",
    "DeadlineExceededError",
    "DegradePolicy",
    "OverloadRejectedError",
    "TokenBucket",
]

BREAKER_CLOSED = "closed"
BREAKER_OPEN = "open"
BREAKER_HALF_OPEN = "half_open"

#: The legal breaker transitions; repro.check flags anything else.
BREAKER_TRANSITIONS = frozenset(
    [
        (BREAKER_CLOSED, BREAKER_OPEN),
        (BREAKER_OPEN, BREAKER_HALF_OPEN),
        (BREAKER_HALF_OPEN, BREAKER_CLOSED),
        (BREAKER_HALF_OPEN, BREAKER_OPEN),
    ]
)


class Deadline:
    """An absolute expiry on the simulated clock.

    The budget is "decremented" across hops for free: each checkpoint
    compares the advancing clock against the fixed expiry, so whatever
    one hop spends is exactly what the next hop no longer has.
    """

    __slots__ = ("expires_at_ns",)

    def __init__(self, expires_at_ns):
        self.expires_at_ns = int(expires_at_ns)

    @classmethod
    def after(cls, sim, budget_ns):
        """A deadline ``budget_ns`` from the simulation's current time."""
        return cls(sim.now + int(budget_ns))

    def remaining_ns(self, now):
        return self.expires_at_ns - now

    def expired(self, now):
        return now >= self.expires_at_ns

    def check(self, now, what):
        """Raise :class:`DeadlineExceededError` if the budget is spent."""
        if now >= self.expires_at_ns:
            raise DeadlineExceededError(
                f"deadline passed {now - self.expires_at_ns} ns ago: {what}"
            )

    def __repr__(self):
        return f"Deadline(expires_at_ns={self.expires_at_ns})"


class CircuitBreaker:
    """Closed/open/half-open breaker over one downstream dependency.

    CLOSED passes everything and counts *consecutive* failures; at
    :data:`timing.DEGRADE_BREAKER_FAILURES` it opens.  OPEN fast-fails
    (``allow`` returns False at zero cost -- no
    :data:`timing.META_OUTAGE_PROBE_NS` burned) until
    :data:`timing.DEGRADE_BREAKER_RECOVERY_NS` elapses, then admits
    exactly one probe in HALF_OPEN.  The probe's outcome decides: success
    closes, failure re-opens.  A success slower than
    :data:`timing.DEGRADE_BREAKER_LATENCY_NS` counts as a failure -- that
    is the gray-failure signal: a shard that answers in 250 us is, for a
    microsecond-scale control plane, down.
    """

    def __init__(self, sim, name=""):
        self.sim = sim
        self.name = name
        self.state = BREAKER_CLOSED
        self._failures = 0
        self._opened_at = 0
        self._probe_inflight = False
        self.stats_opens = 0
        self.stats_fast_fails = 0
        self.stats_probes = 0

    def _transition(self, new_state):
        old_state = self.state
        self.state = new_state
        if _check.CHECKER is not None:
            _check.CHECKER.breaker_transition(self, old_state, new_state, self.sim.now)
        if _trace.TRACER is not None:
            _trace.TRACER.instant(
                self.sim.now, f"degrade/{self.name}", f"breaker.{new_state}",
                prev=old_state,
            )

    def allow(self):
        """May a request go downstream right now?  False = fast-fail."""
        if self.state is BREAKER_CLOSED:
            return True
        if self.state is BREAKER_OPEN:
            if self.sim.now - self._opened_at >= timing.DEGRADE_BREAKER_RECOVERY_NS:
                self._transition(BREAKER_HALF_OPEN)
                self._probe_inflight = True
                self.stats_probes += 1
                return True
            self.stats_fast_fails += 1
            return False
        # HALF_OPEN: exactly one probe at a time.
        if self._probe_inflight:
            self.stats_fast_fails += 1
            return False
        self._probe_inflight = True
        self.stats_probes += 1
        return True

    def record_success(self, latency_ns=None):
        """A downstream answer arrived; slow answers still count against."""
        if latency_ns is not None and latency_ns > timing.DEGRADE_BREAKER_LATENCY_NS:
            self.record_failure()
            return
        self._failures = 0
        if self.state is BREAKER_HALF_OPEN:
            self._probe_inflight = False
            self._transition(BREAKER_CLOSED)

    def record_failure(self):
        if self.state is BREAKER_HALF_OPEN:
            self._probe_inflight = False
            self._opened_at = self.sim.now
            self.stats_opens += 1
            self._transition(BREAKER_OPEN)
            return
        self._failures += 1
        if (self.state is BREAKER_CLOSED
                and self._failures >= timing.DEGRADE_BREAKER_FAILURES):
            self._opened_at = self.sim.now
            self.stats_opens += 1
            self._transition(BREAKER_OPEN)

    def __repr__(self):
        return f"CircuitBreaker({self.name!r}, state={self.state!r})"


class TokenBucket:
    """A deterministic token bucket on the simulated clock.

    Refill is computed lazily from elapsed simulated time (IEEE floats,
    so identical call sequences yield identical token balances -- no
    wall clock, no RNG).
    """

    __slots__ = ("sim", "rate_per_sec", "burst", "_tokens", "_stamp")

    def __init__(self, sim, rate_per_sec, burst):
        if rate_per_sec <= 0:
            raise ValueError("token bucket needs a positive rate")
        if burst < 1:
            # A balance capped below one token never yields one.
            raise ValueError("token bucket needs a burst of at least one token")
        self.sim = sim
        self.rate_per_sec = float(rate_per_sec)
        self.burst = float(burst)
        self._tokens = float(burst)
        self._stamp = sim.now

    def _refill(self, now):
        if now > self._stamp:
            self._tokens = min(
                self.burst,
                self._tokens + (now - self._stamp) * self.rate_per_sec / 1e9,
            )
            self._stamp = now

    def take(self, now):
        """Consume one token if available; False means come back later."""
        self._refill(now)
        if self._tokens >= 1.0:
            self._tokens -= 1.0
            return True
        return False

    def ns_until_token(self, now):
        """Simulated ns until one whole token will have accumulated."""
        self._refill(now)
        if self._tokens >= 1.0:
            return 0
        return int(math.ceil((1.0 - self._tokens) * 1e9 / self.rate_per_sec))


class AdmissionGate:
    """Token-bucket admission with a bounded, LIFO-served pending queue.

    ``admit()`` is a simulation process.  With a token in hand the
    caller passes straight through; otherwise it parks on the pending
    stack.  A single drain pump wakes per accumulated token and admits
    the *newest* waiter -- LIFO, because under overload the oldest
    waiter is the one whose caller has already burned most of its
    deadline; serving fresh arrivals first is what keeps a well-behaved
    tenant's p99 flat while a storm rages.  When the stack is full the
    *oldest* waiter is shed with :class:`OverloadRejectedError` to make
    room (``max_pending=0`` degenerates to immediate reject).

    Every request's lifecycle (admitted / queued / shed / rejected) is
    reported to the installed :mod:`repro.check` checker, which enforces
    shed-count accounting and that no admitted request is ever dropped.
    """

    _ADMITTED = "admitted"
    _SHED = "shed"

    def __init__(self, sim, rate_per_sec, burst, max_pending, name=""):
        self.sim = sim
        self.name = name
        self.bucket = TokenBucket(sim, rate_per_sec, burst)
        self.max_pending = int(max_pending)
        self._waiters = []  # stack of [event, op_id]; top = newest
        self._draining = False
        self._next_op_id = 0
        self.stats_arrivals = 0
        self.stats_admitted = 0
        self.stats_queued = 0
        self.stats_shed = 0
        self.stats_rejected = 0

    @property
    def pending(self):
        return len(self._waiters)

    def _report(self, op_id, event):
        if _check.CHECKER is not None:
            _check.CHECKER.admission_event(self, op_id, event, self.sim.now)
        if _metrics.METRICS is not None:
            _metrics.METRICS.counter(f"degrade.admission_{event}").inc()

    def admit(self, deadline=None):
        """Process: return once admitted, raise OverloadRejectedError if
        shed/rejected, DeadlineExceededError if the budget died queueing."""
        self.stats_arrivals += 1
        op_id = self._next_op_id
        self._next_op_id += 1
        now = self.sim.now
        if not self._waiters and self.bucket.take(now):
            self.stats_admitted += 1
            self._report(op_id, "admitted")
            return
        if self.max_pending <= 0:
            self.stats_rejected += 1
            self._report(op_id, "rejected")
            raise OverloadRejectedError(
                f"admission gate {self.name or id(self)}: no token and no queue"
            )
        if len(self._waiters) >= self.max_pending:
            victim_event, victim_op = self._waiters.pop(0)  # oldest
            self.stats_shed += 1
            self._report(victim_op, "shed")
            victim_event.trigger(self._SHED)
        waiter = self.sim.event()
        self._waiters.append([waiter, op_id])
        self.stats_queued += 1
        self._report(op_id, "queued")
        if not self._draining:
            self._draining = True
            self.sim.process(self._drain(), name=f"admission-drain:{self.name}")
        verdict = yield waiter
        if verdict is self._SHED:
            raise OverloadRejectedError(
                f"admission gate {self.name or id(self)}: shed after queueing "
                f"({self.max_pending} pending bound)"
            )
        if deadline is not None:
            deadline.check(self.sim.now, "queued at the admission gate")

    def _drain(self):
        """Pump process: one token, one (newest) waiter, repeat."""
        try:
            while self._waiters:
                wait_ns = self.bucket.ns_until_token(self.sim.now)
                if wait_ns > 0:
                    yield wait_ns
                if not self._waiters:
                    break
                if not self.bucket.take(self.sim.now):
                    continue
                event, op_id = self._waiters.pop()  # newest
                self.stats_admitted += 1
                self._report(op_id, "admitted")
                event.trigger(self._ADMITTED)
        finally:
            self._draining = False


class DegradePolicy:
    """The overload protection of one :class:`KrcoreModule`.

    A module built with a policy has it all on: a circuit breaker per
    meta shard (the ``timing.DEGRADE_BREAKER_*`` thresholds) and a
    per-CPU admission gate on qconnect's DCCache-miss path; a module
    built without one (``degrade=None``, the default) has neither.
    Deadlines come per op from the caller (``deadline_ns``).  The policy
    holds the gate's three settings -- pure configuration, shareable
    across modules (breaker and gate state live on the module and pool).
    """

    def __init__(
        self,
        admission_rate_per_sec=timing.DEGRADE_ADMISSION_RATE_PER_SEC,
        admission_burst=timing.DEGRADE_ADMISSION_BURST,
        admission_max_pending=timing.DEGRADE_ADMISSION_MAX_PENDING,
    ):
        self.admission_rate_per_sec = admission_rate_per_sec
        self.admission_burst = admission_burst
        self.admission_max_pending = admission_max_pending

    @classmethod
    def protected(cls, **admission):
        """The policy the overload figure and the gray scenario install:
        the timing defaults, or a tenant's own admission quota."""
        return cls(**admission)
