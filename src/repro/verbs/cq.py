"""Completion queues and their polling-mode models.

Real drivers discover completions three ways, and each has a distinct
CPU/latency trade (ATR's transport design; RDMAbox):

* ``event``    -- sleep on the CQ channel, wake when a CQE lands.  The
  legacy model: zero CPU accounted, wake latency folded into the
  completion path.  This is the default and is byte-identical to the
  pre-polling-mode behaviour.
* ``busy``     -- a dedicated core spins on the CQ.  The spin discovers
  the CQE the instant it is pushed (no wake latency), but every
  nanosecond spent waiting is CPU burned: the elapsed wait is accounted
  as ``cq_poll`` busy-ns on the owning RNIC's node (and in the
  ``verbs.cq_spin_ns`` metric).
* ``adaptive`` -- spin for ``timing.CQ_ADAPTIVE_SPIN_NS``; if nothing
  completes, arm the CQ event (``ibv_req_notify_cq``, costing
  ``CQ_NOTIFY_REARM_NS`` of CPU *and* latency) and sleep.  Waking out of
  the sleep pays ``CQ_EVENT_WAKE_NS`` before the re-poll.  Only the spin
  and rearm are accounted as CPU; the sleep is free.
"""

from repro.cluster import timing
from repro.obs import metrics as _metrics
from repro.sim import AnyOf
from repro.verbs.types import WC_SUCCESS

#: Recognized CQ polling modes.
POLL_MODES = ("event", "busy", "adaptive")

#: What a queue nothing was ever appended to reads as: empty, falsy,
#: iterable -- and shared, so an idle CQ or QP owns no queue storage.
_EMPTY = ()


class Completion:
    """A work completion (ibv_wc)."""

    __slots__ = (
        "wr_id", "status", "opcode", "byte_len", "src", "header", "qp", "covers", "imm"
    )

    def __init__(
        self, wr_id, status, opcode, byte_len=0, src=None, header=None, qp=None,
        covers=0, imm=None,
    ):
        self.wr_id = wr_id
        self.status = status
        self.opcode = opcode
        self.byte_len = byte_len
        self.src = src  # (gid, qpn) of the sender, for recv completions
        self.header = header  # piggybacked message header, for recv completions
        self.qp = qp  # the QP this completion belongs to
        #: How many send-queue slots polling this completion releases: the
        #: signaled request itself plus any preceding unsignaled ones.  The
        #: driver only learns that ring slots are reusable by polling -- the
        #: accounting KRCORE's Algorithm 2 replicates in software.
        self.covers = covers
        #: The 32-bit immediate, for RECV_IMM completions (WRITE_WITH_IMM).
        self.imm = imm

    @property
    def ok(self):
        return self.status is WC_SUCCESS

    def __repr__(self):
        return f"Completion(wr_id={self.wr_id}, status={self.status.value}, op={self.opcode.value})"


class CompletionQueue:
    """A polled queue of completions with optional event-driven waiting."""

    def __init__(self, sim, depth=257, poll_mode="event", rnic=None):
        self.sim = sim
        self.depth = depth
        if poll_mode not in POLL_MODES:
            raise ValueError(f"unknown CQ poll mode {poll_mode!r} (known: {POLL_MODES})")
        #: Polling-mode model used by :meth:`wait_notify` / :meth:`wait_poll`.
        self.poll_mode = poll_mode
        #: The RNIC whose node's CPU burns the busy-poll cycles; optional --
        #: without one, spin time is still tracked on ``stats_spin_ns`` and
        #: the ``verbs.cq_spin_ns`` metric.
        self.rnic = rnic
        self._entries = _EMPTY  # lists from the first append on
        self._waiters = _EMPTY
        #: Nanoseconds of CPU burned spinning on this CQ (busy + the
        #: adaptive spin window) plus rearm cost; satellite-1's accounting.
        self.stats_spin_ns = 0
        #: How often adaptive mode exhausted its spin budget and armed the
        #: CQ event (ibv_req_notify_cq), and how often it woke from it.
        self.stats_rearms = 0
        self.stats_wakes = 0

    def __len__(self):
        return len(self._entries)

    def set_poll_mode(self, mode, rnic=None):
        """Switch the polling-mode model (and optionally attach the RNIC
        that accounts the CPU burn)."""
        if mode not in POLL_MODES:
            raise ValueError(f"unknown CQ poll mode {mode!r} (known: {POLL_MODES})")
        self.poll_mode = mode
        if rnic is not None:
            self.rnic = rnic
        return self

    def push(self, completion):
        if self._entries is _EMPTY:
            self._entries = []
        self._entries.append(completion)
        while self._waiters and self._entries:
            waiter = self._waiters.pop(0)
            if not waiter.triggered:
                waiter.trigger(None)

    def poll(self, num_entries=1):
        """Pop up to ``num_entries`` completions (non-blocking, like ibv_poll_cq).

        Polling releases the send-queue slots the completion covers, exactly
        as the real driver reclaims ring entries on poll.
        """
        if not self._entries:
            return []
        polled = []
        while self._entries and len(polled) < num_entries:
            completion = self._entries.pop(0)
            if completion.qp is not None and completion.covers:
                completion.qp._reclaim(completion.covers)
            polled.append(completion)
        return polled

    def disown(self, qp):
        """``qp`` was reset: its CQEs still queued release no slot when polled."""
        for completion in self._entries:
            if completion.qp is qp:
                completion.covers = 0

    def wait(self):
        """Event that fires when the CQ is (or becomes) non-empty.

        The event does not consume entries; callers must still poll().
        """
        event = self.sim.event()
        if self._entries:
            event.trigger(None)
        else:
            if self._waiters is _EMPTY:
                self._waiters = []
            self._waiters.append(event)
        return event

    def _account_spin(self, spent_ns):
        """Charge ``spent_ns`` of CPU burned waiting on this CQ."""
        if spent_ns <= 0:
            return
        self.stats_spin_ns += spent_ns
        if _metrics.METRICS is not None:
            _metrics.METRICS.counter("verbs.cq_spin_ns").inc(spent_ns)
        if self.rnic is not None:
            self.rnic.account_cq_poll(spent_ns)

    def wait_notify(self):
        """Process helper: block until the CQ signals, per the poll mode.

        * ``event``: wait on the CQ event; no cost accounted (legacy).
        * ``busy``: the spinning core discovers the CQE the instant it is
          pushed, so simulated latency matches ``event`` -- but the whole
          elapsed wait is accounted as CPU spin.
        * ``adaptive``: spin up to ``CQ_ADAPTIVE_SPIN_NS`` (accounted);
          on budget exhaustion pay ``CQ_NOTIFY_REARM_NS`` (CPU + time) to
          arm the event, sleep free, then pay ``CQ_EVENT_WAKE_NS`` of
          wake latency.
        """
        mode = self.poll_mode
        if mode == "busy":
            start = self.sim.now
            yield self.wait()
            self._account_spin(self.sim.now - start)
            return
        if mode == "adaptive":
            start = self.sim.now
            event = self.wait()
            if event.triggered:
                return  # entries already pending: first poll wins, no spin
            yield AnyOf([event, self.sim.timeout(timing.CQ_ADAPTIVE_SPIN_NS)])
            if event.triggered:
                # The CQE landed inside the spin window: busy-poll catch.
                self._account_spin(self.sim.now - start)
                return
            # Spin budget exhausted: arm the notification and sleep.
            self.stats_rearms += 1
            self._account_spin(timing.CQ_ADAPTIVE_SPIN_NS + timing.CQ_NOTIFY_REARM_NS)
            if _metrics.METRICS is not None:
                _metrics.METRICS.counter("verbs.cq_rearms").inc()
            yield timing.CQ_NOTIFY_REARM_NS
            # Re-check after the rearm gap (the mandatory post-arm poll):
            # a CQE that landed while rearming still fires the notify.
            yield self.wait()
            self.stats_wakes += 1
            yield timing.CQ_EVENT_WAKE_NS
            return
        yield self.wait()

    def wait_poll(self, num_entries=1):
        """Process helper: block until at least one completion, then poll.

        Waiting follows the CQ's polling mode (see :meth:`wait_notify`):
        under ``busy``/``adaptive`` the time spent here is accounted as
        CPU burn on the attached RNIC's node rather than modelled as a
        free sleep.
        """
        while True:
            polled = self.poll(num_entries)
            if polled:
                return polled
            yield from self.wait_notify()
