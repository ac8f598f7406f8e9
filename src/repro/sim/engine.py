"""The discrete-event engine: simulator clock, events, processes.

One core.  Callbacks run in ``(timestamp, schedule order)`` -- exactly the
order of a single heap keyed on ``(time, seq)``, which is what the frozen
seed engine (``tests/_seed_engine_reference.py``) is; the hypothesis
harness in ``tests/test_sim_engine.py`` pins this engine to it on random
schedules, and every committed CSV, golden trace and schedule-corpus file
depends on that order.

Layout
------

The engine dispatches tens of millions of callbacks per figure, so queue
bookkeeping is what the layout removes:

* **Flat ready slab.**  Work at the current timestamp is one flat list of
  ``callback, arg`` pairs (stride 2) plus a read cursor -- no per-entry
  tuple, no deque, no sequence number: append order *is* schedule order.
  Enqueue is two ``list.append`` calls; dispatch is two indexed loads.
  The slab is emptied in place (``del slab[:]``) once a timestamp drains.

* **Future work in per-timestamp buckets.**  ``_heap`` holds one plain
  ``int`` per distinct future timestamp; ``_buckets`` maps each to a flat
  stride-2 ``callback, arg`` list in push order, which *is* schedule
  order, so no record carries a sequence number.  Only the first record
  at a timestamp pushes onto the heap; the rest are two appends.  Bucket
  timestamps are strictly in the future -- zero delays go to the ready
  slab -- so when the clock advances, the popped bucket *is* the
  timestamp's cohort: every cohort record predates every ready record,
  and nothing new can arrive at the current timestamp from the future
  side.  ``_buckets`` is cleared once the heap drains (a dict keeps its
  table after it empties).

* **Three dispatch shapes per timestamp.**  A one-record bucket (a 2-slot
  list; the observatory's workloads average 1.01 to 1.86 records per
  distinct timestamp) dispatches straight off the list.  A pure-timer
  bucket (no ``None`` in it) takes a *fused* pass: hop-1 maturation and
  hop-2 resume collapse into one resume per record, order-exact because
  hop-1 records run no user code and all of them precede the first
  resume.  A mixed cohort takes the two-phase pass: timers requeue
  (hop 1) onto the ready slab, plain callbacks dispatch inline in
  schedule order.  Then the ready slab drains by a tight cursor loop.

A record is a bare ``(target, arg)`` pair, and ``arg`` says its kind:

========================  ====================================================
``None``                  plain callback, invoked as ``target()``
``1``                     timer: in a bucket it matures (hop 1) by requeueing
                          itself; on the ready slab it resumes (hop 2),
                          ``target._resume(None, None)``
``0``                     zero-delay timer maturing (hop 1): requeue as ``1``
an ``Event``              waiter resume:
                          ``target._resume(event.value, event._exc)``
========================  ====================================================

Every resumed target -- a ``Process``, a sleeper, a child of an
``AnyOf`` -- has one ``_resume(value, exc)`` method and at most
one record pending, so no record is ever stale.  A timer takes two hops
through the queue because the timeout ``Event`` it replaces did (trigger,
then waiter dispatch); ``Process._resume`` skips the ``Event`` for its two
common yield targets -- an integer timeout and an already-triggered event
-- while landing the resume in the same place.

The engine counts work as it goes: ``Simulator.events_dispatched`` /
``timer_fires`` per instance, ``Simulator.total_events_dispatched`` /
``total_sim_ns`` across all instances in the process.  The model
checker (``repro.check``) runs its scenarios under this loop as it is:
their order is the engine's (DESIGN.md §10).
"""

from collections import deque
from heapq import heappop, heappush


class SimulationError(Exception):
    """Raised for misuse of the simulation kernel itself."""


class Event:
    """A one-shot occurrence processes can wait on.

    An event starts untriggered.  Processes that yield it are suspended
    until someone calls :meth:`trigger` (resuming them with ``value``) or
    :meth:`fail` (raising ``exc`` inside them).  Triggering twice is an
    error; waiting on an already-triggered event resumes immediately.
    """

    __slots__ = ("sim", "value", "_exc", "_triggered", "_waiters")

    def __init__(self, sim):
        self.sim = sim
        self.value = None
        self._exc = None
        self._triggered = False
        self._waiters = None  # lazily a list: most events get 0 or 1 waiters

    @property
    def triggered(self):
        return self._triggered

    def trigger(self, value=None):
        if self._triggered:
            raise SimulationError("event triggered twice")
        self._triggered = True
        self.value = value
        waiters = self._waiters
        if waiters:
            self._dispatch(waiters)
        return self

    def fail(self, exc):
        if self._triggered:
            raise SimulationError("event triggered twice")
        if not isinstance(exc, BaseException):
            raise SimulationError("Event.fail expects an exception instance")
        self._triggered = True
        self._exc = exc
        waiters = self._waiters
        if waiters:
            self._dispatch(waiters)
        return self

    def _dispatch(self, waiters):
        """Run waiters through the scheduler (same timestamp) rather than
        synchronously, so triggering code never reenters waiter code: one
        ``(waiter, self)`` ready record each, in the order they waited."""
        self._waiters = None
        slab = self.sim._rbuf
        append = slab.append
        for waiter in waiters:
            append(waiter)
            append(self)


class AnyOf:
    """Awaitable that fires when the first child fires.

    The resumed value is ``(index, value)`` of the first child to fire.
    """

    def __init__(self, children):
        self.children = list(children)


class _Child:
    """The waiter on one child of an ``AnyOf``: the first child to fire
    settles the combined event, with ``(index, value)`` or its error."""

    __slots__ = ("combined", "index")

    def __init__(self, combined, index):
        self.combined = combined
        self.index = index

    def _resume(self, value, exc):
        combined = self.combined
        if combined._triggered:
            return
        if exc is not None:
            combined.fail(exc)
        else:
            combined.trigger((self.index, value))


class Process:
    """A running generator, driven by the simulator.

    The generator's ``return`` value becomes the value delivered to any
    process that yields (joins) this one.  An uncaught exception inside
    the generator propagates into joiners; if nobody joins, it is re-raised
    from :meth:`Simulator.run` so failures never pass silently.
    """

    __slots__ = ("sim", "name", "_gen", "_send", "_throw", "_done")

    def __init__(self, sim, gen, name=None):
        self.sim = sim
        self.name = name or getattr(gen, "__name__", "process")
        self._gen = gen
        self._send = gen.send
        self._throw = gen.throw
        self._done = Event(sim)
        slab = sim._rbuf
        slab.append(self._start)
        slab.append(None)

    def _start(self):
        self._resume(None, None)

    @property
    def done_event(self):
        return self._done

    def _resume(self, value, exc):
        sim = self.sim
        try:
            if exc is not None:
                target = self._throw(exc)
            else:
                target = self._send(value)
        except StopIteration as stop:
            self._finish(getattr(stop, "value", None), None)
            return
        except BaseException as err:  # noqa: BLE001 - must forward any failure
            self._finish(None, err)
            return
        if target.__class__ is int:
            # Fast path, inlined: a plain timeout needs no Event at all.
            # Zero delays go to the ready slab as a hop-1 record -- the
            # buckets hold only strictly-future work.
            if target > 0:
                when = sim.now + target
                buckets = sim._buckets
                bucket = buckets.get(when)
                if bucket is None:
                    buckets[when] = [self, 1]
                    heappush(sim._heap, when)
                else:
                    bucket.append(self)
                    bucket.append(1)
                return
            if target < 0:
                raise SimulationError("cannot schedule into the past")
            slab = sim._rbuf
            slab.append(self)
            slab.append(0)
            return
        cls = target.__class__
        if cls is Event:
            event = target
        elif cls is Process:
            event = target._done
        else:
            event = sim._as_event(target)
        if event._triggered:
            # Already fired: resume through the ready slab directly.
            slab = sim._rbuf
            slab.append(self)
            slab.append(event)
        elif event._waiters is None:
            event._waiters = [self]
        else:
            event._waiters.append(self)

    def _finish(self, value, exc):
        if exc is None:
            self._done.trigger(value)
        else:
            if not self._done._waiters:
                self.sim._record_orphan_failure(self, exc)
            self._done.fail(exc)


class Simulator:
    """The event loop: a clock, a flat ready slab for the current
    timestamp, and future records in per-timestamp buckets ordered by a
    heap of their timestamps."""

    #: Process-wide totals across every Simulator instance, folded in when
    #: each ``run()`` returns (the observatory samples these around a pass).
    total_events_dispatched = 0
    total_sim_ns = 0
    #: Called as ``on_run_end(timer_fires)`` when a run returns (see
    #: :meth:`end_run`); an installed observer sets it (``repro.obs``, its
    #: ``run_end`` probe), so the engine imports no layer above it.
    on_run_end = None

    def __init__(self):
        self.now = 0
        #: Ready slab: flat ``callback, arg`` pairs at the current
        #: timestamp, in schedule (dispatch) order from ``_rpos`` on.
        self._rbuf = []
        self._rpos = 0
        #: Future side: a min-heap of distinct future timestamps, and per
        #: timestamp a flat ``callback, arg`` bucket in schedule order
        #: (timer records carry ``1``, plain callbacks ``None``).
        self._heap = []
        self._buckets = {}
        #: Bucket being matured, with cursor — persisted only when a
        #: dispatch raises mid-timestamp so a later run() resumes exactly.
        self._cohort = None
        self._cpos = 0
        self._orphan_failures = deque()
        #: Exact number of callbacks this instance's run loop has executed.
        self.events_dispatched = 0
        #: Timer maturations the run loop performed (hop-1 requeues).
        self.timer_fires = 0

    # -- scheduling ---------------------------------------------------------

    def schedule(self, delay, callback):
        """Run ``callback()`` after ``delay`` nanoseconds."""
        if delay < 0:
            raise SimulationError("cannot schedule into the past")
        delay = int(delay)
        if delay == 0:
            # The buckets hold only strictly-future work.
            slab = self._rbuf
            slab.append(callback)
            slab.append(None)
            return
        when = self.now + delay
        buckets = self._buckets
        bucket = buckets.get(when)
        if bucket is None:
            buckets[when] = [callback, None]
            heappush(self._heap, when)
        else:
            bucket.append(callback)
            bucket.append(None)

    def timeout(self, delay):
        """An event that triggers after ``delay`` nanoseconds."""
        event = Event(self)
        self.schedule(delay, event.trigger)
        return event

    def event(self):
        return Event(self)

    def process(self, gen, name=None):
        """Start ``gen`` (a generator) as a simulated process."""
        if not hasattr(gen, "send"):
            raise SimulationError("process() expects a generator")
        return Process(self, gen, name)

    def sleep(self, sleeper, delay_ns):
        """Resume ``sleeper`` after ``delay_ns``: the timer record a process
        pushes by yielding that delay (same counts and order, a zero delay
        included), for a state machine with no generator to resume.  A
        sleeper has a ``_resume(value, exc)`` method, called as
        ``_resume(None, None)``, and never two records pending
        (DESIGN.md §11)."""
        if delay_ns.__class__ is not int or delay_ns < 0:
            raise SimulationError(f"cannot sleep for {delay_ns!r} ns")
        if delay_ns:
            when = self.now + delay_ns
            buckets = self._buckets
            bucket = buckets.get(when)
            if bucket is None:
                buckets[when] = [sleeper, 1]
                heappush(self._heap, when)
            else:
                bucket.append(sleeper)
                bucket.append(1)
        else:
            self._rbuf.extend((sleeper, 0))

    def wake(self, sleeper):
        """Resume ``sleeper`` at the current timestamp, behind what is
        queued there: one ready record, like an event wake or a start."""
        self._rbuf.extend((sleeper, 1))

    def notify(self, waiter):
        """Resume a queue's waiter: trigger an ``Event`` not yet fired, or
        wake a sleeper -- the one ready record each costs whoever waits."""
        if waiter.__class__ is not Event:
            self.wake(waiter)
        elif not waiter._triggered:
            waiter.trigger(None)

    # -- awaitable coercion --------------------------------------------------

    def _as_event(self, target):
        if isinstance(target, Event):
            return target
        if isinstance(target, Process):
            return target.done_event
        if isinstance(target, int):
            return self.timeout(target)
        if isinstance(target, AnyOf):
            if not target.children:
                raise SimulationError("AnyOf requires at least one child")
            return self._join(target.children)
        raise SimulationError(f"cannot wait on {target!r}")

    def _join(self, children):
        """The event an ``AnyOf`` over ``children`` fires: one
        :class:`_Child` waiter per child, in order."""
        events = [self._as_event(child) for child in children]
        combined = Event(self)
        for index, event in enumerate(events):
            waiter = _Child(combined, index)
            if event._triggered:
                self._rbuf.extend((waiter, event))
            elif event._waiters is None:
                event._waiters = [waiter]
            else:
                event._waiters.append(waiter)
        return combined

    # -- running -------------------------------------------------------------

    def run(self, until=None):
        """Drain the event queue, stopping after simulated time ``until``.

        Dispatch order is by (timestamp, schedule order), identical to the
        seed engine.  Per timestamp: the bucket matures in one batched
        pass (every bucket record predates every ready-slab record — the
        slab is empty when the clock advances and only fills at the
        current timestamp), then the ready slab drains by cursor with no
        per-event heap or ``until`` checks (buckets are strictly future,
        so neither can change mid-timestamp).
        """
        rbuf = self._rbuf
        heap = self._heap
        buckets = self._buckets
        orphans = self._orphan_failures
        dispatched = 0
        timer_fires = 0
        start_ns = self.now
        pos = self._rpos
        cohort = self._cohort
        cpos = self._cpos
        #: One comparison per check instead of two: +inf compares greater
        #: than any timestamp, so "no bound" needs no None test.
        limit = float("inf") if until is None else until
        if pos:
            # Normalize a mid-drain cursor persisted by an interrupted
            # run: shift the undrained tail to the slab head.  With the
            # cursor pinned at zero outside a drain, slab emptiness is a
            # truth test everywhere below instead of a len() call per
            # loop iteration.
            del rbuf[:pos]
            pos = 0
        try:
            while True:
                if cohort is not None or rbuf:
                    if self.now > limit:
                        break
                    if cohort is not None:
                        # Order-exact two-phase maturation: timers requeue
                        # (hop 1) onto the ready slab, plain callbacks
                        # dispatch inline.  Required when the cohort holds
                        # plain ``schedule()`` records (they interleave
                        # with timer resumes by schedule order) or when a
                        # resumed run left records on the slab (cohort
                        # hop-2s must land behind them).  The cohort
                        # cannot grow (new future work is strictly
                        # future), so its length is fixed.  Counters are
                        # settled per batch, not per record (the finally
                        # keeps them exact if a callback raises):
                        # matured = records consumed, of which the
                        # non-timers were counted one by one.
                        n = len(cohort)
                        cbase = cpos
                        plain = 0
                        rappend = rbuf.append
                        try:
                            while cpos < n:
                                cb = cohort[cpos]
                                arg = cohort[cpos + 1]
                                cpos += 2
                                if arg is None:
                                    plain += 1
                                    cb()
                                    if orphans:
                                        _process, exc = orphans.popleft()
                                        raise exc
                                else:
                                    rappend(cb)
                                    rappend(arg)
                        finally:
                            matured = (cpos - cbase) >> 1
                            dispatched += matured
                            timer_fires += matured - plain
                        cohort = None
                    # Batched ready drain: appends during dispatch extend
                    # the slab past the cursor and run in schedule order.
                    # Records are pushed in pairs, so the cursor lands
                    # exactly on len(rbuf) when the slab is dry.  A drain
                    # holds ~1.1 records on average, so a len() check per
                    # record is cheaper than an IndexError probe raised
                    # once per drain.  The finally settles the dispatch
                    # count per batch.  The guard skips the whole drain
                    # (append binding, slab recycle) on the common sparse
                    # path where a cohort matured onto an empty slab.
                    if not rbuf:
                        continue
                    base = pos
                    rappend = rbuf.append
                    try:
                        while pos < len(rbuf):
                            cb = rbuf[pos]
                            arg = rbuf[pos + 1]
                            pos += 2
                            if arg is None:
                                cb()
                            elif arg.__class__ is int:
                                if not arg:
                                    # Zero-delay timer maturing (hop 1):
                                    # requeue the resume at the slab tail,
                                    # where a timeout event's waiter
                                    # dispatch would land it.
                                    rappend(cb)
                                    rappend(1)
                                    continue
                                # Timer resume (hop 2).
                                cb._resume(None, None)
                            else:
                                # Event waiter resume.
                                cb._resume(arg.value, arg._exc)
                            if orphans:
                                _process, exc = orphans.popleft()
                                raise exc
                    finally:
                        dispatched += (pos - base) >> 1
                    # Timestamp fully drained: recycle the slab in place.
                    del rbuf[:]
                    pos = 0
                elif heap:
                    when = heap[0]
                    if when > limit:
                        break
                    heappop(heap)
                    self.now = when
                    bucket = buckets.pop(when)
                    if len(bucket) == 2:
                        # Singleton fast path: exactly one record matures
                        # at this timestamp, onto an empty ready slab (this
                        # arm is reached only once the slab is drained), so
                        # order is trivially exact.  Counters are bumped
                        # before the fire so the finally persists exact
                        # totals if it raises.
                        cb, arg = bucket
                        if arg is None:
                            dispatched += 1
                            cb()
                        else:
                            dispatched += 2
                            timer_fires += 1
                            cb._resume(None, None)
                        if orphans:
                            _process, exc = orphans.popleft()
                            raise exc
                    elif None in bucket:
                        # A mixed cohort: the two-phase pass above.
                        cohort = bucket
                        cpos = 0
                    else:
                        # Fused maturation fast path: a pure-timer cohort
                        # onto an empty ready slab.  Hop-1 requeue and
                        # hop-2 resume collapse into a direct resume per
                        # record -- user-visible order is unchanged (hop-1s
                        # run no user code and all precede the first
                        # resume), so this equals the two-phase pass record
                        # for record.  Counters are settled per batch in
                        # the finally: each record still accounts for both
                        # hops.  A raise leaves the rest as ``cohort``,
                        # which a later run matures by the two-phase pass.
                        cohort = bucket
                        cpos = 0
                        n = len(bucket)
                        try:
                            while cpos < n:
                                cb = bucket[cpos]
                                cpos += 2
                                cb._resume(None, None)
                                if orphans:
                                    _process, exc = orphans.popleft()
                                    raise exc
                        finally:
                            matured = cpos >> 1
                            dispatched += matured << 1
                            timer_fires += matured
                        cohort = None
                else:
                    # Drained: drop the table the dict keeps after it empties.
                    buckets.clear()
                    break
        finally:
            self._rpos = pos
            self._cohort = cohort
            self._cpos = cpos
            self.end_run(dispatched, timer_fires, start_ns)
        if until is not None and self.now < until:
            self.now = int(until)

    def end_run(self, dispatched, timer_fires, start_ns):
        """Fold one run's counts into the instance and process totals and
        pass its timer fires to ``on_run_end``."""
        self.events_dispatched += dispatched
        self.timer_fires += timer_fires
        Simulator.total_events_dispatched += dispatched
        Simulator.total_sim_ns += self.now - start_ns
        on_run_end = Simulator.on_run_end
        if on_run_end is not None:
            on_run_end(timer_fires)

    @property
    def drained(self):
        """No event is scheduled: a run would return at once."""
        return not self._heap and self._cohort is None and self._rpos >= len(self._rbuf)

    def run_process(self, gen):
        """Start ``gen``, run to completion, and return its value."""
        proc = self.process(gen)
        self.run()
        if not proc.done_event.triggered:
            raise SimulationError(f"process {proc.name} did not finish")
        if proc.done_event._exc is not None:
            raise proc.done_event._exc
        return proc.done_event.value

    def _record_orphan_failure(self, process, exc):
        self._orphan_failures.append((process, exc))
