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

* **Future heap, collected by cohort.**  Future work lives in one
  ``(when, seq, callback, arg)`` min-heap (one C ``heappush`` per entry;
  ``seq`` only makes same-timestamp heap order FIFO).  Heap entries are
  always strictly in the future -- zero delays go to the ready slab -- so
  when the clock advances, every record at the new timestamp is drained
  into a stride-2 cohort slab in one pass, every cohort record predates
  every ready record, and nothing new can arrive at the current timestamp
  from the future side: same-timestamp dispatch never touches the heap or
  the ``until`` bound again.

* **Arena free-lists.**  Drained cohort slabs are cleared and parked on
  ``_free``; the next timestamp reuses one.  After warm-up the hot loop
  allocates nothing per event beyond the heap entry itself.

* **Batched same-timestamp dispatch.**  A timestamp with a single record
  (the dominant shape: the figure workloads average ~1.5 records per
  distinct timestamp) dispatches straight off the heap entry.  A
  pure-timer cohort takes a *fused* pass: hop-1 maturation and hop-2
  resume collapse into one gen-checked resume per record, order-exact
  because hop-1 records run no user code and all of them precede the
  first resume.  A mixed cohort takes the two-phase pass: timers requeue
  (hop 1) onto the ready slab, plain callbacks dispatch inline in
  schedule order.  Then the ready slab drains by a tight cursor loop.

Waiter wake-ups are encoded inline in the records instead of per-event
lambdas and per-yield closures; the ``arg`` slot says what a record is:

========================  ====================================================
``None``                  plain callback, invoked as ``callback()``
positive ``int``          timer resume (hop 2): ``callback`` is the process
                          (or other sleeper), ``arg`` its wait generation
negative ``int``          zero-delay timer maturing (hop 1): requeue hop 2
                          with the negated generation
``tuple``                 event-waiter resume: ``(generation, event)``
anything else             argument callback, invoked as ``callback(arg)``
========================  ====================================================

Wait generations are always >= 1, so the sign carries the hop for free.
A timer takes two hops through the queue because the timeout ``Event`` it
replaces did (trigger, then waiter dispatch); ``Process._wait_on`` skips
the ``Event`` for its two common yield targets -- an integer timeout and
an already-triggered event -- while landing the resume in the same place.

The engine counts work as it goes: ``Simulator.events_dispatched`` /
``timer_fires`` per instance, ``Simulator.total_events_dispatched`` /
``total_sim_ns`` across all instances in the process.  The schedule
controller (``repro.check``) replaces the run loop with one that consumes
the same slab and cohorts in the same order (DESIGN.md §11 has the
history: a deque+heap core and a per-timestamp bucket store came first).
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
        synchronously, so triggering code never reenters waiter code.

        A waiter is either a ``(process, gen)`` tuple (a suspended
        process, see ``Process._wait_on``) — re-encoded so the run loop
        resumes it without any intermediate call — or a plain callable
        from ``add_callback``, invoked as ``callback(event)``.  Append
        order is dispatch order.
        """
        self._waiters = None
        slab = self.sim._rbuf
        append = slab.append
        for waiter in waiters:
            if waiter.__class__ is tuple:
                append(waiter[0])
                append((waiter[1], self))
            else:
                append(waiter)
                append(self)

    def add_callback(self, callback):
        """Invoke ``callback(event)`` when the event fires (or now if fired)."""
        if self._triggered:
            self.sim._rbuf.extend((callback, self))
        elif self._waiters is None:
            self._waiters = [callback]
        else:
            self._waiters.append(callback)


class AllOf:
    """Awaitable that fires when every child event/process has fired.

    The resumed value is a list of the children's values in order.
    """

    def __init__(self, children):
        self.children = list(children)


class AnyOf:
    """Awaitable that fires when the first child fires.

    The resumed value is ``(index, value)`` of the first child to fire.
    """

    def __init__(self, children):
        self.children = list(children)


class Process:
    """A running generator, driven by the simulator.

    The generator's ``return`` value becomes the value delivered to any
    process that yields (joins) this one.  An uncaught exception inside
    the generator propagates into joiners; if nobody joins, it is re-raised
    from :meth:`Simulator.run` so failures never pass silently.
    """

    __slots__ = (
        "sim", "name", "_gen", "_send", "_throw", "_done", "_wait_gen",
    )

    def __init__(self, sim, gen, name=None):
        self.sim = sim
        self.name = name or getattr(gen, "__name__", "process")
        self._gen = gen
        self._send = gen.send
        self._throw = gen.throw
        self._done = Event(sim)
        self._wait_gen = 0
        slab = sim._rbuf
        slab.append(self._start)
        slab.append(None)

    def _start(self):
        self._resume(None, None)

    @property
    def done_event(self):
        return self._done

    def _resume(self, value, exc):
        if self._done._triggered:
            return
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
            # Zero delays go to the ready slab as a hop-1 record (negative
            # generation) — the heap holds only strictly-future work.
            if target <= 0:
                if target < 0:
                    raise SimulationError("cannot schedule into the past")
                self._wait_gen = gen = self._wait_gen + 1
                slab = sim._rbuf
                slab.append(self)
                slab.append(-gen)
                return
            self._wait_gen = gen = self._wait_gen + 1
            sim._seq = seq = sim._seq + 1
            heappush(sim._heap, (sim.now + target, seq, self, gen))
            return
        self._wait_on(target)

    def _finish(self, value, exc):
        if exc is None:
            self._done.trigger(value)
        else:
            if not self._done._waiters:
                self.sim._record_orphan_failure(self, exc)
            self._done.fail(exc)

    def _wait_on(self, target):
        sim = self.sim
        self._wait_gen = gen = self._wait_gen + 1
        cls = target.__class__
        if cls is Event:
            event = target
        elif isinstance(target, Process):
            event = target._done
        else:
            event = sim._as_event(target)
        if event._triggered:
            # Already fired: resume through the ready slab directly, in
            # the inline encoding the run loop understands.
            slab = sim._rbuf
            slab.append(self)
            slab.append((gen, event))
        elif event._waiters is None:
            event._waiters = [(self, gen)]
        else:
            event._waiters.append((self, gen))


class Simulator:
    """The event loop: a clock, a flat ready slab for the current
    timestamp, and a heap of future records collected by timestamp cohort."""

    #: Process-wide totals across every Simulator instance, folded in when
    #: each ``run()`` returns (the observatory samples these around a pass).
    total_events_dispatched = 0
    total_sim_ns = 0
    #: Called as ``on_run_end(timer_fires)`` when a run returns (see
    #: :meth:`end_run`); a metrics registry sets it while installed
    #: (``repro.obs``), so the engine imports no layer above it.
    on_run_end = None

    def __init__(self):
        self.now = 0
        #: Ready slab: flat ``callback, arg`` pairs at the current
        #: timestamp, in schedule (dispatch) order from ``_rpos`` on.
        self._rbuf = []
        self._rpos = 0
        #: Future side: min-heap of ``(when, seq, callback, arg)`` records
        #: (timer args are positive int wait generations, plain schedule
        #: callbacks carry None).  ``_seq`` makes same-timestamp heap
        #: order FIFO; only future entries need one.
        self._heap = []
        self._seq = 0
        #: Arena free-list of drained cohort slabs, reused at the next
        #: clock advance.
        self._free = []
        #: Cohort being matured, with cursor — persisted only when a
        #: dispatch raises mid-timestamp so a later run() resumes exactly.
        self._cohort = None
        self._cpos = 0
        self._orphan_failures = deque()
        #: Optional schedule controller (repro.check): when set, run()
        #: delegates to it so same-timestamp dispatch order can be
        #: explored.  None (the default) keeps the batched loop below
        #: untouched.
        self._controller = None
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
            # The heap holds only strictly-future work.
            slab = self._rbuf
            slab.append(callback)
            slab.append(None)
        else:
            self._seq = seq = self._seq + 1
            heappush(self._heap, (self.now + delay, seq, callback, None))

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
        ``_resume(None, None)``, and a positive int ``_wait_gen``: the
        record carries its current value and is dropped if the sleeper has
        bumped it by the time it fires (DESIGN.md §11)."""
        if delay_ns.__class__ is int and delay_ns > 0:
            self._seq = seq = self._seq + 1
            heappush(self._heap, (self.now + delay_ns, seq, sleeper, sleeper._wait_gen))
        elif delay_ns.__class__ is int and delay_ns == 0:
            self._rbuf.extend((sleeper, -sleeper._wait_gen))
        else:
            raise SimulationError(f"cannot sleep for {delay_ns!r} ns")

    def wake(self, sleeper):
        """Resume ``sleeper`` at the current timestamp, behind what is
        queued there: one ready record, like an event wake or a start."""
        self._rbuf.extend((sleeper, sleeper._wait_gen))

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
        if isinstance(target, AllOf):
            return self._all_of(target.children)
        if isinstance(target, AnyOf):
            return self._any_of(target.children)
        raise SimulationError(f"cannot wait on {target!r}")

    def _all_of(self, children):
        events = [self._as_event(child) for child in children]
        combined = Event(self)
        remaining = [len(events)]
        values = [None] * len(events)
        if not events:
            combined.trigger([])
            return combined

        def on_child(index):
            def callback(event):
                if combined.triggered:
                    return
                if event._exc is not None:
                    combined.fail(event._exc)
                    return
                values[index] = event.value
                remaining[0] -= 1
                if remaining[0] == 0:
                    combined.trigger(list(values))

            return callback

        for index, event in enumerate(events):
            event.add_callback(on_child(index))
        return combined

    def _any_of(self, children):
        events = [self._as_event(child) for child in children]
        combined = Event(self)
        if not events:
            raise SimulationError("AnyOf requires at least one child")

        def on_child(index):
            def callback(event):
                if combined.triggered:
                    return
                if event._exc is not None:
                    combined.fail(event._exc)
                    return
                combined.trigger((index, event.value))

            return callback

        for index, event in enumerate(events):
            event.add_callback(on_child(index))
        return combined

    # -- running -------------------------------------------------------------

    def run(self, until=None):
        """Drain the event queue, stopping after simulated time ``until``.

        Dispatch order is by (timestamp, schedule order), identical to the
        seed engine.  Per timestamp: the whole cohort matures
        in one batched pass (every cohort record predates every ready-slab
        record — the slab is empty when the clock advances and only fills
        at the current timestamp), then the ready slab drains by cursor
        with no per-event heap or ``until`` checks (future entries are
        strictly future, so neither can change mid-timestamp).
        """
        if self._controller is not None:
            return self._controller.drive(self, until)
        rbuf = self._rbuf
        heap = self._heap
        free = self._free
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
        #: True when the current cohort is known to be pure timer records.
        #: A cohort persisted by an earlier (interrupted) run is treated
        #: as mixed — the two-phase path is always order-exact.
        pure = False
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
                    if cohort is not None and pure and not rbuf:
                        # Fused maturation fast path: a pure-timer cohort
                        # with nothing already on the ready slab.  Hop-1
                        # requeue and hop-2 resume collapse into a direct
                        # resume per record -- user-visible order is
                        # unchanged (hop-1s run no user code and all
                        # precede the first resume), so this equals the
                        # two-phase path record for record.  Counters are
                        # settled per batch in the finally: each record
                        # still accounts for both hops.
                        n = len(cohort)
                        cbase = cpos
                        try:
                            while cpos < n:
                                cb = cohort[cpos]
                                gen = cohort[cpos + 1]
                                cpos += 2
                                if cb._wait_gen == gen:
                                    cb._resume(None, None)
                                if orphans:
                                    _process, exc = orphans.popleft()
                                    raise exc
                        finally:
                            matured = (cpos - cbase) >> 1
                            dispatched += matured << 1
                            timer_fires += matured
                        cohort.clear()
                        free.append(cohort)
                        cohort = None
                    elif cohort is not None:
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
                                if arg.__class__ is int:
                                    rappend(cb)
                                    rappend(arg)
                                else:
                                    plain += 1
                                    if arg is None:
                                        cb()
                                    else:
                                        cb(arg)
                                    if orphans:
                                        _process, exc = orphans.popleft()
                                        raise exc
                        finally:
                            matured = (cpos - cbase) >> 1
                            dispatched += matured
                            timer_fires += matured - plain
                        cohort.clear()
                        free.append(cohort)
                        cohort = None
                    # Batched ready drain: appends during dispatch extend
                    # the slab past the cursor and run in schedule order.
                    # Records are pushed in pairs, so the cursor lands
                    # exactly on len(rbuf) when the slab is dry -- the
                    # IndexError probe replaces a len() check per record;
                    # the finally settles the dispatch count per batch.
                    # The guard skips the whole drain (probe exception,
                    # append binding, slab recycle) on the common sparse
                    # path where a cohort matured onto an empty slab.
                    if not rbuf:
                        continue
                    base = pos
                    rappend = rbuf.append
                    try:
                        while True:
                            try:
                                arg = rbuf[pos + 1]
                            except IndexError:
                                break
                            cb = rbuf[pos]
                            pos += 2
                            cls = arg.__class__
                            if cls is int:
                                if arg > 0:
                                    # Timer resume (hop 2): cb is the
                                    # process, arg its wait generation.
                                    # A record whose generation is not
                                    # the current one is dropped.
                                    if cb._wait_gen == arg:
                                        cb._resume(None, None)
                                    if orphans:
                                        _process, exc = orphans.popleft()
                                        raise exc
                                else:
                                    # Zero-delay timer maturing (hop 1):
                                    # requeue the resume at the slab tail,
                                    # where a timeout event's waiter
                                    # dispatch would land it.
                                    rappend(cb)
                                    rappend(-arg)
                            elif cls is tuple:
                                # Event waiter resume: (generation, event).
                                if cb._wait_gen == arg[0]:
                                    event = arg[1]
                                    cb._resume(event.value, event._exc)
                                if orphans:
                                    _process, exc = orphans.popleft()
                                    raise exc
                            elif arg is None:
                                cb()
                                if orphans:
                                    _process, exc = orphans.popleft()
                                    raise exc
                            else:
                                cb(arg)
                                if orphans:
                                    _process, exc = orphans.popleft()
                                    raise exc
                    finally:
                        dispatched += (pos - base) >> 1
                    # Timestamp fully drained: recycle the slab in place.
                    del rbuf[:]
                    pos = 0
                elif heap:
                    when = heap[0][0]
                    if when > limit:
                        break
                    self.now = when
                    entry = heappop(heap)
                    if not heap or heap[0][0] != when:
                        # Singleton fast path: exactly one record matures
                        # at this timestamp.  The ready slab is empty by
                        # the loop-top condition (this arm is reached only
                        # once the slab is drained), so order is trivially
                        # exact.  This is the dominant shape in open-loop
                        # workloads (fig10 averages 1.5 records per
                        # distinct timestamp).
                        # Dispatch straight off the heap entry: no cohort
                        # slab, no free-list round-trip, no drain pass.
                        # Counters are bumped before the fire so the
                        # finally persists exact totals if it raises.
                        arg = entry[3]
                        cb = entry[2]
                        if arg.__class__ is int:
                            dispatched += 2
                            timer_fires += 1
                            if cb._wait_gen == arg:
                                cb._resume(None, None)
                        elif arg is None:
                            dispatched += 1
                            cb()
                        else:
                            dispatched += 1
                            cb(arg)
                        if orphans:
                            _process, exc = orphans.popleft()
                            raise exc
                    else:
                        # Collect the whole cohort at this timestamp into
                        # a recycled stride-2 slab, in sequence (FIFO)
                        # order.
                        cohort = free.pop() if free else []
                        cpos = 0
                        arg = entry[3]
                        cohort.append(entry[2])
                        cohort.append(arg)
                        pure = arg.__class__ is int
                        while heap and heap[0][0] == when:
                            entry = heappop(heap)
                            arg = entry[3]
                            cohort.append(entry[2])
                            cohort.append(arg)
                            if arg.__class__ is not int:
                                pure = False
                else:
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
        pass its timer fires to ``on_run_end``.  Every run ends here:
        :meth:`run`'s and the model checker's controlled one."""
        self.events_dispatched += dispatched
        self.timer_fires += timer_fires
        Simulator.total_events_dispatched += dispatched
        Simulator.total_sim_ns += self.now - start_ns
        on_run_end = Simulator.on_run_end
        if on_run_end is not None:
            on_run_end(timer_fires)

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
