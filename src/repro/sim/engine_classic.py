"""The classic discrete-event engine: simulator clock, events, processes.

This is the deque+heap engine introduced in PR 1, kept as the selectable
pure-Python fallback (``REPRO_ENGINE=classic``).  The default engine is
the flat-record core in ``repro.sim.engine_flat``; ``repro.sim.engine``
selects between the two at import time.  Both must execute callbacks in
exactly the same order as the frozen seed engine
(``tests/_seed_engine_reference.py``) — the hypothesis harness in
``tests/test_sim_engine_perf.py`` pins all three together.

Hot-path notes
--------------

The engine dispatches tens of millions of callbacks per figure, so the
scheduler is split in two:

* a binary heap (``_heap``) for callbacks in the future, and
* a FIFO ready-deque (``_ready``) for callbacks at the current timestamp
  (zero-delay schedules, event dispatch, process starts), which skips the
  ``heapq`` log-n push/pop entirely.

Both share one monotonically increasing sequence counter, and the run loop
always executes the lowest pending sequence number at the current
timestamp, so the observable order is *identical* to a single heap keyed on
``(time, seq)``: same-timestamp callbacks run in schedule (FIFO) order.
``tests/test_sim_engine_perf.py`` checks this equivalence against a copy of
the heap-only engine on randomized schedules.

Waiter wake-ups are encoded inline in the queue records instead of
per-event lambdas and per-yield closures: a queue entry's argument slot
holds ``None`` for a plain callback, an ``int`` wait-generation for a
timer resume, or a ``(gen, event)`` tuple for an event-waiter resume, and
the run loop performs the resume directly.  ``Process._wait_on`` has fast
paths for the two overwhelmingly common yield targets — an integer
timeout and an already-triggered event — that skip the intermediate
``Event`` machinery while consuming the same sequence numbers (order
stays bit-identical).

The engine counts work as it goes: ``Simulator.events_dispatched`` is the
exact number of callbacks the instance's run loop executed, and the
class-level ``Simulator.total_events_dispatched`` / ``total_sim_ns``
aggregate across all instances in the process (the bench runner's perf
JSON is derived from them).
"""

import heapq
from collections import deque
from heapq import heappush

from repro.obs import metrics as _obs_metrics


class SimulationError(Exception):
    """Raised for misuse of the simulation kernel itself."""


class Interrupt(Exception):
    """Thrown into a process that another process interrupted.

    The ``cause`` attribute carries the value passed to
    :meth:`Process.interrupt`.
    """

    def __init__(self, cause=None):
        super().__init__(cause)
        self.cause = cause


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

    @property
    def ok(self):
        """True once triggered successfully (not failed)."""
        return self._triggered and self._exc is None

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
        process, see ``Process._wait_on``) -- re-encoded so the run loop
        resumes it without any intermediate call -- or a plain callable
        from :meth:`add_callback`, invoked as ``callback(event)``.
        """
        self._waiters = None
        sim = self.sim
        seq = sim._seq
        ready = sim._ready
        for waiter in waiters:
            seq += 1
            if waiter.__class__ is tuple:
                ready.append((seq, waiter[0], (waiter[1], self)))
            else:
                ready.append((seq, waiter, self))
        sim._seq = seq

    def add_callback(self, callback):
        """Invoke ``callback(event)`` when the event fires (or now if fired)."""
        if self._triggered:
            self.sim._schedule_call(callback, self)
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


class _TimerResume:
    """Resume record for a process suspended on a *zero-delay* timeout.

    Fires in two hops through the ready queue, consuming sequence numbers
    exactly like the equivalent timeout ``Event``'s trigger-then-dispatch
    would, so callback order is identical to the event-based slow path.
    (Positive-delay timeouts skip even this record: the run loop
    recognizes ``(when, seq, process, gen)`` queue entries — ``gen`` an
    int — and performs the same two hops inline.)
    """

    __slots__ = ("sim", "process", "gen", "fired")

    def __init__(self, sim, process, gen):
        self.sim = sim
        self.process = process
        self.gen = gen
        self.fired = False

    def __call__(self):
        process = self.process
        if not self.fired:
            self.fired = True
            sim = self.sim
            sim._seq += 1
            sim._ready.append((sim._seq, self, None))
            return
        if process._wait_gen == self.gen:
            process._resume(None, None)


class _EventTrigger:
    """Deferred ``event.trigger(value)`` without a lambda per timeout."""

    __slots__ = ("event", "trigger_value")

    def __init__(self, event, value):
        self.event = event
        self.trigger_value = value

    def __call__(self):
        self.event.trigger(self.trigger_value)


class Process:
    """A running generator, driven by the simulator.

    The generator's ``return`` value becomes the value delivered to any
    process that yields (joins) this one.  An uncaught exception inside
    the generator propagates into joiners; if nobody joins, it is re-raised
    from :meth:`Simulator.run` so failures never pass silently.
    """

    __slots__ = (
        "sim", "name", "_gen", "_send", "_throw", "_done", "_interrupts", "_wait_gen",
    )

    def __init__(self, sim, gen, name=None):
        self.sim = sim
        self.name = name or getattr(gen, "__name__", "process")
        self._gen = gen
        self._send = gen.send
        self._throw = gen.throw
        self._done = Event(sim)
        self._interrupts = None  # lazily a deque: most processes never see one
        self._wait_gen = 0
        sim._seq += 1
        sim._ready.append((sim._seq, self._start, None))

    def _start(self):
        self._resume(None, None)

    @property
    def done_event(self):
        return self._done

    @property
    def is_alive(self):
        return not self._done.triggered

    def interrupt(self, cause=None):
        """Throw :class:`Interrupt` into the process at its current yield."""
        if not self.is_alive:
            return
        if self._interrupts is None:
            self._interrupts = deque()
        self._interrupts.append(Interrupt(cause))
        self.sim._schedule_call(self._deliver_interrupt, None)

    def _deliver_interrupt(self):
        if not self.is_alive or not self._interrupts:
            return
        exc = self._interrupts.popleft()
        self._wait_gen += 1  # invalidate whatever the process was waiting on
        self._resume(None, exc)

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
            # Zero delays go to the ready deque -- run() relies on heap
            # entries being strictly in the future.
            if target <= 0:
                if target < 0:
                    raise SimulationError("cannot schedule into the past")
                self._wait_gen = gen = self._wait_gen + 1
                sim._seq += 1
                sim._ready.append((sim._seq, _TimerResume(sim, self, gen), None))
                return
            self._wait_gen = gen = self._wait_gen + 1
            sim._seq += 1
            heappush(sim._heap, (sim.now + target, sim._seq, self, gen))
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
        elif isinstance(target, Event):
            event = target
        elif isinstance(target, int):  # bool and other int subclasses
            delay = int(target)
            if delay < 0:
                raise SimulationError("cannot schedule into the past")
            sim._seq += 1
            if delay == 0:
                sim._ready.append((sim._seq, _TimerResume(sim, self, gen), None))
            else:
                heappush(sim._heap, (sim.now + delay, sim._seq, self, gen))
            return
        else:
            event = sim._as_event(target)
        if event._triggered:
            # Already fired: resume through the ready queue directly, in
            # the inline encoding the run loop understands.
            sim._seq += 1
            sim._ready.append((sim._seq, self, (gen, event)))
        elif event._waiters is None:
            event._waiters = [(self, gen)]
        else:
            event._waiters.append((self, gen))


class Simulator:
    """The event loop: a clock, a ready FIFO for the current timestamp, and
    a priority queue of future callbacks."""

    #: Engine kind marker; the schedule controller (repro.check) keys its
    #: drive loop on this.  The flat core sets it True.
    FLAT_CORE = False

    #: Process-wide totals across every Simulator instance, folded in when
    #: each ``run()`` returns.  The bench runner samples these around a
    #: figure to report events/sec and simulated-ns/sec.
    total_events_dispatched = 0
    total_sim_ns = 0

    def __init__(self):
        self.now = 0
        self._heap = []
        self._ready = deque()
        self._seq = 0
        self._orphan_failures = deque()
        #: Optional schedule controller (repro.check): when set, run()
        #: delegates to it so same-timestamp dispatch order can be
        #: explored.  None (the default) keeps the FIFO fast path below
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
        self._seq += 1
        if delay == 0:
            # run() relies on heap entries being strictly in the future.
            self._ready.append((self._seq, callback, None))
        else:
            heapq.heappush(self._heap, (self.now + delay, self._seq, callback, None))

    def _schedule_call(self, callback, arg):
        """Enqueue ``callback(arg)`` (or ``callback()`` if arg is None) at
        the current timestamp, in FIFO order with everything else."""
        self._seq += 1
        self._ready.append((self._seq, callback, arg))

    def timeout(self, delay, value=None):
        """An event that triggers after ``delay`` nanoseconds."""
        event = Event(self)
        self.schedule(delay, _EventTrigger(event, value))
        return event

    def event(self):
        return Event(self)

    def process(self, gen, name=None):
        """Start ``gen`` (a generator) as a simulated process."""
        if not hasattr(gen, "send"):
            raise SimulationError("process() expects a generator")
        return Process(self, gen, name)

    def sleep(self, sleeper, delay_ns):
        """Resume ``sleeper`` after ``delay_ns``, exactly as a process that
        yields that delay is (``engine_flat.Simulator.sleep`` has the
        sleeper contract)."""
        if delay_ns.__class__ is not int or delay_ns < 0:
            raise SimulationError(f"cannot sleep for {delay_ns!r} ns")
        gen = sleeper._wait_gen
        self._seq += 1
        if delay_ns:
            heappush(self._heap, (self.now + delay_ns, self._seq, sleeper, gen))
        else:
            self._ready.append((self._seq, _TimerResume(self, sleeper, gen), None))

    def wake(self, sleeper):
        """Resume ``sleeper`` at the current timestamp: one ready record."""
        self._seq += 1
        self._ready.append((self._seq, sleeper, sleeper._wait_gen))

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

        Dispatch order is by (timestamp, schedule sequence): the ready
        deque holds only current-timestamp callbacks (always enqueued
        after any heap entry that shares their timestamp was *scheduled*,
        never before it in sequence order... the sequence comparison below
        arbitrates the one ambiguous case: a heap entry that matured at
        exactly the current timestamp with a lower sequence number than
        the ready head).
        """
        if self._controller is not None:
            return self._controller.drive(self, until)
        heap = self._heap
        ready = self._ready
        popheap = heapq.heappop
        popready = ready.popleft
        dispatched = 0
        timer_fires = 0
        start_ns = self.now
        orphans = self._orphan_failures
        # Sequence number of the heap head iff it matured at the current
        # timestamp, else None.  Heap pushes are strictly in the future
        # (zero delays go to the ready deque), so this only changes when
        # the loop itself pops the heap or advances the clock.
        if heap and heap[0][0] == self.now:
            heap_seq = heap[0][1]
        else:
            heap_seq = None
        try:
            while True:
                if ready:
                    if until is not None and self.now > until:
                        break
                    if heap_seq is not None and heap_seq < ready[0][0]:
                        head = popheap(heap)
                        callback = head[2]
                        arg = head[3]
                        if heap and heap[0][0] == self.now:
                            heap_seq = heap[0][1]
                        else:
                            heap_seq = None
                        if arg.__class__ is int:
                            # Timer maturing (hop 1 of 2): requeue the
                            # resume at the next sequence number, exactly
                            # where a timeout Event's trigger would have
                            # dispatched its waiter.
                            dispatched += 1
                            timer_fires += 1
                            self._seq += 1
                            ready.append((self._seq, callback, arg))
                            continue
                    else:
                        _seq, callback, arg = popready()
                        if arg.__class__ is int:
                            # Timer resume (hop 2 of 2): callback is the
                            # process, arg its wait generation.
                            dispatched += 1
                            if callback._wait_gen == arg:
                                callback._resume(None, None)
                            if orphans:
                                _process, exc = orphans.popleft()
                                raise exc
                            continue
                        if arg.__class__ is tuple:
                            # Event waiter resume: callback is the process,
                            # arg its (wait generation, event).  A stale
                            # generation means an interrupt superseded it.
                            dispatched += 1
                            gen = arg[0]
                            if callback._wait_gen == gen:
                                event = arg[1]
                                callback._resume(event.value, event._exc)
                            if orphans:
                                _process, exc = orphans.popleft()
                                raise exc
                            continue
                elif heap:
                    head = heap[0]
                    when = head[0]
                    if until is not None and when > until:
                        break
                    popheap(heap)
                    self.now = when
                    callback = head[2]
                    arg = head[3]
                    if heap and heap[0][0] == when:
                        heap_seq = heap[0][1]
                    else:
                        heap_seq = None
                    if arg.__class__ is int:
                        dispatched += 1
                        timer_fires += 1
                        self._seq += 1
                        ready.append((self._seq, callback, arg))
                        continue
                else:
                    break
                dispatched += 1
                if arg is None:
                    callback()
                else:
                    callback(arg)
                if orphans:
                    _process, exc = orphans.popleft()
                    raise exc
        finally:
            self.events_dispatched += dispatched
            self.timer_fires += timer_fires
            Simulator.total_events_dispatched += dispatched
            Simulator.total_sim_ns += self.now - start_ns
            registry = _obs_metrics.METRICS
            if registry is not None:
                registry.counter("sim.dispatches").inc(dispatched)
                registry.counter("sim.timer_fires").inc(timer_fires)
                registry.counter("sim.runs").inc()
                registry.counter("sim.elapsed_ns").inc(self.now - start_ns)
        if until is not None and self.now < until:
            self.now = int(until)

    def run_process(self, gen, name=None, until=None):
        """Start ``gen``, run to completion, and return its value."""
        proc = self.process(gen, name=name)
        self.run(until=until)
        if not proc.done_event.triggered:
            raise SimulationError(f"process {proc.name} did not finish")
        if proc.done_event._exc is not None:
            raise proc.done_event._exc
        return proc.done_event.value

    def _record_orphan_failure(self, process, exc):
        self._orphan_failures.append((process, exc))
