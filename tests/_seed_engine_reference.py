"""A frozen copy of the seed (pre-optimization) simulation engine.

This is the single-heap engine the repo shipped with, kept verbatim as an
*ordering oracle*: ``tests/test_sim_engine.py`` runs randomly generated
schedules against this engine and ``repro.sim.engine`` and asserts the
callback execution traces are identical.  The production engine is a pure
optimization -- same-timestamp FIFO order by schedule sequence must be
preserved exactly, because the figure reproductions are bit-for-bit
deterministic on it.

Do not modernize this file; its value is that it does not change.
"""

import heapq


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
        self._waiters = []

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
        self._dispatch()
        return self

    def fail(self, exc):
        if self._triggered:
            raise SimulationError("event triggered twice")
        if not isinstance(exc, BaseException):
            raise SimulationError("Event.fail expects an exception instance")
        self._triggered = True
        self._exc = exc
        self._dispatch()
        return self

    def _dispatch(self):
        """Run waiters through the scheduler (same timestamp) rather than
        synchronously, so triggering code never reenters waiter code."""
        waiters, self._waiters = self._waiters, []
        for waiter in waiters:
            self.sim._schedule_now(lambda w=waiter: w(self))

    def add_callback(self, callback):
        """Invoke ``callback(event)`` when the event fires (or now if fired)."""
        if self._triggered:
            self.sim._schedule_now(lambda: callback(self))
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

    __slots__ = ("sim", "name", "_gen", "_done", "_interrupts", "_suspended_on")

    def __init__(self, sim, gen, name=None):
        self.sim = sim
        self.name = name or getattr(gen, "__name__", "process")
        self._gen = gen
        self._done = Event(sim)
        self._interrupts = []
        self._suspended_on = None
        sim._schedule_now(lambda: self._resume(None, None))

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
        self._interrupts.append(Interrupt(cause))
        self.sim._schedule_now(self._deliver_interrupt)

    def _deliver_interrupt(self):
        if not self.is_alive or not self._interrupts:
            return
        exc = self._interrupts.pop(0)
        self._suspended_on = None
        self._resume(None, exc)

    def _resume(self, value, exc):
        if self._done.triggered:
            return
        self.sim._current = self
        try:
            if exc is not None:
                target = self._gen.throw(exc)
            else:
                target = self._gen.send(value)
        except StopIteration as stop:
            self.sim._current = None
            self._finish(getattr(stop, "value", None), None)
            return
        except BaseException as err:  # noqa: BLE001 - must forward any failure
            self.sim._current = None
            self._finish(None, err)
            return
        self.sim._current = None
        self._wait_on(target)

    def _finish(self, value, exc):
        if exc is None:
            self._done.trigger(value)
        else:
            if not self._done._waiters:
                self.sim._record_orphan_failure(self, exc)
            self._done.fail(exc)

    def _wait_on(self, target):
        token = object()
        self._suspended_on = token

        def resume_from_event(event):
            if self._suspended_on is not token:
                return  # superseded by an interrupt
            self._suspended_on = None
            self._resume(event.value, event._exc)

        event = self.sim._as_event(target)
        event.add_callback(resume_from_event)


class Simulator:
    """The event loop: a clock plus a priority queue of pending callbacks."""

    def __init__(self):
        self.now = 0
        self._heap = []
        self._seq = 0
        self._current = None
        self._orphan_failures = []

    # -- scheduling ---------------------------------------------------------

    def schedule(self, delay, callback):
        """Run ``callback()`` after ``delay`` nanoseconds."""
        if delay < 0:
            raise SimulationError("cannot schedule into the past")
        self._seq += 1
        heapq.heappush(self._heap, (self.now + int(delay), self._seq, callback))

    def _schedule_now(self, callback):
        self.schedule(0, callback)

    def timeout(self, delay, value=None):
        """An event that triggers after ``delay`` nanoseconds."""
        event = Event(self)
        self.schedule(delay, lambda: event.trigger(value))
        return event

    def event(self):
        return Event(self)

    def process(self, gen, name=None):
        """Start ``gen`` (a generator) as a simulated process."""
        if not hasattr(gen, "send"):
            raise SimulationError("process() expects a generator")
        return Process(self, gen, name=name)

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
        """Drain the event queue, stopping after simulated time ``until``."""
        while self._heap:
            when, _seq, callback = self._heap[0]
            if until is not None and when > until:
                break
            heapq.heappop(self._heap)
            self.now = when
            callback()
            if self._orphan_failures:
                _process, exc = self._orphan_failures.pop(0)
                raise exc
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
