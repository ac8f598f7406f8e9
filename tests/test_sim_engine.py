"""Tests for the discrete-event engine core.

Its API, the sleeper seam, the dispatch counters, and the order-equivalence
property every committed figure depends on: the engine must execute
callbacks in *exactly* the order the seed engine would have (same-timestamp
FIFO by schedule sequence).  ``tests/_seed_engine_reference.py`` is a
verbatim copy of the seed engine, kept as the ordering oracle; the
hypothesis test at the bottom generates random programs (processes that
sleep, wait on events, trigger events, schedule bare callbacks, and spawn
sub-processes), interprets each on both, and asserts equal traces.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.sim.engine as engine
import tests._seed_engine_reference as seed_engine
from repro.check import FifoStrategy, ScheduleController
from repro.sim import AllOf, AnyOf, Event, Interrupt, SimulationError, Simulator


@pytest.fixture
def sim():
    return Simulator()


def test_timeout_advances_clock(sim):
    def proc():
        yield 100
        return sim.now

    assert sim.run_process(proc()) == 100


def test_sequential_timeouts_accumulate(sim):
    def proc():
        yield 10
        yield 20
        yield 30
        return sim.now

    assert sim.run_process(proc()) == 60


def test_event_trigger_resumes_waiter_with_value(sim):
    event = sim.event()
    results = []

    def waiter():
        value = yield event
        results.append((sim.now, value))

    def firer():
        yield 50
        event.trigger("payload")

    sim.process(waiter())
    sim.process(firer())
    sim.run()
    assert results == [(50, "payload")]


def test_event_trigger_twice_raises(sim):
    event = sim.event()
    event.trigger()
    with pytest.raises(SimulationError):
        event.trigger()


def test_wait_on_already_triggered_event_resumes_immediately(sim):
    event = sim.event()
    event.trigger(42)

    def proc():
        value = yield event
        return (sim.now, value)

    assert sim.run_process(proc()) == (0, 42)


def test_event_fail_raises_in_waiter(sim):
    event = sim.event()

    def proc():
        with pytest.raises(RuntimeError, match="boom"):
            yield event
        return "survived"

    def firer():
        yield 5
        event.fail(RuntimeError("boom"))

    proc_handle = sim.process(proc())
    sim.process(firer())
    sim.run()
    assert proc_handle.done_event.value == "survived"


def test_process_join_receives_return_value(sim):
    def child():
        yield 30
        return "done"

    def parent():
        value = yield sim.process(child())
        return (sim.now, value)

    assert sim.run_process(parent()) == (30, "done")


def test_unjoined_process_failure_propagates_from_run(sim):
    def bad():
        yield 1
        raise ValueError("kaboom")

    sim.process(bad())
    with pytest.raises(ValueError, match="kaboom"):
        sim.run()


def test_all_of_waits_for_every_child(sim):
    def child(delay, value):
        yield delay
        return value

    def parent():
        values = yield AllOf([sim.process(child(30, "a")), sim.process(child(10, "b"))])
        return (sim.now, values)

    assert sim.run_process(parent()) == (30, ["a", "b"])


def test_any_of_fires_on_first_child(sim):
    def child(delay, value):
        yield delay
        return value

    def parent():
        index, value = yield AnyOf(
            [sim.process(child(30, "slow")), sim.process(child(10, "fast"))]
        )
        return (sim.now, index, value)

    assert sim.run_process(parent()) == (10, 1, "fast")


def test_interrupt_is_raised_at_current_yield(sim):
    log = []

    def sleeper():
        try:
            yield 1_000
        except Interrupt as intr:
            log.append((sim.now, intr.cause))

    def interrupter(target):
        yield 100
        target.interrupt("wake")

    target = sim.process(sleeper())
    sim.process(interrupter(target))
    sim.run()
    assert log == [(100, "wake")]


def test_interrupting_finished_process_is_noop(sim):
    def quick():
        yield 1

    proc = sim.process(quick())
    sim.run()
    proc.interrupt("late")
    sim.run()
    assert not proc.is_alive


def test_run_until_stops_clock_at_bound(sim):
    def proc():
        yield 1_000

    sim.process(proc())
    sim.run(until=400)
    assert sim.now == 400
    sim.run()
    assert sim.now == 1_000


def test_schedule_negative_delay_rejected(sim):
    with pytest.raises(SimulationError):
        sim.schedule(-1, lambda: None)


def test_deterministic_fifo_order_for_simultaneous_events(sim):
    order = []

    def proc(tag):
        yield 10
        order.append(tag)

    for tag in ("a", "b", "c"):
        sim.process(proc(tag))
    sim.run()
    assert order == ["a", "b", "c"]


def test_process_requires_generator(sim):
    with pytest.raises(SimulationError):
        sim.process(lambda: None)


def test_nested_process_spawning(sim):
    def grandchild():
        yield 5
        return "gc"

    def child():
        value = yield sim.process(grandchild())
        yield 5
        return value + "-c"

    def parent():
        value = yield sim.process(child())
        return (sim.now, value)

    assert sim.run_process(parent()) == (10, "gc-c")


def test_many_pending_interrupts_delivered_fifo(sim):
    """Queued interrupts drain strictly first-in-first-out.

    Regression test for the interrupt queue: deliveries must pop from the
    head (the seed used ``list.pop(0)``; the deque must preserve that
    order), so a burst of interrupts reaches the target in the order the
    interrupters issued them.
    """
    causes = []

    def sleeper():
        while len(causes) < 8:
            try:
                yield 1000
            except Interrupt as intr:
                causes.append(intr.cause)

    def interrupter(target):
        yield 1
        for i in range(8):
            target.interrupt(i)

    target = sim.process(sleeper())
    sim.process(interrupter(target))
    sim.run()
    assert causes == list(range(8))


def test_interleaved_interrupters_preserve_issue_order(sim):
    causes = []

    def sleeper():
        while len(causes) < 6:
            try:
                yield 1000
            except Interrupt as intr:
                causes.append(intr.cause)

    def interrupter(target, tags):
        yield 5
        for tag in tags:
            target.interrupt(tag)

    target = sim.process(sleeper())
    sim.process(interrupter(target, ["a1", "a2", "a3"]))
    sim.process(interrupter(target, ["b1", "b2", "b3"]))
    sim.run()
    # Both interrupters wake at t=5; the first-spawned runs first and
    # issues its whole burst, so delivery follows issue order exactly.
    assert causes == ["a1", "a2", "a3", "b1", "b2", "b3"]


# -- the sleeper seam: Simulator.sleep / wake ----------------------------------


class _Scripted:
    """The smallest sleeper: logs, then sleeps the next delay of a script."""

    def __init__(self, sim, tag, delays, log):
        self.sim, self.tag, self.delays, self.log = sim, tag, list(delays), log
        self.step = 0
        self._wait_gen = 1

    def _resume(self, value, exc):
        assert value is None and exc is None
        self.log.append((self.sim.now, self.tag, self.step))
        if self.step < len(self.delays):
            self.step += 1
            self.sim.sleep(self, self.delays[self.step - 1])


def _scripted_process(sim, tag, delays, log):
    for step, delay in enumerate(delays):
        log.append((sim.now, tag, step))
        yield delay
    log.append((sim.now, tag, len(delays)))


#: Zero delays and equal sums, so timestamps collide across the scripts.
_SCRIPTS = {
    "a": (5, 0, 10, 0, 0, 3), "b": (0, 5, 5, 5, 3), "c": (15, 0, 3), "d": (0, 0, 0), "e": (),
}


def _run_scripts(as_sleepers, controlled=False):
    sim = Simulator()
    controller = ScheduleController(FifoStrategy())
    if controlled:
        controller.attach(sim)
    log = []
    for tag, delays in _SCRIPTS.items():
        if as_sleepers == "all" or (as_sleepers == "some" and tag in "bd"):
            sim.wake(_Scripted(sim, tag, delays, log))
        else:
            sim.process(_scripted_process(sim, tag, delays, log))
    sim.run()
    return log, sim.events_dispatched, sim.timer_fires, sim.now, controller.points


@pytest.mark.parametrize("as_sleepers", ["some", "all"])
def test_sleep_and_wake_count_and_order_like_a_process(as_sleepers):
    """``wake`` is the start record, ``sleep`` the ``yield delay`` (zero
    delays included): same dispatch order, same counters, with sleepers
    and processes interleaved in one run or sleepers alone (the fused
    pure-timer pass)."""
    processes = _run_scripts(None)
    assert _run_scripts(as_sleepers) == processes
    assert processes[1:4] == (39, 9, 18)  # 5 starts + 17 timers x 2; 9 are not zero-delay


def test_sleepers_under_the_schedule_controller():
    """FIFO-controlled == uncontrolled, choice points aside."""
    free = _run_scripts("some")
    driven = _run_scripts("some", controlled=True)
    assert free[:4] == driven[:4]
    assert driven[4]  # the controller did see choice points


def test_wake_queues_behind_what_is_already_ready(sim):
    log = []
    sim.schedule(0, lambda: log.append("earlier"))
    sim.wake(_Scripted(sim, "s", (), log))
    sim.schedule(0, lambda: log.append("later"))
    assert log == []  # one ready record, nothing runs in the caller
    sim.run()
    assert log == ["earlier", (0, "s", 0), "later"]
    assert (sim.events_dispatched, sim.timer_fires) == (3, 0)


@pytest.mark.parametrize("first", [0, 10])
def test_a_sleeper_cancels_its_pending_record_by_bumping_its_wait_gen(sim, first):
    """As a process does on every wait: the older record finds a stale
    wait generation when it fires."""
    log = []
    sleeper = _Scripted(sim, "s", (), log)
    sim.sleep(sleeper, first)
    sleeper._wait_gen += 1
    sim.sleep(sleeper, 30)
    sim.run()
    assert log == [(30, "s", 0)]


@pytest.mark.parametrize("delay", [-1, 2.0, None])
def test_sleep_takes_whole_non_negative_nanoseconds(sim, delay):
    with pytest.raises(SimulationError):
        sim.sleep(_Scripted(sim, "s", (), []), delay)


@pytest.mark.parametrize("delay", [0, 7])
def test_a_sleeper_that_raises_ends_the_run_like_an_orphaned_process(sim, delay):
    after = []

    class Bad:
        _wait_gen = 1

        def _resume(self, value, exc):
            raise ValueError("in a stage")

    def bystander():
        yield delay
        after.append(sim.now)
        yield 10
        after.append(sim.now)

    sim.sleep(Bad(), delay)
    sim.process(bystander())
    with pytest.raises(ValueError, match="in a stage"):
        sim.run()
    events = sim.events_dispatched
    sim.run()  # the run resumes cleanly past the failure
    assert after == [delay, delay + 10]
    assert sim.events_dispatched > events


# -- order equivalence with the seed engine, dispatch counters -----------------

NUM_EVENTS = 4

# One step of a process script.  ``spawn`` targets only strictly-higher
# script indices, so programs form a DAG and always terminate.
_step = st.one_of(
    st.tuples(st.just("sleep"), st.integers(min_value=0, max_value=4)),
    st.tuples(st.just("wait"), st.integers(min_value=0, max_value=NUM_EVENTS - 1)),
    st.tuples(st.just("trigger"), st.integers(min_value=0, max_value=NUM_EVENTS - 1)),
    st.tuples(st.just("sched"), st.integers(min_value=0, max_value=4)),
    st.tuples(st.just("spawn"), st.integers(min_value=0, max_value=10 ** 6)),
)

_scripts = st.lists(
    st.lists(_step, min_size=0, max_size=6), min_size=1, max_size=5
)

_roots = st.lists(st.integers(min_value=0, max_value=10 ** 6), min_size=1, max_size=4)


def _interpret(engine, scripts, roots):
    """Run the program on ``engine`` and return its execution trace.

    The trace records (sim.now, which script, which instance, which step)
    at every resume point, plus scheduled-callback firings -- a total
    order over everything the engine dispatched.
    """
    sim = engine.Simulator()
    events = [sim.event() for _ in range(NUM_EVENTS)]
    trace = []
    instances = [0]

    def make(script_idx):
        instances[0] += 1
        inst = instances[0]

        def body():
            for step_no, (op, arg) in enumerate(scripts[script_idx]):
                trace.append((sim.now, script_idx, inst, step_no, op))
                if op == "sleep":
                    yield arg
                elif op == "wait":
                    # Waiting on an already-triggered event resumes via the
                    # queue as well; exercise both states.
                    yield events[arg]
                elif op == "trigger":
                    if not events[arg].triggered:
                        events[arg].trigger((script_idx, step_no))
                elif op == "sched":
                    label = (script_idx, inst, step_no)
                    sim.schedule(arg, lambda label=label: trace.append((sim.now, "cb", label)))
                elif op == "spawn":
                    target = script_idx + 1 + arg % max(1, len(scripts) - script_idx - 1)
                    if target < len(scripts):
                        sim.process(make(target)())
            trace.append((sim.now, script_idx, inst, "end", "end"))

        return body

    for root in roots:
        sim.process(make(root % len(scripts))())
    sim.run()
    trace.append(("final-now", sim.now))
    return trace


@settings(max_examples=200, deadline=None)
@given(scripts=_scripts, roots=_roots)
def test_execution_order_matches_seed_engine(scripts, roots):
    assert _interpret(engine, scripts, roots) == _interpret(seed_engine, scripts, roots)


def test_events_dispatched_counter_is_exact():
    """N scheduled callbacks, nothing else: the counter reads exactly N."""
    sim = Simulator()
    fired = []
    for i in range(10):
        sim.schedule(i % 4, lambda i=i: fired.append(i))
    assert sim.events_dispatched == 0
    sim.run()
    assert len(fired) == 10
    assert sim.events_dispatched == 10


def test_events_dispatched_counter_is_deterministic():
    """The same program dispatches the same number of events every run."""

    def program():
        sim = Simulator()

        def worker(n):
            for _ in range(n):
                yield 3
            done.trigger(None)

        def waiter():
            yield done

        done = sim.event()
        sim.process(worker(5))
        sim.process(waiter())
        sim.run()
        return sim.events_dispatched

    first = program()
    assert first > 0
    assert all(program() == first for _ in range(3))


def test_class_totals_accumulate_across_simulators():
    before_events = Simulator.total_events_dispatched
    before_ns = Simulator.total_sim_ns

    def proc():
        yield 7

    sim = Simulator()
    sim.process(proc())
    sim.run()
    assert Simulator.total_events_dispatched - before_events == sim.events_dispatched
    assert Simulator.total_sim_ns - before_ns == sim.now == 7
