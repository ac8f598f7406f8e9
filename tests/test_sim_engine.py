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

import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.sim.engine as engine
import tests._seed_engine_reference as seed_engine
from repro.sim import AnyOf, Event, SimulationError, Simulator


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


class _Scripted:
    """The smallest sleeper: logs, then sleeps the next delay of a script."""

    def __init__(self, sim, tag, delays, log):
        self.sim, self.tag, self.delays, self.log = sim, tag, list(delays), log
        self.step = 0

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


def _run_scripts(as_sleepers):
    sim = Simulator()
    log = []
    for tag, delays in _SCRIPTS.items():
        if as_sleepers == "all" or (as_sleepers == "some" and tag in "bd"):
            sim.wake(_Scripted(sim, tag, delays, log))
        else:
            sim.process(_scripted_process(sim, tag, delays, log))
    sim.run()
    return log, sim.events_dispatched, sim.timer_fires, sim.now


@pytest.mark.parametrize("as_sleepers", ["some", "all"])
def test_sleep_and_wake_count_and_order_like_a_process(as_sleepers):
    """``wake`` is the start record, ``sleep`` the ``yield delay`` (zero
    delays included): same dispatch order, same counters, with sleepers
    and processes interleaved in one run or sleepers alone (the fused
    pure-timer pass)."""
    processes = _run_scripts(None)
    assert _run_scripts(as_sleepers) == processes
    assert processes[1:4] == (39, 9, 18)  # 5 starts + 17 timers x 2; 9 are not zero-delay


def test_wake_queues_behind_what_is_already_ready(sim):
    log = []
    sim.schedule(0, lambda: log.append("earlier"))
    sim.wake(_Scripted(sim, "s", (), log))
    sim.schedule(0, lambda: log.append("later"))
    assert log == []  # one ready record, nothing runs in the caller
    sim.run()
    assert log == ["earlier", (0, "s", 0), "later"]
    assert (sim.events_dispatched, sim.timer_fires) == (3, 0)


@pytest.mark.parametrize("delay", [-1, 2.0, None])
def test_sleep_takes_whole_non_negative_nanoseconds(sim, delay):
    with pytest.raises(SimulationError):
        sim.sleep(_Scripted(sim, "s", (), []), delay)


@pytest.mark.parametrize("delay", [0, 7])
def test_a_sleeper_that_raises_ends_the_run_like_an_orphaned_process(sim, delay):
    after = []

    class Bad:
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


def _on_both(program):
    """``program(module, sim, trace)`` on this engine and on the seed
    engine; returns the two traces."""
    traces = []
    for module in (engine, seed_engine):
        sim = module.Simulator()
        trace = []
        program(module, sim, trace)
        traces.append(trace)
    return traces


def test_one_timestamp_keeps_push_order_across_a_run_that_stops_short():
    """Callbacks, process timers and timeout events pushed to t=100 before
    a ``run(until=60)`` and after it run in push order, as on the seed."""

    def program(module, sim, trace):
        def sleeper(tag, delay):
            yield delay
            trace.append((sim.now, tag))

        def waiter(tag, event):
            value = yield event
            trace.append((sim.now, tag, value))

        def push(phase):
            delay = 100 - sim.now
            sim.schedule(delay, lambda: trace.append((sim.now, phase, "cb")))
            sim.process(sleeper((phase, "process"), delay))
            sim.process(waiter((phase, "timeout"), sim.timeout(delay)))
            sim.schedule(delay, lambda: trace.append((sim.now, phase, "cb2")))

        push("before")
        sim.run(until=60)
        trace.append(("stopped", sim.now))
        push("after")
        sim.run()
        trace.append(("end", sim.now))

    ours, seed = _on_both(program)
    assert ours == seed
    assert ("stopped", 60) in ours and len(ours) == 10


@pytest.mark.parametrize("shape", ["mixed", "pure", "ready"])
def test_a_raise_mid_cohort_then_a_second_run_keeps_the_seed_order(shape):
    """A raise out of the middle of a timestamp -- a plain callback in a
    mixed cohort, a process in a pure-timer cohort, a callback on the
    ready slab -- and a second ``run()`` dispatch what is left in the
    seed's order."""

    def program(module, sim, trace):
        def proc(tag, boom=False):
            yield 10
            trace.append((sim.now, tag))
            if boom:
                raise ValueError(tag)
            yield 0
            trace.append((sim.now, tag, "again"))

        def bad():
            trace.append((sim.now, "bad"))
            raise ValueError("callback")

        sim.process(proc("a"))
        if shape == "mixed":
            sim.schedule(10, lambda: trace.append((sim.now, "cb")))
            sim.schedule(10, bad)
        elif shape == "pure":
            sim.process(proc("boom", boom=True))
        else:
            sim.schedule(10, lambda: sim.schedule(0, bad))
        sim.process(proc("b"))
        if shape != "pure":
            sim.schedule(10, lambda: trace.append((sim.now, "cb last")))
        for _ in range(2):
            try:
                sim.run()
            except ValueError as err:
                trace.append(("raised", str(err), sim.now))
        trace.append(("end", sim.now))

    ours, seed = _on_both(program)
    assert ours == seed
    assert sum(entry[0] == "raised" for entry in ours) == 1


def test_any_of_over_timers_and_events_matches_the_seed():
    """Values, failures and resume order of ``AnyOf`` over mixed
    children: events fired and failed at the same instants as timers,
    integer delays, timeout events and children that fired before the
    wait."""

    def program(module, sim, trace):
        events = [sim.event() for _ in range(3)]

        def firer():
            yield 5
            events[0].trigger("e0")
            yield 5
            events[1].trigger("e1")
            events[2].fail(KeyError("e2"))

        def joiner(tag, start, make):
            yield start
            try:
                value = yield make()
            except KeyError as err:
                value = ("failed", str(err))
            trace.append((sim.now, tag, value))

        sim.process(firer())
        sim.process(joiner("any-event", 0, lambda: module.AnyOf([events[1], 4, sim.timeout(12)])))
        sim.process(joiner("any-first", 0, lambda: module.AnyOf([sim.timeout(5), events[0]])))
        sim.process(joiner("any-fails", 0, lambda: module.AnyOf([events[2], 20])))
        sim.process(joiner("any-fired", 10, lambda: module.AnyOf([events[2], events[1]])))
        sim.run()
        trace.append(("end", sim.now))

    ours, seed = _on_both(program)
    assert ours == seed
    assert (5, "any-first", (0, None)) in ours
    assert (10, "any-fails", ("failed", "'e2'")) in ours


def test_buckets_hold_nothing_once_the_heap_drains():
    """A dict keeps its table after it empties, so the run loop drops the
    buckets' table once the last future timestamp has matured."""
    sim = Simulator()
    fired = []
    for delay in range(1, 2_501):
        sim.schedule(delay, lambda: fired.append(sim.now))
    assert sys.getsizeof(sim._buckets) > sys.getsizeof({})
    sim.run()
    assert len(fired) == 2_500 and not sim._heap
    assert sys.getsizeof(sim._buckets) == sys.getsizeof({})


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
