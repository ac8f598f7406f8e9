"""Tests for the discrete-event engine core."""

import pytest

import repro.sim.engine_classic as classic_engine
import repro.sim.engine_flat as flat_engine
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


# -- process(inline=True), on both cores ---------------------------------------


@pytest.fixture(params=[flat_engine, classic_engine], ids=["flat", "classic"])
def core(request):
    return request.param


def test_inline_process_runs_to_its_first_yield_in_the_callers_context(core):
    sim = core.Simulator()
    log = []

    def child(tag):
        log.append((tag, "started", sim.now))
        yield 30
        log.append((tag, "resumed", sim.now))
        return tag

    def parent(inline):
        yield 5
        proc = sim.process(child(inline), inline=inline)
        log.append((inline, "spawned", sim.now))
        value = yield proc
        log.append((inline, "joined", value, sim.now))

    def run(inline):
        before = sim.events_dispatched
        sim.run_process(parent(inline))
        return sim.events_dispatched - before

    queued, inline = run(False), run(True)
    assert [entry[1] for entry in log if entry[0] is False] == [
        "spawned", "started", "resumed", "joined"
    ]
    assert [entry[1] for entry in log if entry[0] is True] == [
        "started", "spawned", "resumed", "joined"
    ]
    # Same simulated times either way; the start record is the one saving.
    assert [entry[-1] for entry in log[:4]] == [5, 5, 35, 35]
    assert [entry[-1] - 35 for entry in log[4:]] == [5, 5, 35, 35]
    assert queued - inline == 1


def test_inline_process_first_yield_may_be_an_event(core):
    sim = core.Simulator()
    gate = core.Event(sim)

    def child():
        value = yield gate
        return (value, sim.now)

    proc = sim.process(child(), inline=True)
    assert proc.is_alive
    sim.schedule(70, lambda: gate.trigger("open"))
    sim.run()
    assert proc.done_event.value == ("open", 70)


def test_inline_process_may_return_without_yielding(core):
    sim = core.Simulator()

    def child():
        return "instant"
        yield  # pragma: no cover - makes this a generator

    def parent():
        proc = sim.process(child(), inline=True)
        assert not proc.is_alive
        value = yield proc
        return (value, sim.now)

    assert sim.run_process(parent()) == ("instant", 0)


def test_inline_process_failure_before_first_yield_is_an_orphan_failure(core):
    """Nobody can have joined it yet, so it follows the orphan rule:
    re-raised from ``run()`` right after the spawning dispatch."""
    sim = core.Simulator()
    after = []

    def bad():
        raise ValueError("before the first yield")
        yield  # pragma: no cover

    def parent():
        yield 10
        sim.process(bad(), inline=True)
        after.append(sim.now)  # the spawner itself is not interrupted
        yield 10
        after.append(sim.now)

    sim.process(parent())
    with pytest.raises(ValueError, match="before the first yield"):
        sim.run()
    assert after == [10]
    sim.run()  # the run resumes cleanly past the failure
    assert after == [10, 20]


def test_inline_process_can_be_interrupted_afterwards(core):
    sim = core.Simulator()
    log = []

    def sleeper():
        try:
            yield 1_000
        except core.Interrupt as intr:
            log.append((sim.now, intr.cause))
            yield 5
            log.append((sim.now, "recovered"))

    proc = sim.process(sleeper(), inline=True)
    sim.schedule(100, lambda: proc.interrupt("wake"))
    sim.run()
    assert log == [(100, "wake"), (105, "recovered")]
    # The superseded 1000 ns timer fired into a stale wait generation.
    assert sim.now == 1_000 and not proc.is_alive


def test_inline_processes_under_the_schedule_controller(core):
    """FIFO-controlled == uncontrolled, and identical across the cores
    (the pending lists the controller sees must line up one for one)."""
    from repro.check import FifoStrategy, ScheduleController

    def run(engine, controlled):
        sim = engine.Simulator()
        controller = ScheduleController(FifoStrategy())
        if controlled:
            controller.attach(sim)
        log = []

        def leaf(tag):
            log.append((sim.now, tag, "in"))
            yield tag % 3  # zero delays collide timestamps
            log.append((sim.now, tag, "out"))

        def spawner(base):
            for step in range(4):
                sim.process(leaf(base + step), inline=(step % 2 == 0))
                yield step % 2

        for base in (0, 10, 20):
            sim.process(spawner(base))
        sim.run()
        return log, sim.events_dispatched, sim.timer_fires, controller.points

    free = run(core, False)
    driven = run(core, True)
    assert free[:3] == driven[:3]
    assert driven == run(flat_engine, True) == run(classic_engine, True)
