"""Tests for Resource and Store primitives."""

import pytest

from repro.sim import Resource, SimulationError, Simulator, Store


@pytest.fixture
def sim():
    return Simulator()


def test_resource_grants_up_to_capacity_without_waiting(sim):
    resource = Resource(sim, capacity=2)
    times = []

    def worker():
        grant = yield resource.acquire()
        times.append(sim.now)
        yield 100
        resource.release(grant)

    for _ in range(2):
        sim.process(worker())
    sim.run()
    assert times == [0, 0]


def test_resource_queues_beyond_capacity_fifo(sim):
    resource = Resource(sim, capacity=1)
    starts = []

    def worker(tag):
        grant = yield resource.acquire()
        starts.append((tag, sim.now))
        yield 100
        resource.release(grant)

    for tag in ("a", "b", "c"):
        sim.process(worker(tag))
    sim.run()
    assert starts == [("a", 0), ("b", 100), ("c", 200)]


def test_resource_serve_helper(sim):
    resource = Resource(sim, capacity=1)

    def worker():
        yield sim.process(resource.serve(250))
        return sim.now

    def worker2():
        yield sim.process(resource.serve(250))
        return sim.now

    first = sim.process(worker())
    second = sim.process(worker2())
    sim.run()
    assert first.done_event.value == 250
    assert second.done_event.value == 500


def test_release_twice_raises(sim):
    resource = Resource(sim, capacity=1)

    def worker():
        grant = yield resource.acquire()
        resource.release(grant)
        with pytest.raises(SimulationError):
            resource.release(grant)
        yield 0

    sim.process(worker())
    sim.run()


def test_release_foreign_grant_raises(sim):
    first = Resource(sim, capacity=1)
    second = Resource(sim, capacity=1)

    def worker():
        grant = yield first.acquire()
        with pytest.raises(SimulationError):
            second.release(grant)
        first.release(grant)
        yield 0

    sim.process(worker())
    sim.run()


def test_resource_capacity_must_be_positive(sim):
    with pytest.raises(SimulationError):
        Resource(sim, capacity=0)


def test_resource_usage_counters(sim):
    resource = Resource(sim, capacity=1)
    observed = []

    def holder():
        grant = yield resource.acquire()
        yield 50
        observed.append((resource.in_use, resource.queue_length))
        resource.release(grant)

    def contender():
        grant = yield resource.acquire()
        resource.release(grant)
        yield 0

    sim.process(holder())
    sim.process(contender())
    sim.run()
    assert observed == [(1, 1)]


def test_store_put_then_get(sim):
    store = Store(sim)
    store.put("x")

    def getter():
        item = yield store.get()
        return item

    assert sim.run_process(getter()) == "x"


def test_store_get_blocks_until_put(sim):
    store = Store(sim)
    result = []

    def getter():
        item = yield store.get()
        result.append((sim.now, item))

    def putter():
        yield 75
        store.put("late")

    sim.process(getter())
    sim.process(putter())
    sim.run()
    assert result == [(75, "late")]


def test_store_fifo_order(sim):
    store = Store(sim)
    for item in (1, 2, 3):
        store.put(item)
    got = []

    def getter():
        for _ in range(3):
            got.append((yield store.get()))

    sim.process(getter())
    sim.run()
    assert got == [1, 2, 3]


def test_store_try_get(sim):
    store = Store(sim)
    assert store.try_get() is None
    store.put("y")
    assert store.try_get() == "y"
    assert len(store) == 0


def test_release_hands_off_without_dropping_in_use(sim):
    """Under contention a release never decrements ``in_use``: the unit
    passes straight to the head waiter, and the count only falls once
    the wait queue has drained."""
    resource = Resource(sim, capacity=1)
    trace = []

    def worker(tag):
        grant = yield resource.acquire()
        trace.append((tag, resource.in_use, resource.queue_length))
        yield 10
        resource.release(grant)

    for tag in ("a", "b", "c"):
        sim.process(worker(tag))
    sim.run()
    # Every holder saw the unit fully in use; the queue shrank one per
    # handoff and in_use hit 0 only after the last release.
    assert trace == [("a", 1, 2), ("b", 1, 1), ("c", 1, 0)]
    assert resource.in_use == 0 and resource.queue_length == 0


def test_handoff_grant_is_fresh_and_releasable(sim):
    """The grant passed to a waiter is a new token: the old one stays
    dead (double-release still raises) and the new one releases fine."""
    resource = Resource(sim, capacity=1)
    grants = []

    def first():
        grant = yield resource.acquire()
        yield 5
        grants.append(grant)
        resource.release(grant)

    def second():
        grant = yield resource.acquire()
        grants.append(grant)
        resource.release(grant)
        yield 0

    sim.process(first())
    sim.process(second())
    sim.run()
    assert grants[0] is not grants[1]
    with pytest.raises(SimulationError):
        resource.release(grants[0])
    with pytest.raises(SimulationError):
        resource.release(grants[1])


def test_serve_truncates_float_service_time(sim):
    resource = Resource(sim, capacity=1)

    def worker():
        yield sim.process(resource.serve(250.9))
        return sim.now

    assert sim.run_process(worker()) == 250
    assert resource.in_use == 0


def test_exhausted_pool_acquire_does_not_overgrant(sim):
    """At exhaustion, acquire() parks the event untriggered -- capacity
    is never exceeded even when many acquires race at one timestamp."""
    resource = Resource(sim, capacity=2)
    concurrency = []

    def worker():
        grant = yield resource.acquire()
        concurrency.append(resource.in_use)
        yield 7
        resource.release(grant)

    for _ in range(6):
        sim.process(worker())
    sim.run()
    assert max(concurrency) <= 2
    assert len(concurrency) == 6
    assert resource.in_use == 0 and resource.queue_length == 0


def test_store_fifo_among_blocked_getters(sim):
    """Two getters block; puts wake them strictly in arrival order."""
    store = Store(sim)
    woken = []

    def getter(tag):
        item = yield store.get()
        woken.append((tag, item, sim.now))

    def putter():
        yield 30
        store.put("first")
        yield 30
        store.put("second")

    sim.process(getter("g1"))
    sim.process(getter("g2"))
    sim.process(putter())
    sim.run()
    assert woken == [("g1", "first", 30), ("g2", "second", 60)]


def test_store_put_bypasses_queue_when_getter_waits(sim):
    store = Store(sim)

    def getter():
        item = yield store.get()
        return item

    proc = sim.process(getter())
    sim.run()  # getter now parked
    store.put("direct")
    assert len(store) == 0  # handed straight over, never enqueued
    sim.run()
    assert proc.done_event.value == "direct"
