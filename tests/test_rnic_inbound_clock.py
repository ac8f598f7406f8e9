"""Oracle for the inbound engine's busy-until clock.

``Rnic.inbound_admit`` computes an op's service window on arrival
(``start = max(now, free_at)``, ``end = start + hold``) and schedules
nothing.  The claim is that this arithmetic *is* the capacity-1 FIFO
server the engine used to be: a ``Resource`` every op acquired, held for
its whole-nanosecond service time and released.  ``_FifoReference`` below
is that server, kept here now that ``Rnic.inbound_engine`` is gone.

Random arrival streams -- fractional service times, same-nanosecond
arrivals, stalls, a gray window opening mid-stream -- go through both;
every op's ``(start, end)``, the sub-ns carry and the op count at sampled
instants (every ``end`` and its neighbours among them) must be equal.

The op count is sampled by callbacks scheduled before the stream starts,
the position ``bench/onesided.py``'s warm-up snapshot and the
observatory's microsecond sampler read it from: ahead, inside their
nanosecond, of any service-end wake-up, so an op ending at the sampled
instant is not counted yet.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import Cluster
from repro.sim import Resource, Simulator

#: 8 B READ over RC and DC, an atomic-sized whole number, a sub-ns op
#: (several fit in one nanosecond: whole-ns hold 0), a large payload.
SERVICES = (1e3 / 138, 1e3 / 118, 3.0, 0.4, 120.5)


class _FifoReference:
    """The inbound engine as a FIFO ``Resource`` (the model before the
    clock): hold decided on arrival, then acquire / hold / release."""

    def __init__(self, sim):
        self.sim = sim
        self.engine = Resource(sim, capacity=1)
        self.carry = 0.0
        self.degraded_until = 0
        self.factor = 1.0
        self.ops = 0
        self.log = []

    def set_degraded(self, duration_ns, factor):
        self.degraded_until = max(self.degraded_until, self.sim.now + duration_ns)
        self.factor = float(factor)

    def serve(self, service_ns):
        if self.degraded_until and self.sim.now < self.degraded_until:
            service_ns = service_ns * self.factor
        total = service_ns + self.carry
        whole = int(total)
        self.carry = total - whole
        grant = yield self.engine.acquire()
        start = self.sim.now
        yield from self._hold(grant, whole)
        self.ops += 1
        self.log.append((start, self.sim.now))

    def stall(self, duration_ns):
        grant = yield self.engine.acquire()
        yield from self._hold(grant, duration_ns)

    def _hold(self, grant, hold_ns):
        try:
            yield hold_ns
        finally:
            self.engine.release(grant)


class _Clock:
    """Adapter: the same four verbs on a real ``Rnic``."""

    def __init__(self, sim):
        self.sim = sim
        self.rnic = Cluster(sim, num_nodes=1).nodes[0].rnic
        self.log = []
        self.set_degraded = self.rnic.set_degraded

    def serve(self, service_ns):
        self.log.append(self.rnic.inbound_admit(service_ns))
        return
        yield  # a process, like the reference's

    def stall(self, duration_ns):
        return self.rnic.stall(duration_ns, engine="inbound")

    ops = property(lambda self: self.rnic.stats_inbound_ops)
    carry = property(lambda self: self.rnic._service_carry)


def _run(make_engine, script, sample_at=()):
    """Drive ``script`` -- ``(gap_ns, verb, argument)`` arrivals -- through
    one engine; returns (op windows, carry, op count per sample instant)."""
    sim = Simulator()
    engine = make_engine(sim)
    samples = []
    for instant in sample_at:
        sim.schedule(instant, lambda: samples.append(engine.ops))

    def arrivals():
        for gap, verb, argument in script:
            if gap:
                yield gap
            if verb == "degrade":
                engine.set_degraded(*argument)
            else:
                # Its own process, started in script order at this
                # nanosecond, like a flight reaching the responder.
                sim.process(getattr(engine, verb)(argument))

    sim.process(arrivals())
    sim.run()
    return engine.log, engine.carry, samples


_ARRIVAL = st.one_of(
    st.tuples(st.just("serve"), st.sampled_from(SERVICES)),
    st.tuples(st.just("serve"), st.floats(0.05, 40.0)),
    st.tuples(st.just("stall"), st.integers(0, 60)),
    st.tuples(st.just("degrade"), st.tuples(st.integers(1, 200), st.sampled_from((2.0, 8.0, 1.5)))),
)
_SCRIPT = st.lists(
    st.tuples(st.sampled_from((0, 0, 1, 3, 9, 25, 140)), _ARRIVAL).map(
        lambda step: (step[0], *step[1])
    ),
    min_size=1, max_size=60,
)


@settings(max_examples=150, deadline=None)
@given(_SCRIPT)
def test_busy_until_clock_is_the_fifo_server(script):
    windows, carry, _ = _run(_Clock, script)
    instants = sorted(
        {t for start, end in windows for t in (start, end - 1, end, end + 1) if t >= 0}
    )
    clock = _run(_Clock, script, instants)
    reference = _run(_FifoReference, script, instants)
    assert clock == reference
    assert clock[:2] == (windows, carry)  # sampling disturbs nothing
    # What the samples are: ops that left the engine before the instant.
    assert clock[2] == [sum(end < t for _, end in windows) for t in instants]


def test_clock_example_queue_behind_a_stall_in_a_gray_window():
    """One worked stream, so a failure above has a readable sibling."""
    script = [
        (0, "serve", 7.5),           # idle engine: [0, 7], carry .5
        (0, "serve", 7.5),           # same ns, queued: [7, 15], carry 0
        (3, "stall", 20),            # joins at t=3 behind both: [15, 35]
        (1, "degrade", (100, 2.0)),  # gray window opens at t=4
        (0, "serve", 7.25),          # stretched on arrival: [35, 49], carry .5
        (200, "serve", 0.4),         # window over, sub-ns op: [204, 204]
    ]
    windows, carry, samples = _run(_Clock, script, [7, 8, 15, 16, 49, 50, 204, 205])
    assert windows == [(0, 7), (7, 15), (35, 49), (204, 204)]
    assert carry == 0.9
    assert samples == [0, 1, 1, 2, 2, 3, 3, 4]
    assert (windows, carry, samples) == _run(
        _FifoReference, script, [7, 8, 15, 16, 49, 50, 204, 205]
    )

