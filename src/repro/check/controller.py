"""The schedule controller: explore same-timestamp interleavings.

The engine dispatches same-timestamp callbacks in FIFO (schedule) order;
that order is the *only* nondeterminism a real concurrent execution
would add, because everything else in the simulation is seeded.  A
:class:`ScheduleController` installed on a :class:`~repro.sim.Simulator`
(``controller.attach(sim)``) replaces the run loop with one that keeps
every currently-runnable callback in a ``pending`` list and asks a
:class:`Strategy` which to dispatch next.

The drive loop consumes the engine's own structures (``repro.sim.engine``:
the ready slab and the per-timestamp buckets of future work)
and hands undispatched work back to them on exit, so controlled and
uncontrolled ``run()`` calls can alternate on one simulator.  The
committed schedule corpus (``tests/schedules/``) pins the pending lists
the loop presents: a replay must hit the same choice points in the same
order (``tests/test_check_controller.py``, ``tests/test_check_corpus.py``).

Semantics contract
------------------

With :class:`FifoStrategy` (the default) the driven run is event-for-
event identical to the engine's own loop: cohort records mature lazily
(only while no earlier-scheduled matured plain callback is still
pending), timer maturation requeues in the same order, dispatch
decodes the same inline records, orphan failures re-raise at the same
point, and the dispatch counters advance identically.
``tests/test_check_controller.py`` pins this down against golden traces
and randomized workloads.

A *choice point* is any moment where two or more callbacks are pending
at the current timestamp.  The controller numbers choice points with a
global step counter; a schedule is fully described by the decisions
``[(step, choice_index)]`` where the choice differed from FIFO (index
0), which is what :class:`Schedule` serializes.

Strategies
----------

* :class:`FifoStrategy` -- always index 0 (the engine's order).
* :class:`RandomWalkStrategy` -- uniform seeded choice per point.
* :class:`PctStrategy` -- PCT-style randomized priorities: each distinct
  runnable (process or callback object) draws a random priority on first
  sight and the highest-priority pending entry runs; at ``depth - 1``
  pre-drawn change points the current leader is demoted below everyone,
  which probabilistically covers every d-ordering bug of depth <= depth.
* :class:`ReplayStrategy` -- replay recorded decisions (FIFO elsewhere),
  the deterministic-replay half of the shrinking loop.
"""

import heapq
import json
import random


__all__ = [
    "FifoStrategy",
    "PctStrategy",
    "RandomWalkStrategy",
    "ReplayStrategy",
    "Schedule",
    "ScheduleController",
]


class FifoStrategy:
    """The engine's own order: always dispatch the first pending entry."""

    name = "fifo"

    def choose(self, step, pending):
        return 0

    def describe(self):
        return {"mode": self.name}


class RandomWalkStrategy:
    """Uniform seeded choice at every choice point."""

    name = "random"

    def __init__(self, seed):
        self.seed = seed
        self.rng = random.Random(seed)

    def choose(self, step, pending):
        return self.rng.randrange(len(pending))

    def describe(self):
        return {"mode": self.name, "seed": self.seed}


class PctStrategy:
    """PCT-style randomized priorities with ``depth - 1`` change points.

    Priorities attach to the runnable *object* (the process being
    resumed, or the raw callback), so one logical actor keeps its
    priority across its whole lifetime -- the property PCT's coverage
    guarantee rests on.  References to priority holders are retained so
    CPython id() reuse cannot silently alias two actors within a run.

    A pending entry is ``(callback, arg)``; the actor is the callback
    (for a timer or waiter record, the process itself).
    """

    name = "pct"
    depth = 3  # the bug depth targeted: two change points
    horizon = 2000  # change points fall in steps [1, horizon)

    def __init__(self, seed):
        self.seed = seed
        self.rng = random.Random(seed)
        self._change_points = sorted(
            self.rng.randrange(1, self.horizon) for _ in range(self.depth - 1)
        )
        self._prio = {}  # id(actor) -> [priority, actor]
        self._demotions = 0

    def _priority(self, entry):
        actor = entry[0]
        record = self._prio.get(id(actor))
        if record is None:
            record = [self.rng.random(), actor]
            self._prio[id(actor)] = record
        return record[0]

    def choose(self, step, pending):
        while self._change_points and step >= self._change_points[0]:
            self._change_points.pop(0)
            leader = max(pending, key=self._priority)
            self._demotions += 1
            # Demote below every initial [0, 1) draw, uniquely per demotion.
            actor = leader[-2]
            self._prio[id(actor)] = [-self._demotions - self.rng.random(), actor]
        return max(range(len(pending)), key=lambda i: self._priority(pending[i]))

    def describe(self):
        return {"mode": self.name, "seed": self.seed, "depth": self.depth}


class ReplayStrategy:
    """Replay recorded ``(step, choice)`` decisions; FIFO everywhere else."""

    name = "replay"

    def __init__(self, decisions):
        self.decisions = [(int(step), int(choice)) for step, choice in decisions]
        self._by_step = dict(self.decisions)

    def choose(self, step, pending):
        return self._by_step.get(step, 0)

    def describe(self):
        return {"mode": self.name, "decisions": self.decisions}


class ScheduleController:
    """Drives a :class:`~repro.sim.Simulator` under a schedule strategy.

    One controller serves one simulator for its whole lifetime: the step
    counter, recorded decisions, and choice-point log span every
    ``run()`` call, so a schedule replays across multi-phase scenarios.
    """

    def __init__(self, strategy=None, record=True):
        self.strategy = FifoStrategy() if strategy is None else strategy
        self.record = record
        self.steps = 0
        #: Non-FIFO decisions actually taken: [(step, choice_index)].
        self.decisions = []
        #: Every choice point seen: [(step, n_alternatives, chosen)].
        self.points = []
        self.sim = None

    def attach(self, sim):
        if sim._controller is not None and sim._controller is not self:
            raise ValueError("simulator already has a schedule controller")
        sim._controller = self
        self.sim = sim
        return sim

    # ------------------------------------------------------------------ drive

    def drive(self, sim, until=None):
        """The controller's run loop; see the module docstring for the
        exact-equivalence contract with ``Simulator.run``.

        Pending entries are ``(callback, arg)`` pairs in dispatch order
        (the engine's order is positional — no sequence numbers at the
        current timestamp).  The one place schedule order needs care is
        cohort maturation: a plain callback matured out of the current
        cohort predates every other pending entry, so it enters at the
        *front* of ``pending`` and further maturation stalls until it is
        dispatched (``front_matured``) — maturing eagerly past it would
        dispatch it late.  Timer records always mature: their hop-2
        requeue is newer than everything pending.
        """
        rbuf = sim._rbuf
        heap = sim._heap
        buckets = sim._buckets
        dispatched = 0
        timer_fires = 0
        start_ns = sim.now
        orphans = sim._orphan_failures
        strategy = self.strategy
        record = self.record
        pos = sim._rpos
        cohort = sim._cohort
        cpos = sim._cpos
        #: True while pending[0] is a plain callback matured out of the
        #: current cohort (it blocks further maturation; on exit it is
        #: rewound into the cohort rather than handed back, so the flag
        #: never needs to outlive one drive call).
        front_matured = False
        #: Runnable entries at the current timestamp, dispatch order.
        pending = []
        try:
            while True:
                while pos < len(rbuf):
                    pending.append((rbuf[pos], rbuf[pos + 1]))
                    pos += 2
                del rbuf[:]
                pos = 0
                if pending and until is not None and sim.now > until:
                    break
                # Lazy cohort maturation: only while no earlier-scheduled
                # matured plain callback is still pending at the front.
                if cohort is not None and not front_matured:
                    n = len(cohort)
                    while cpos < n:
                        arg = cohort[cpos + 1]
                        if arg is not None:
                            # Timer maturing (hop 1): requeued behind
                            # everything pending, like the engine's.
                            dispatched += 1
                            timer_fires += 1
                            pending.append((cohort[cpos], arg))
                            cpos += 2
                        else:
                            # A plain scheduled callback: it predates
                            # every pending entry, so it goes first and
                            # blocks further maturation until dispatched.
                            pending.insert(0, (cohort[cpos], arg))
                            cpos += 2
                            front_matured = True
                            break
                    if cpos >= n:
                        cohort = None
                if not pending:
                    if not heap:
                        buckets.clear()
                        break
                    when = heap[0]
                    if until is not None and when > until:
                        break
                    # The bucket at this timestamp is its cohort, in
                    # schedule order -- exactly the engine's clock advance.
                    heapq.heappop(heap)
                    sim.now = when
                    cohort = buckets.pop(when)
                    cpos = 0
                    continue
                if len(pending) == 1:
                    index = 0
                else:
                    self.steps += 1
                    index = strategy.choose(self.steps, pending)
                    if index:
                        index %= len(pending)
                    if record:
                        self.points.append((self.steps, len(pending), index))
                        if index:
                            self.decisions.append((self.steps, index))
                callback, arg = pending.pop(index)
                if index == 0:
                    front_matured = False
                dispatched += 1
                if arg is None:
                    callback()
                elif arg.__class__ is int:
                    if not arg:
                        # Zero-delay timer maturing (hop 1): requeue the
                        # hop-2 record where a ready-slab append would
                        # land it (the slab is empty right now, so the
                        # pending tail is the slab tail).
                        pending.append((callback, 1))
                        continue
                    # Timer resume (hop 2).
                    callback._resume(None, None)
                else:
                    # Event waiter resume.
                    callback._resume(arg.value, arg._exc)
                if orphans:
                    _process, exc = orphans.popleft()
                    raise exc
        finally:
            if front_matured and cohort is not None:
                # pending[0] is a cohort callback that matured but was
                # never dispatched: rewind it into the cohort (the slab
                # still holds it at cpos - 2) so any later run — engine
                # or controller — re-matures it in schedule order.
                pending.pop(0)
                cpos -= 2
            if pending:
                # Hand undispatched work back to the engine's slab (an
                # exception or an ``until`` bound mid-timestamp), so a
                # later run() -- controlled or not -- continues cleanly.
                flat = []
                for entry in pending:
                    flat.append(entry[0])
                    flat.append(entry[1])
                flat.extend(rbuf)
                rbuf[:] = flat
            sim._rpos = 0
            sim._cohort = cohort
            sim._cpos = cpos
            sim.end_run(dispatched, timer_fires, start_ns)
        if until is not None and sim.now < until:
            sim.now = int(until)


class Schedule:
    """A serialized schedule: scenario + decisions, replayable byte-
    identically.  The JSON layout is versioned and canonical (sorted
    keys, trailing newline) so committed traces diff cleanly."""

    VERSION = 1

    def __init__(self, scenario, decisions, scenario_kwargs=None, seed=None,
                 invariant=None, note=None):
        self.scenario = scenario
        self.decisions = [(int(step), int(choice)) for step, choice in decisions]
        self.scenario_kwargs = dict(scenario_kwargs or {})
        self.seed = seed
        self.invariant = invariant
        self.note = note

    def to_dict(self):
        data = {
            "version": self.VERSION,
            "scenario": self.scenario,
            "scenario_kwargs": self.scenario_kwargs,
            "decisions": [list(pair) for pair in self.decisions],
        }
        if self.seed is not None:
            data["seed"] = self.seed
        if self.invariant is not None:
            data["invariant"] = self.invariant
        if self.note is not None:
            data["note"] = self.note
        return data

    def to_json(self):
        return json.dumps(self.to_dict(), sort_keys=True, indent=1) + "\n"

    def save(self, path):
        with open(path, "w") as handle:
            handle.write(self.to_json())
        return path

    @classmethod
    def from_dict(cls, data):
        if data.get("version") != cls.VERSION:
            raise ValueError(f"unsupported schedule version: {data.get('version')!r}")
        return cls(
            data["scenario"],
            [tuple(pair) for pair in data.get("decisions", [])],
            scenario_kwargs=data.get("scenario_kwargs"),
            seed=data.get("seed"),
            invariant=data.get("invariant"),
            note=data.get("note"),
        )

    @classmethod
    def load(cls, path):
        with open(path) as handle:
            return cls.from_dict(json.load(handle))
