"""Structured tracing stamped with *simulated* nanoseconds.

A :class:`Tracer` records span (begin/end), async-span, and instant
events; every event carries the simulated timestamp its call site reads
off its own ``Simulator`` (``sim.now``), so a trace is a faithful,
deterministic picture of where simulated time went -- the per-stage
breakdown the paper's Figure 3 measures with CPU timestamping.

Pay-for-what-you-use contract
-----------------------------

The module-level global :data:`TRACER` is ``None`` unless somebody
installed a tracer (``repro.obs.observe``).  Every instrumented hot path
guards with exactly one falsy check::

    if _trace.TRACER is not None:
        _trace.TRACER.instant(sim.now, "krcore@node0", "dc_cache.miss")

so the disabled cost is a module-attribute load and an identity
comparison -- no allocation, no call.  Instrumentation never yields and
never reads wall-clock time, so an installed tracer observes the
simulation without perturbing it: the event stream is a pure function of
the (seeded, deterministic) run, and the exported JSON is byte-identical
across runs of the same scenario.

Export is Chrome trace-event JSON (the ``traceEvents`` array format),
loadable in Perfetto / ``about://tracing``.  Timestamps are exported in
microseconds (the format's unit) as exact ``ns / 1000`` values.  Tracks
are interned to integer ``tid``s in first-use order and named through
``thread_name`` metadata events; if the same tracer outlives several
``Simulator`` instances (simulated time restarts from zero), a track
whose clock would run backwards is forked into a fresh ``tid``
(``"name#2"``), keeping ``ts`` monotonic per tid -- a property the test
suite validates.
"""

import hashlib
import json

#: The process-wide tracer consulted by every instrumented call site.
#: ``None`` (the default) disables tracing at the cost of one falsy
#: check.  Install via :func:`repro.obs.observe`.
TRACER = None

#: Fixed pid for all exported events (one simulated "process").
_PID = 1


class Tracer:
    """Collects structured trace events; export with :meth:`to_json`.

    All record methods take the simulated timestamp explicitly (call
    sites pass their own ``sim.now``), so one tracer can observe any
    number of components without holding a clock reference.
    """

    def __init__(self):
        self.events = []
        self._tracks = {}  # current track name -> (tid, last_ts)
        self._next_tid = 0
        self._next_async_id = 0

    # ------------------------------------------------------------- recording

    def _tid(self, track, ts):
        """Intern ``track`` to an integer tid, forking a new tid if the
        clock ran backwards (a fresh Simulator under the same tracer)."""
        entry = self._tracks.get(track)
        if entry is None:
            entry = self._new_track(track, track, 1)
        elif ts < entry[1]:
            epoch = entry[2] + 1
            entry = self._new_track(track, f"{track}#{epoch}", epoch)
        entry[1] = ts
        return entry[0]

    def _new_track(self, key, label, epoch):
        tid = self._next_tid
        self._next_tid += 1
        self.events.append(
            {
                "ph": "M",
                "ts": 0,
                "pid": _PID,
                "tid": tid,
                "name": "thread_name",
                "args": {"name": label},
            }
        )
        entry = [tid, -1, epoch]
        self._tracks[key] = entry
        return entry

    def _event(self, ph, ts, track, name, args, extra=None):
        event = {
            "ph": ph,
            "ts": int(ts),
            "pid": _PID,
            "tid": self._tid(track, ts),
            "name": name,
        }
        if args:
            event["args"] = args
        if extra:
            event.update(extra)
        self.events.append(event)

    def begin(self, ts, track, name, **args):
        """Open a synchronous span on ``track`` (Chrome ``B``)."""
        self._event("B", ts, track, name, args)

    def end(self, ts, track, name, **args):
        """Close the innermost open span of ``name`` (Chrome ``E``)."""
        self._event("E", ts, track, name, args)

    def instant(self, ts, track, name, **args):
        """A zero-duration marker (Chrome ``i``, thread scope)."""
        self._event("i", ts, track, name, args, extra={"s": "t"})

    def next_async_id(self):
        """A fresh id for an async span (post -> completion)."""
        self._next_async_id += 1
        return self._next_async_id

    def async_begin(self, ts, track, name, async_id, **args):
        """Open an async span (Chrome ``b``); pair with :meth:`async_end`."""
        self._event("b", ts, track, name, args,
                    extra={"cat": "async", "id": async_id})

    def async_end(self, ts, track, name, async_id, **args):
        self._event("e", ts, track, name, args,
                    extra={"cat": "async", "id": async_id})

    # -------------------------------------------------------------- queries

    def __len__(self):
        return len(self.events)

    def spans(self, name=None):
        """Matched (begin, end) pairs of synchronous spans, in begin order.

        Pairs B/E events per (tid, name) as a stack; unmatched begins are
        omitted.  Handy for tests and for deriving stage breakdowns.
        """
        open_stack = {}
        pairs = []
        order = []
        for event in self.events:
            key = (event["tid"], event["name"])
            if event["ph"] == "B":
                open_stack.setdefault(key, []).append(event)
                order.append(event)
            elif event["ph"] == "E":
                stack = open_stack.get(key)
                if stack:
                    pairs.append((stack.pop(), event))
        begin_index = {id(b): i for i, b in enumerate(order)}
        pairs.sort(key=lambda pair: begin_index[id(pair[0])])
        if name is None:
            return pairs
        return [p for p in pairs if p[0]["name"] == name]

    # ------------------------------------------------------------- exporting

    def to_chrome(self):
        """The trace as a Chrome trace-event dict (``ts`` in microseconds)."""
        out = []
        for event in self.events:
            copy = dict(event)
            copy["ts"] = event["ts"] / 1000.0
            out.append(copy)
        return {"displayTimeUnit": "ns", "traceEvents": out}

    def to_json(self):
        """Canonical JSON text: sorted keys, stable layout, trailing \\n.

        The same simulation always produces byte-identical text -- the
        determinism contract the golden-trace tests pin down.
        """
        return json.dumps(self.to_chrome(), sort_keys=True, indent=1) + "\n"

    def digest(self):
        """SHA-256 of the canonical JSON export (fixed seed => fixed digest)."""
        return hashlib.sha256(self.to_json().encode()).hexdigest()
