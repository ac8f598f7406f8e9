"""Structured tracing stamped with *simulated* nanoseconds.

A :class:`Tracer` records span, async-span and instant events, each at
the simulated time its site read off its own ``Simulator`` -- the
per-stage breakdown Fig 3 measures with CPU timestamps.  Recording never
yields or reads wall-clock time, so a seeded run's export is
byte-identical across runs; sites reach a tracer only through the
observer seam (:mod:`repro.obs.probes`).

Export is Chrome trace-event JSON (Perfetto / ``about://tracing``),
``ts`` in microseconds as exact ``ns / 1000``.  Tracks are interned to
``tid``s in first-use order and named by ``thread_name`` metadata; when
one tracer outlives several simulators, a track whose clock would run
backwards is forked into a fresh tid (``"name#2"``), keeping ``ts``
monotonic per tid.
"""

import hashlib
import json

#: Fixed pid for all exported events (one simulated "process").
_PID = 1


class Tracer:
    """Collects trace events, each stamped with the simulated time its
    caller passes (no clock of its own); export with :meth:`to_json`."""

    def __init__(self):
        self.events = []
        self._tracks = {}  # track name -> [tid, last ts, epoch]
        self._next_tid = 0
        self._next_async_id = 0
        self._async_open = set()

    # ------------------------------------------------------------- recording

    def record(self, ph, ts, track, name, args, async_id):
        """Append one event of phase ``ph`` (``i``, ``B`` / ``E``, async
        ``b`` / ``e`` with ``async_id``).  A track whose clock would run
        backwards (a fresh Simulator under the same tracer) is forked into
        a new tid.  An async end of an id this tracer did not open, or
        already closed, records nothing."""
        if ph == "e":
            if async_id not in self._async_open:
                return
            self._async_open.discard(async_id)
        elif ph == "b":
            self._async_open.add(async_id)
        entry = self._tracks.get(track)
        if entry is None or ts < entry[1]:
            epoch = 1 if entry is None else entry[2] + 1
            tid = self._next_tid
            self._next_tid += 1
            label = track if epoch == 1 else f"{track}#{epoch}"
            self.events.append({"ph": "M", "ts": 0, "pid": _PID, "tid": tid,
                                "name": "thread_name", "args": {"name": label}})
            entry = self._tracks[track] = [tid, -1, epoch]
        entry[1] = ts
        event = {"ph": ph, "ts": int(ts), "pid": _PID, "tid": entry[0], "name": name}
        if args:
            event["args"] = args
        if ph == "i":
            event["s"] = "t"
        elif async_id is not None:
            event["cat"] = "async"
            event["id"] = async_id
        self.events.append(event)

    def begin(self, ts, track, name, **args):
        """Open a synchronous span on ``track`` (Chrome ``B``)."""
        self.record("B", ts, track, name, args, None)

    def end(self, ts, track, name, **args):
        """Close the innermost open span of ``name`` (Chrome ``E``)."""
        self.record("E", ts, track, name, args, None)

    def next_async_id(self):
        """A fresh id for an async span (post -> completion)."""
        self._next_async_id += 1
        return self._next_async_id

    # -------------------------------------------------------------- queries

    def __len__(self):
        return len(self.events)

    def spans(self, name=None):
        """Matched (begin, end) pairs of synchronous spans, in begin order.

        Pairs B/E events per (tid, name) as a stack; unmatched begins are
        omitted.  Handy for tests and for deriving stage breakdowns.
        """
        open_stack = {}
        pairs = []  # [begin, end or None], in begin order
        for event in self.events:
            key = (event["tid"], event["name"])
            if event["ph"] == "B":
                pairs.append([event, None])
                open_stack.setdefault(key, []).append(pairs[-1])
            elif event["ph"] == "E" and open_stack.get(key):
                open_stack[key].pop()[1] = event
        return [(b, e) for b, e in pairs if e is not None and name in (None, b["name"])]

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
