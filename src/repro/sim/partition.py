"""Partitioned parallel simulation: conservative lookahead over engine shards.

The engine (:mod:`repro.sim.engine`) dispatches every event of a run
through one Python loop, which caps cluster size at whatever one
interpreter can chew through.  This module splits a run into *partitions* — one independent
engine instance per rack group — and synchronizes them with the classic
conservative (null-message / bounded-window) protocol:

* **Lookahead.**  Partitions only interact through *channels*, and every
  channel message must be delivered at least ``lookahead_ns`` after it
  was sent.  In the cluster model the lookahead is physical: a
  cross-rack interaction cannot take effect sooner than one spine
  traversal (:data:`repro.cluster.timing.INTER_RACK_ONE_WAY_NS`).

* **Windows.**  Let ``T`` be the global minimum next-event time over
  all partitions and all undelivered messages.  Every partition may
  safely execute all events with timestamp ``<= T + lookahead - 1``:
  any message generated inside that window is sent at ``>= T`` and
  therefore delivers at ``>= T + lookahead``, strictly after the
  window.  Each round therefore advances simulated time by at least
  ``lookahead_ns`` — the run takes at most ``horizon / lookahead``
  synchronization barriers.

* **Deterministic merge.**  Messages buffered for a window are injected
  *before* the window runs, sorted by the canonical key
  ``(deliver_ns, src_node, seq)``.  Because a message for timestamp
  ``t`` can only be produced in a window that ends before ``t``, every
  message for ``t`` is known (and injected, in canonical order) before
  any event at ``t`` runs — delivery order is a pure function of the
  message set, independent of partition count and execution mode.
  This is the property the cross-partition equivalence suite
  (``tests/test_partition_equivalence.py``) pins.

Two execution modes share the window loop byte for byte:

* ``inline`` — every partition lives in this process; rounds visit
  partitions in index order.  Zero IPC, fully deterministic; this is
  what the equivalence and determinism suites run.
* ``mp`` — one OS process per partition (``multiprocessing``), windows
  coordinated over pipes.  Same windows, same injection sets, same
  results; this is the mode that actually buys wall-clock speedup
  (``cluster_scale`` figure).

A partition runs a completely ordinary engine internally, untouched.
``partitions=1`` is the degenerate case: one partition, no
cross-partition channels ever carry traffic, and the model code paths
are identical to a plain single-engine run.
"""

from time import perf_counter

from repro.sim.engine import SimulationError, Simulator


class PartitionError(SimulationError):
    """A violation of the inter-partition channel protocol."""


class Message:
    """One typed cross-partition event.

    ``payload`` must be built from plain picklable values (the ``mp``
    mode ships messages between processes).  ``src_node``/``seq`` make
    the canonical merge key: per-sender sequence numbers are assigned in
    deterministic send order, so ``(deliver_ns, src_node, seq)`` totally
    orders any message set the same way at every partition count.
    """

    __slots__ = ("deliver_ns", "dst_part", "kind", "payload", "src_node", "seq")

    def __init__(self, deliver_ns, dst_part, kind, payload, src_node, seq):
        self.deliver_ns = deliver_ns
        self.dst_part = dst_part
        self.kind = kind
        self.payload = payload
        self.src_node = src_node
        self.seq = seq

    @property
    def sort_key(self):
        return (self.deliver_ns, self.src_node, self.seq)

    def __repr__(self):
        return (
            f"Message(deliver={self.deliver_ns}, dst_part={self.dst_part}, "
            f"kind={self.kind!r}, src_node={self.src_node}, seq={self.seq})"
        )

    def __getstate__(self):
        return (self.deliver_ns, self.dst_part, self.kind, self.payload,
                self.src_node, self.seq)

    def __setstate__(self, state):
        (self.deliver_ns, self.dst_part, self.kind, self.payload,
         self.src_node, self.seq) = state


class Channel:
    """A directed inter-partition message queue with monotonic batches.

    ``push`` enforces the lookahead guarantee per message; ``seal``
    closes the current batch at a window barrier and enforces batch
    monotonicity: every sealed batch's messages deliver at or after the
    barrier, and barriers only move forward.  Violating either is a bug
    in the model (it would let an effect outrun the synchronization
    protocol), so both raise :class:`PartitionError` instead of
    silently corrupting the run.
    """

    __slots__ = ("src_part", "dst_part", "lookahead_ns", "_pending", "_floor")

    def __init__(self, src_part, dst_part, lookahead_ns):
        if lookahead_ns < 1:
            raise PartitionError("channel lookahead must be >= 1 ns")
        self.src_part = src_part
        self.dst_part = dst_part
        self.lookahead_ns = lookahead_ns
        self._pending = []
        self._floor = 0

    def __len__(self):
        return len(self._pending)

    def push(self, msg, send_ns):
        """Queue ``msg``, validating the lookahead bound at send time."""
        if msg.deliver_ns < send_ns + self.lookahead_ns:
            raise PartitionError(
                f"message {msg!r} sent at {send_ns} delivers before the "
                f"lookahead bound {send_ns + self.lookahead_ns}"
            )
        if msg.dst_part != self.dst_part:
            raise PartitionError(
                f"message {msg!r} pushed onto channel to partition {self.dst_part}"
            )
        self._pending.append(msg)

    def seal(self, barrier_ns):
        """Close the batch at a window barrier; return its messages.

        Timestamps are *batch-monotonic*: each sealed batch delivers at
        or after its barrier, and barriers never regress.
        """
        if barrier_ns < self._floor:
            raise PartitionError(
                f"channel barrier moved backwards: {barrier_ns} < {self._floor}"
            )
        self._floor = barrier_ns
        batch, self._pending = self._pending, []
        for msg in batch:
            if msg.deliver_ns < barrier_ns:
                raise PartitionError(
                    f"sealed batch at barrier {barrier_ns} contains early "
                    f"message {msg!r}"
                )
        return batch


def merge_due(buffered, window_end):
    """Split a message buffer at a window boundary, canonically ordered.

    Returns ``(due, remaining)``: ``due`` holds every message with
    ``deliver_ns <= window_end`` sorted by the canonical key — the order
    is a pure function of the message *set*, so any arrival order
    (partition visit order, pipe scheduling) merges identically.
    """
    due = []
    remaining = []
    for msg in buffered:
        (due if msg.deliver_ns <= window_end else remaining).append(msg)
    due.sort(key=lambda m: m.sort_key)
    return due, remaining


class Partition:
    """One engine shard: a private Simulator plus the channel endpoints.

    The model registers message handlers by kind and attaches a
    ``harvest`` callable returning the partition's (picklable) results;
    everything in between — local scheduling, per-node state — is plain
    single-engine simulation code.
    """

    def __init__(self, index, num_partitions, lookahead_ns):
        if not 0 <= index < num_partitions:
            raise PartitionError(
                f"partition index {index} outside 0..{num_partitions - 1}"
            )
        self.index = index
        self.num_partitions = num_partitions
        self.lookahead_ns = lookahead_ns
        self.sim = Simulator()
        self._handlers = {}
        self._outboxes = {}
        self._node_seq = {}
        self.messages_sent = 0
        self.messages_injected = 0
        #: Model-provided: () -> picklable partition result.
        self.harvest = _no_harvest

    # -- model-facing API ---------------------------------------------------

    def register(self, kind, handler):
        """Install ``handler(partition, message)`` for a message kind."""
        if kind in self._handlers:
            raise PartitionError(f"handler for {kind!r} already registered")
        self._handlers[kind] = handler

    def next_seq(self, src_node):
        """The next per-sender sequence number (canonical-merge key part).

        Senders draw one per message — channel *and* direct — in
        deterministic send order, so the stream is identical at every
        partition count.
        """
        seq = self._node_seq.get(src_node, 0)
        self._node_seq[src_node] = seq + 1
        return seq

    def send(self, dst_part, kind, payload, src_node, deliver_ns):
        """Send a cross-partition message (also used for self-traffic).

        Every inter-rack interaction goes through a channel — including
        when both racks currently share a partition — so buffering and
        delivery timing are identical at every partition count.
        """
        msg = Message(int(deliver_ns), dst_part, kind, payload, src_node,
                      self.next_seq(src_node))
        outbox = self._outboxes.get(dst_part)
        if outbox is None:
            if not 0 <= dst_part < self.num_partitions:
                raise PartitionError(f"no partition {dst_part}")
            outbox = self._outboxes[dst_part] = Channel(
                self.index, dst_part, self.lookahead_ns
            )
        outbox.push(msg, self.sim.now)
        self.messages_sent += 1
        return msg

    def send_direct(self, kind, payload, src_node, deliver_ns):
        """Deliver an *intra-rack* message by direct local scheduling.

        Below-lookahead latencies are legal here because rack-mates are
        co-partitioned at every partition count; the handler still runs
        through the same dispatch shape as channel messages.
        """
        sim = self.sim
        deliver_ns = int(deliver_ns)
        if deliver_ns <= sim.now:
            raise PartitionError(
                f"direct delivery at {deliver_ns} not after now={sim.now}"
            )
        msg = Message(deliver_ns, self.index, kind, payload, src_node,
                      self.next_seq(src_node))
        handler = self._handlers[kind]
        sim.schedule(deliver_ns - sim.now, _Dispatch(handler, self, msg))
        return msg

    # -- runner-facing API --------------------------------------------------

    def inject(self, msg):
        """Schedule a delivered channel message (runner calls, in canonical
        order, before the window that covers its timestamp runs)."""
        sim = self.sim
        delay = msg.deliver_ns - sim.now
        if delay <= 0:
            raise PartitionError(
                f"late injection: {msg!r} at partition now={sim.now}"
            )
        handler = self._handlers[msg.kind]
        sim.schedule(delay, _Dispatch(handler, self, msg))
        self.messages_injected += 1

    def next_event_ns(self):
        """The timestamp of this partition's earliest pending event, or None."""
        sim = self.sim
        if sim._rbuf or sim._cohort is not None:
            return sim.now
        heap = sim._heap
        if heap:
            return heap[0][0]
        return None

    def advance(self, until_ns):
        """Run the local engine through the window (all events <= until)."""
        self.sim.run(until=until_ns)

    def drain_outboxes(self, barrier_ns):
        """Seal every outbox batch at the window barrier; destinations
        ascending so the flat message list is deterministic."""
        out = []
        for dst in sorted(self._outboxes):
            out.extend(self._outboxes[dst].seal(barrier_ns))
        return out


class _Dispatch:
    """A scheduled handler invocation (cheaper/picklier than a closure)."""

    __slots__ = ("handler", "partition", "msg")

    def __init__(self, handler, partition, msg):
        self.handler = handler
        self.partition = partition
        self.msg = msg

    def __call__(self):
        self.handler(self.partition, self.msg)


def _no_harvest():
    return None


class PartitionedResult:
    """Everything a partitioned run produced.

    ``partition_compute_s[i]`` is the CPU seconds partition ``i`` spent
    building and executing its own events (measured inside the worker in
    ``mp`` mode, around each partition's slice in ``inline`` mode);
    ``coordinator_s`` is the synchronization overhead outside any
    partition.  ``critical_path_s`` — the slowest partition plus the
    coordinator — is the wall time the run would take given one core per
    partition, which is the honest speedup measure on machines with
    fewer cores than partitions.
    """

    __slots__ = ("harvests", "windows", "cross_messages", "events_dispatched",
                 "partitions", "mode", "partition_compute_s", "coordinator_s")

    def __init__(self, harvests, windows, cross_messages, events_dispatched,
                 partitions, mode, partition_compute_s, coordinator_s):
        self.harvests = harvests
        self.windows = windows
        self.cross_messages = cross_messages
        self.events_dispatched = events_dispatched
        self.partitions = partitions
        self.mode = mode
        self.partition_compute_s = partition_compute_s
        self.coordinator_s = coordinator_s

    @property
    def critical_path_s(self):
        peak = max(self.partition_compute_s) if self.partition_compute_s else 0.0
        return peak + self.coordinator_s


def run_partitioned(builder, spec, num_partitions, lookahead_ns,
                    mode="inline", mp_context=None):
    """Run a partitioned simulation to completion.

    ``builder(spec, part_index)`` must be a module-level callable (the
    ``mp`` mode imports it by reference in each worker) returning a
    fully wired :class:`Partition`.  The run ends when no partition has
    pending events and no message is undelivered; the result carries
    each partition's ``harvest()``.
    """
    if num_partitions < 1:
        raise PartitionError("num_partitions must be >= 1")
    if mode == "inline":
        return _run_inline(builder, spec, num_partitions, lookahead_ns)
    if mode == "mp":
        return _run_mp(builder, spec, num_partitions, lookahead_ns, mp_context)
    raise PartitionError(f"unknown mode {mode!r} (use 'inline' or 'mp')")


def _next_window(nexts, buffered_heads, lookahead_ns):
    """The next window bound ``U``, or None when the run is complete.

    ``nexts`` are per-partition next-event times (None when idle);
    ``buffered_heads`` the deliver times of undelivered messages.
    """
    candidates = [t for t in nexts if t is not None]
    candidates.extend(buffered_heads)
    if not candidates:
        return None
    return min(candidates) + lookahead_ns - 1


def _run_inline(builder, spec, num_partitions, lookahead_ns):
    clock = perf_counter
    t_run = clock()
    compute = [0.0] * num_partitions
    partitions = []
    for index in range(num_partitions):
        t0 = clock()
        partitions.append(builder(spec, index))
        compute[index] += clock() - t0
    buffered = []
    windows = 0
    cross = 0
    while True:
        window_end = _next_window(
            [p.next_event_ns() for p in partitions],
            [m.deliver_ns for m in buffered],
            lookahead_ns,
        )
        if window_end is None:
            break
        windows += 1
        due, buffered = merge_due(buffered, window_end)
        per_part = [[] for _ in range(num_partitions)]
        for msg in due:
            per_part[msg.dst_part].append(msg)
        barrier = window_end + 1
        for partition, mine in zip(partitions, per_part):
            # A message drained this window delivers past window_end
            # (lookahead), so injecting/advancing partitions one at a
            # time cannot starve a later partition of due messages.
            t0 = clock()
            for msg in mine:
                partition.inject(msg)
            partition.advance(window_end)
            drained = partition.drain_outboxes(barrier)
            compute[partition.index] += clock() - t0
            for msg in drained:
                buffered.append(msg)
                if msg.dst_part != partition.index:
                    cross += 1
    coordinator = max(0.0, (clock() - t_run) - sum(compute))
    return PartitionedResult(
        harvests=[p.harvest() for p in partitions],
        windows=windows,
        cross_messages=cross,
        events_dispatched=sum(p.sim.events_dispatched for p in partitions),
        partitions=num_partitions,
        mode="inline",
        partition_compute_s=compute,
        coordinator_s=coordinator,
    )


# -- multiprocessing mode ----------------------------------------------------

def _revive(states):
    """Rebuild messages from the plain state tuples shipped over pipes.

    Custom-object pickling costs several times a tuple's; at tens of
    thousands of cross-partition messages per run the difference is the
    bulk of the coordinator's overhead.
    """
    out = []
    for state in states:
        msg = Message.__new__(Message)
        msg.__setstate__(state)
        out.append(msg)
    return out


def _fold_next(next_ns, local):
    """A partition's next relevant time: local events or buffered self-traffic."""
    if not local:
        return next_ns
    head = min(m.deliver_ns for m in local)
    if next_ns is None or head < next_ns:
        return head
    return next_ns


def _partition_worker(conn, builder, spec, index):
    """Worker-process main: build the partition, then serve window rounds.

    Self-channel messages (cross-rack traffic between racks that share
    this partition) never cross the pipe: the worker buffers them
    locally, folds their earliest delivery into the next-event time it
    reports, and merges them with the coordinator's incoming batch at
    each window — the injection set and order are identical to the
    inline runner's, without paying IPC for intra-partition traffic.
    """
    try:
        t0 = perf_counter()
        partition = builder(spec, index)
        compute = perf_counter() - t0
        local = []
        conn.send(("ready", partition.next_event_ns()))
        while True:
            op = conn.recv()
            if op[0] == "window":
                t0 = perf_counter()
                _tag, window_end, incoming = op
                due, local = merge_due(local, window_end)
                due.extend(_revive(incoming))
                due.sort(key=lambda m: m.sort_key)
                for msg in due:
                    partition.inject(msg)
                partition.advance(window_end)
                ship = []
                for msg in partition.drain_outboxes(window_end + 1):
                    if msg.dst_part == index:
                        local.append(msg)
                    else:
                        ship.append(msg.__getstate__())
                compute += perf_counter() - t0
                conn.send(("ok",
                           _fold_next(partition.next_event_ns(), local),
                           ship))
            elif op[0] == "finish":
                conn.send(("result", partition.harvest(),
                           partition.sim.events_dispatched, compute))
                return
            else:  # pragma: no cover - protocol misuse
                raise PartitionError(f"unknown op {op[0]!r}")
    except BaseException as err:  # noqa: BLE001 - forwarded to the coordinator
        import traceback

        try:
            conn.send(("error", f"{err!r}\n{traceback.format_exc()}"))
        except Exception:  # pragma: no cover - pipe already gone
            pass
        raise


def _run_mp(builder, spec, num_partitions, lookahead_ns, mp_context):
    import multiprocessing

    if mp_context is None:
        try:
            ctx = multiprocessing.get_context("fork")
        except ValueError:  # pragma: no cover - non-POSIX fallback
            ctx = multiprocessing.get_context("spawn")
    else:
        ctx = multiprocessing.get_context(mp_context)

    conns = []
    procs = []
    t_run = perf_counter()
    blocked = 0.0
    try:
        for index in range(num_partitions):
            parent, child = ctx.Pipe()
            proc = ctx.Process(
                target=_partition_worker,
                args=(child, builder, spec, index),
                name=f"partition-{index}",
            )
            proc.start()
            child.close()
            conns.append(parent)
            procs.append(proc)

        nexts = []
        for conn in conns:
            t0 = perf_counter()
            reply = _recv(conn)
            blocked += perf_counter() - t0
            nexts.append(reply[1])

        buffered = []
        windows = 0
        cross = 0
        while True:
            window_end = _next_window(
                nexts, [m.deliver_ns for m in buffered], lookahead_ns
            )
            if window_end is None:
                break
            windows += 1
            due, buffered = merge_due(buffered, window_end)
            per_part = [[] for _ in range(num_partitions)]
            for msg in due:
                per_part[msg.dst_part].append(msg.__getstate__())
            for conn, states in zip(conns, per_part):
                conn.send(("window", window_end, states))
            for index, conn in enumerate(conns):
                t0 = perf_counter()
                reply = _recv(conn)
                blocked += perf_counter() - t0
                nexts[index] = reply[1]
                buffered.extend(_revive(reply[2]))
            cross += len(due)

        harvests = []
        events = 0
        compute = []
        for conn in conns:
            conn.send(("finish",))
        for conn in conns:
            t0 = perf_counter()
            reply = _recv(conn)
            blocked += perf_counter() - t0
            harvests.append(reply[1])
            events += reply[2]
            compute.append(reply[3])
        # Coordinator overhead is the loop's wall time minus time spent
        # blocked on worker pipes; with one core per partition that is
        # the only serial component on top of the slowest partition.
        coordinator = max(0.0, (perf_counter() - t_run) - blocked)
        return PartitionedResult(
            harvests=harvests,
            windows=windows,
            cross_messages=cross,
            events_dispatched=events,
            partitions=num_partitions,
            mode="mp",
            partition_compute_s=compute,
            coordinator_s=coordinator,
        )
    finally:
        for conn in conns:
            conn.close()
        for proc in procs:
            proc.join(timeout=30)
            if proc.is_alive():  # pragma: no cover - stuck worker
                proc.terminate()
                proc.join()


def _recv(conn):
    reply = conn.recv()
    if reply[0] == "error":
        raise PartitionError(f"partition worker failed:\n{reply[1]}")
    return reply


__all__ = [
    "Channel",
    "Message",
    "Partition",
    "PartitionError",
    "PartitionedResult",
    "merge_due",
    "run_partitioned",
]
