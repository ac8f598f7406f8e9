"""Conservative-lookahead windows over engine shards, run inline.

A run is split into *partitions*, each a private engine instance, that
interact only through *channels*, synchronized by the classic
conservative (bounded-window) protocol:

* **Lookahead.**  Every channel message must be delivered at least
  ``lookahead_ns`` after it was sent.

* **Windows.**  Let ``T`` be the global minimum next-event time over
  all partitions and all undelivered messages.  Every partition may
  safely execute all events with timestamp ``<= T + lookahead - 1``:
  any message generated inside that window is sent at ``>= T`` and
  therefore delivers at ``>= T + lookahead``, strictly after the
  window.  Each round advances simulated time by at least
  ``lookahead_ns``.

* **Deterministic merge.**  Messages buffered for a window are injected
  *before* the window runs, sorted by the canonical key
  ``(deliver_ns, src_node, seq)``.  Because a message for timestamp
  ``t`` can only be produced in a window that ends before ``t``, every
  message for ``t`` is known (and injected, in canonical order) before
  any event at ``t`` runs -- delivery order is a pure function of the
  message set, independent of partition visit order.

Partitions run one after another in this process.  No model of the
cluster runs on this layer (DESIGN.md §15 says why); it is kept for the
``sim.partition_window_us`` microbenchmark of
``benchmarks/observatory/micro.py``, which times one window of a
two-partition ping-pong.
"""

from repro.sim.engine import SimulationError, Simulator


class PartitionError(SimulationError):
    """A violation of the inter-partition channel protocol."""


class Message:
    """One typed cross-partition event.

    ``src_node``/``seq`` make the canonical merge key: per-sender
    sequence numbers are assigned in deterministic send order, so
    ``(deliver_ns, src_node, seq)`` totally orders any message set.
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
    merges identically.
    """
    due = []
    remaining = []
    for msg in buffered:
        (due if msg.deliver_ns <= window_end else remaining).append(msg)
    due.sort(key=lambda m: m.sort_key)
    return due, remaining


class Partition:
    """One engine shard: a private Simulator plus the channel endpoints.

    The model registers message handlers by kind; everything else --
    local scheduling, per-node state -- is plain single-engine
    simulation code on ``sim``.
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

    # -- model-facing API ---------------------------------------------------

    def register(self, kind, handler):
        """Install ``handler(partition, message)`` for a message kind."""
        if kind in self._handlers:
            raise PartitionError(f"handler for {kind!r} already registered")
        self._handlers[kind] = handler

    def next_seq(self, src_node):
        """The next per-sender sequence number (canonical-merge key part).

        Senders draw one per message in deterministic send order.
        """
        seq = self._node_seq.get(src_node, 0)
        self._node_seq[src_node] = seq + 1
        return seq

    def send(self, dst_part, kind, payload, src_node, deliver_ns):
        """Send a message to partition ``dst_part`` (which may be this
        one) through the channel, delivering at ``deliver_ns``."""
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
    """A scheduled handler invocation (cheaper than a closure)."""

    __slots__ = ("handler", "partition", "msg")

    def __init__(self, handler, partition, msg):
        self.handler = handler
        self.partition = partition
        self.msg = msg

    def __call__(self):
        self.handler(self.partition, self.msg)


class PartitionedResult:
    """What a partitioned run counted: synchronization ``windows`` and
    ``cross_messages`` between distinct partitions."""

    __slots__ = ("windows", "cross_messages")

    def __init__(self, windows, cross_messages):
        self.windows = windows
        self.cross_messages = cross_messages


def run_partitioned(builder, spec, num_partitions, lookahead_ns,
                    mode="inline"):
    """Run a partitioned simulation to completion, inline.

    ``builder(spec, part_index)`` returns a fully wired
    :class:`Partition`.  The run ends when no partition has pending
    events and no message is undelivered.

    ``mode`` accepts only ``"inline"``: the frozen microbenchmark passes
    it, and the multi-process mode it once chose between is gone (one
    core cannot run partitions in parallel).  Any other value raises
    :class:`PartitionError`.
    """
    if num_partitions < 1:
        raise PartitionError("num_partitions must be >= 1")
    if mode != "inline":
        raise PartitionError(f"unknown mode {mode!r}: only 'inline' runs")
    partitions = [builder(spec, index) for index in range(num_partitions)]
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
            for msg in mine:
                partition.inject(msg)
            partition.advance(window_end)
            for msg in partition.drain_outboxes(barrier):
                buffered.append(msg)
                if msg.dst_part != partition.index:
                    cross += 1
    return PartitionedResult(windows=windows, cross_messages=cross)


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


__all__ = [
    "Channel",
    "Message",
    "Partition",
    "PartitionError",
    "PartitionedResult",
    "merge_due",
    "run_partitioned",
]
