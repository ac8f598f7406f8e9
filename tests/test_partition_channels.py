"""Unit tests for the inline partitioned engine and its channel layer.

The window loop's correctness rests on three local properties —
per-message lookahead at ``push``, batch monotonicity at ``seal``, and
the canonical ``(deliver_ns, src_node, seq)`` merge order.  Each is
pinned here directly, plus a two-partition ping-pong end to end.
"""

import itertools

import pytest

from repro.sim.partition import (
    Channel,
    Message,
    Partition,
    PartitionError,
    merge_due,
    run_partitioned,
)
from repro.sim.partition import _next_window


def _msg(deliver_ns, dst_part=0, src_node=0, seq=0, kind="k", payload=None):
    return Message(deliver_ns, dst_part, kind, payload, src_node, seq)


# -- Message ----------------------------------------------------------------

def test_message_sort_key_is_deliver_then_sender_then_seq():
    msgs = [
        _msg(20, src_node=1, seq=0),
        _msg(10, src_node=9, seq=5),
        _msg(20, src_node=0, seq=3),
        _msg(20, src_node=0, seq=1),
    ]
    ordered = sorted(msgs, key=lambda m: m.sort_key)
    assert [(m.deliver_ns, m.src_node, m.seq) for m in ordered] == [
        (10, 9, 5), (20, 0, 1), (20, 0, 3), (20, 1, 0),
    ]


# -- Channel ----------------------------------------------------------------

def test_channel_rejects_sub_lookahead_message():
    channel = Channel(0, 1, lookahead_ns=100)
    channel.push(_msg(100, dst_part=1), send_ns=0)  # exactly at the bound: ok
    with pytest.raises(PartitionError):
        channel.push(_msg(99, dst_part=1), send_ns=0)
    with pytest.raises(PartitionError):
        channel.push(_msg(149, dst_part=1), send_ns=50)


def test_channel_rejects_misrouted_message():
    channel = Channel(0, 1, lookahead_ns=10)
    with pytest.raises(PartitionError):
        channel.push(_msg(50, dst_part=2), send_ns=0)


def test_channel_requires_positive_lookahead():
    with pytest.raises(PartitionError):
        Channel(0, 1, lookahead_ns=0)


def test_channel_seal_returns_batch_and_clears():
    channel = Channel(0, 1, lookahead_ns=10)
    channel.push(_msg(30, dst_part=1, seq=0), send_ns=0)
    channel.push(_msg(20, dst_part=1, seq=1), send_ns=5)
    batch = channel.seal(barrier_ns=20)
    assert [m.deliver_ns for m in batch] == [30, 20]  # send order, unsorted
    assert len(channel) == 0
    assert channel.seal(barrier_ns=20) == []


def test_channel_barriers_are_monotonic():
    channel = Channel(0, 1, lookahead_ns=10)
    channel.seal(barrier_ns=100)
    channel.seal(barrier_ns=100)  # equal barrier is fine
    with pytest.raises(PartitionError):
        channel.seal(barrier_ns=99)


def test_channel_seal_rejects_early_message():
    channel = Channel(0, 1, lookahead_ns=10)
    channel.push(_msg(50, dst_part=1), send_ns=0)
    with pytest.raises(PartitionError):
        channel.seal(barrier_ns=51)


# -- merge_due --------------------------------------------------------------

def test_merge_due_splits_and_orders_canonically():
    buffered = [
        _msg(30, src_node=2, seq=0),
        _msg(10, src_node=1, seq=1),
        _msg(10, src_node=1, seq=0),
        _msg(20, src_node=0, seq=0),
    ]
    due, remaining = merge_due(buffered, window_end=20)
    assert [(m.deliver_ns, m.src_node, m.seq) for m in due] == [
        (10, 1, 0), (10, 1, 1), (20, 0, 0),
    ]
    assert [m.deliver_ns for m in remaining] == [30]


def test_merge_due_is_arrival_order_independent():
    msgs = [
        _msg(10, src_node=0, seq=0),
        _msg(10, src_node=1, seq=0),
        _msg(15, src_node=0, seq=1),
        _msg(25, src_node=1, seq=1),
    ]
    reference = None
    for perm in itertools.permutations(msgs):
        due, remaining = merge_due(list(perm), window_end=15)
        key = ([m.sort_key for m in due], sorted(m.sort_key for m in remaining))
        if reference is None:
            reference = key
        assert key == reference


# -- Partition --------------------------------------------------------------

def test_partition_index_bounds():
    with pytest.raises(PartitionError):
        Partition(2, 2, lookahead_ns=10)
    with pytest.raises(PartitionError):
        Partition(-1, 2, lookahead_ns=10)


def test_partition_rejects_duplicate_handler():
    partition = Partition(0, 1, lookahead_ns=10)
    partition.register("k", lambda p, m: None)
    with pytest.raises(PartitionError):
        partition.register("k", lambda p, m: None)


def test_partition_per_sender_seq_streams_are_independent():
    partition = Partition(0, 1, lookahead_ns=10)
    assert [partition.next_seq(5) for _ in range(3)] == [0, 1, 2]
    assert partition.next_seq(9) == 0
    assert partition.next_seq(5) == 3


def test_partition_send_validates_destination():
    partition = Partition(0, 2, lookahead_ns=10)
    partition.send(1, "k", None, src_node=0, deliver_ns=10)
    with pytest.raises(PartitionError):
        partition.send(2, "k", None, src_node=0, deliver_ns=10)


def test_partition_inject_rejects_late_message():
    partition = Partition(0, 1, lookahead_ns=10)
    partition.register("k", lambda p, m: None)
    with pytest.raises(PartitionError):
        partition.inject(_msg(0, kind="k"))


def test_partition_next_event_time():
    partition = Partition(0, 1, lookahead_ns=10)
    assert partition.next_event_ns() is None
    partition.sim.schedule(25, lambda: None)
    assert partition.next_event_ns() == 25
    partition.advance(30)
    assert partition.next_event_ns() is None
    assert partition.sim.now == 30


def test_partition_next_event_sees_ready_work():
    hits = []
    partition = Partition(0, 1, lookahead_ns=10)
    partition.sim.schedule(5, lambda: partition.sim.schedule(0, lambda: hits.append(1)))
    partition.sim.run(until=5)
    # There may be same-timestamp work left in the ready stage; the
    # partition must report it so the window loop does not starve it.
    assert partition.next_event_ns() in (5, None)
    partition.sim.run()
    assert hits == [1]


def test_drain_outboxes_visits_destinations_ascending():
    partition = Partition(1, 4, lookahead_ns=10)
    partition.send(3, "k", None, src_node=0, deliver_ns=10)
    partition.send(0, "k", None, src_node=0, deliver_ns=10)
    partition.send(2, "k", None, src_node=0, deliver_ns=10)
    drained = partition.drain_outboxes(barrier_ns=10)
    assert [m.dst_part for m in drained] == [0, 2, 3]


# -- window math ------------------------------------------------------------

def test_next_window_over_partitions_and_messages():
    assert _next_window([None, None], [], 100) is None
    assert _next_window([50, None], [], 100) == 149
    assert _next_window([50, 30], [40], 100) == 129
    assert _next_window([None], [70], 100) == 169


def test_run_partitioned_validates_arguments():
    with pytest.raises(PartitionError):
        run_partitioned(lambda spec, i: None, None, 0, 100)
    with pytest.raises(PartitionError):
        run_partitioned(lambda spec, i: None, None, 1, 100, mode="threads")
    with pytest.raises(PartitionError):
        run_partitioned(lambda spec, i: None, None, 1, 100, mode="mp")


# -- a minimal two-partition model ------------------------------------------

def _build_pingpong(spec, index):
    """Two partitions volley one message back and forth ``rounds`` times,
    appending ``(now, ball)`` to the shared ``log`` at each delivery."""
    rounds, log = spec
    partition = Partition(index, 2, lookahead_ns=100)

    def on_ball(part, msg):
        log.append((part.sim.now, msg.payload))
        if msg.payload < rounds:
            part.send(1 - part.index, "ball", msg.payload + 1,
                      src_node=part.index, deliver_ns=part.sim.now + 100)

    partition.register("ball", on_ball)
    if index == 0:
        def serve():
            partition.send(1, "ball", 0, src_node=0,
                           deliver_ns=partition.sim.now + 100)
        partition.sim.schedule(1, serve)
    return partition


def test_pingpong_inline_end_to_end():
    log = []
    result = run_partitioned(_build_pingpong, (6, log), 2, 100, mode="inline")
    # Delivery order: strict alternation, every hop pays exactly one
    # lookahead.
    assert log == [(101 + 100 * i, i) for i in range(7)]
    assert result.cross_messages == 7
    # The serve event's window, then one window per delivery.
    assert result.windows == 8

