"""Oracle for the DCT target's stocked shared receive queue.

A kernel module used to post its SRQ stock as 192 ``RecvBuffer``s built at
load; ``DctTarget.stock_srq`` posts the same run unbuilt and builds each
buffer when a claim reaches it (DESIGN.md §17 "A node at rest").  The claim
is that an inbound message cannot tell: the slot it lands in, and whether it
is RNR-NAKed instead, are those of one list stocked up front -- the stock
first and in order, what was posted later behind it, an oversize message
stuck at the head until something smaller takes the buffer.

Random sequences of claims (small and oversize), re-posts of claimed slots
and drains to RNR go through both; every outcome must be equal, and the
stocked queue may only ever have built the buffers it handed out plus the
one at its head.  A second test runs the module's own receive path dry
with a pool small enough for the stock to end and re-posted slots to come
round.  A third drains a burst larger than the reserve and requires the
SRQ back at its stocked depth.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import Cluster
from repro.krcore import KrcoreError, KrcoreLib
from repro.sim import Simulator
from repro.verbs import RecvBuffer, WorkRequest
from repro.verbs.qp import DctTarget
from tests.conftest import krcore_cluster

#: Buffer lengths by slot: most take a "small" message (64 B), some only a
#: tiny one, so an arriving small message can find an undersized head.
LENGTHS = (64, 64, 16, 64, 8, 64, 64, 16)
SMALL, TINY, HUGE = 64, 8, 4096


def _build(built, slot):
    built.append(slot)
    return RecvBuffer(slot * 64, LENGTHS[slot % len(LENGTHS)], lkey=1, wr_id=slot)


def _claim(buffers, payload_len):
    """``_Flight._deliver``'s test and claim, on a list or a target's SRQ:
    the buffer the message lands in, or None for an RNR NAK."""
    if not buffers or payload_len > buffers[0].length:
        return None
    return buffers.pop(0)


OPS = st.lists(
    st.one_of(
        st.tuples(st.just("claim"), st.sampled_from((SMALL, SMALL, TINY, HUGE))),
        st.tuples(st.just("post"), st.integers(min_value=0, max_value=7)),
        st.tuples(st.just("drain"), st.just(TINY)),
    ),
    max_size=60,
)


@settings(max_examples=300, deadline=None)
@given(stock=st.integers(min_value=0, max_value=12), ops=OPS)
def test_stocked_srq_claims_like_a_fully_stocked_deque(stock, ops):
    built = []
    target = DctTarget(Cluster(Simulator(), num_nodes=1).node(0), 7)
    target.stock_srq(range(stock), lambda slot: _build(built, slot))
    stocked = [_build([], slot) for slot in range(stock)]
    reference = list(stocked)
    held = []  # slots claimed and not re-posted yet
    stock_claims = 0
    for kind, arg in ops:
        if kind == "post":
            if not held:
                continue
            slot = held.pop(arg % len(held))
            for post in (target.post_srq, reference.append):
                post(_build([], slot))
            continue
        while True:
            got, expected = _claim(target.srq, arg), _claim(reference, arg)
            assert (got is None) == (expected is None)
            if got is None:
                break
            assert (got.wr_id, got.length) == (expected.wr_id, expected.length)
            held.append(got.wr_id)
            stock_claims += expected in stocked
            if kind == "claim":
                break
        # Built in slot order, and never further than the head.
        assert built == list(range(len(built)))
        assert stock_claims <= len(built) <= min(stock_claims + 1, stock)


def test_module_receive_path_runs_the_stock_out_and_rnrs_when_dry():
    """8 kernel buffers: 6 stocked, 2 in reserve.  A message to an unbound
    port is dropped and its slot freed at once, so a long stream claims
    0..5, then the re-posted slots in the order the dispatcher posted them.
    Messages to a bound port nobody pops hold their slots: the ninth finds
    the SRQ dry and the sender's RNR budget runs out."""
    sim = Simulator()
    cluster, _meta, modules = krcore_cluster(sim, num_nodes=3, kernel_buf_count=8)
    sender, receiver = modules[1], modules[2]
    claimed = []
    route = receiver.messaging._route_message

    def recording_route(wc, qp):
        claimed.append(wc.wr_id)
        route(wc, qp)

    receiver.messaging._route_message = recording_route

    def stream(count, port):
        for _ in range(count):
            yield from sender.messaging.send_kernel_msg(receiver.node.gid, {"dst_port": port})

    sim.run_process(stream(20, port=99))
    # Each arrival posts the oldest free slot behind the stock: the reserve
    # (6, 7), then the slots just freed, in the order they were freed.
    assert claimed == [0, 1, 2, 3, 4, 5, 6, 7, 0, 1, 2, 3, 4, 5, 6, 7, 0, 1, 2, 3]

    del claimed[:]
    receiver.messaging.bind(7, receiver.create_vqp())
    with pytest.raises(KrcoreError, match="RNR"):
        sim.run_process(stream(9, port=7))
    assert claimed == [4, 5, 6, 7, 0, 1, 2, 3]


def _srq_depth(target):
    """How many claims the target's SRQ can still serve (drains it)."""
    depth = 0
    while target.srq:
        target.srq.pop(0)
        depth += 1
    return depth


def test_a_drained_burst_larger_than_the_reserve_restocks_the_srq():
    """200 messages to a bound port outrun the 64-slot reserve: the last
    136 arrivals find no free slot to restock the SRQ with, and it sinks
    to 56.  Each slot qpop_msgs frees goes to the SRQ it is owed to before
    the pool, so a drained burst leaves the SRQ at its stocked 192 and the
    reserve whole (it used to stay 56 deep, with 200 slots idle)."""
    burst = 200
    sim = Simulator()
    cluster, _meta, modules = krcore_cluster(sim, num_nodes=3, background_rc=False)
    client, server = cluster.node(1), cluster.node(2)
    lib_c, lib_s = KrcoreLib(client), KrcoreLib(server)

    def proc():
        saddr = server.memory.alloc(64 * burst)
        smr = yield from lib_s.reg_mr(saddr, 64 * burst)
        caddr = client.memory.alloc(64)
        cmr = yield from lib_c.reg_mr(caddr, 64)
        bound = yield from lib_s.create_vqp()
        yield from lib_s.qbind(bound, 13)
        for i in range(burst):
            yield from lib_s.post_recv(bound, RecvBuffer(saddr + 64 * i, 64, smr.lkey))
        sender = yield from lib_c.create_vqp()
        yield from lib_c.qconnect(sender, server.gid, 13)
        wrs = [WorkRequest.send(caddr, 8, cmr.lkey, signaled=False) for _ in range(burst)]
        yield from lib_c.post_send(sender, wrs)
        yield 1_000_000  # every message lands before the first pop
        popped = 0
        while popped < burst:
            popped += len((yield from lib_s.post_and_qpop(bound, [])))

    sim.run_process(proc())
    messaging = modules[2].messaging
    assert list(messaging.owed) == []
    assert len(messaging.free_slots) == 64
    assert _srq_depth(modules[2].dct_target) == 192
