"""ServerlessBench TestCase5: pass a payload between two functions (§5.3.2).

The receiver function runs on a separate machine and starts *after* the
sender finishes execution (the paper's setup).  The measured quantity is
the data-transfer time: everything from the receiver being ready to the
payload landing in its buffer -- which, over verbs, is dominated by both
sides' RDMA control paths (~33 ms), and over KRCORE collapses to tens of
microseconds (a 99% reduction, Fig 12b).
"""

from repro.cluster import timing
from repro.krcore import KrcoreLib
from repro.verbs import (
    ConnectionManager,
    DriverContext,
    RecvBuffer,
    WorkRequest,
)
from repro.verbs.connection import rc_connect

_PORT = 55


class TransferResult:
    """Timing breakdown of one TestCase5 run."""

    __slots__ = ("payload_bytes", "transfer_ns", "receiver_setup_ns", "sender_setup_ns", "send_ns")

    def __init__(self, payload_bytes, transfer_ns, receiver_setup_ns, sender_setup_ns, send_ns):
        self.payload_bytes = payload_bytes
        self.transfer_ns = transfer_ns
        self.receiver_setup_ns = receiver_setup_ns
        self.sender_setup_ns = sender_setup_ns
        self.send_ns = send_ns


def run_transfer_testcase(sim, sender_node, receiver_node, payload_bytes, backend):
    """Process: one message pass; returns a :class:`TransferResult`.

    ``backend`` is "verbs" or "krcore" (the receiver node must run the
    matching stack: a ConnectionManager for verbs, a KRCORE module for
    krcore).
    """
    if backend == "verbs":
        result = yield from _verbs_transfer(sim, sender_node, receiver_node, payload_bytes)
    elif backend == "krcore":
        result = yield from _krcore_transfer(sim, sender_node, receiver_node, payload_bytes)
    else:
        raise ValueError(f"unknown backend {backend!r}")
    return result


def _verbs_transfer(sim, sender_node, receiver_node, payload_bytes):
    start = sim.now
    # --- receiver side: a fresh process must build its whole RDMA stack ---
    recv_ctx = DriverContext(receiver_node)
    yield from recv_ctx.ensure_init()
    recv_cq = yield from recv_ctx.create_cq()
    recv_pd = recv_ctx.alloc_pd()
    recv_addr = receiver_node.memory.alloc(payload_bytes)
    recv_mr = yield from recv_pd.reg_mr(recv_addr, payload_bytes)
    manager = receiver_node.services[ConnectionManager.SERVICE]
    accepted = []

    def on_accept(qp, gid):
        qp.send_cq = recv_cq
        qp.recv_cq = recv_cq
        qp.post_recv(RecvBuffer(recv_addr, payload_bytes, recv_mr.lkey))
        accepted.append(qp)

    manager.listen(_PORT, on_accept)
    receiver_ready = sim.now

    # --- sender side ---
    send_ctx = DriverContext(sender_node)
    yield from send_ctx.ensure_init()
    send_cq = yield from send_ctx.create_cq()
    send_pd = send_ctx.alloc_pd()
    send_addr = sender_node.memory.alloc(payload_bytes)
    send_mr = yield from send_pd.reg_mr(send_addr, payload_bytes)
    qp = yield from rc_connect(send_ctx, send_cq, receiver_node.gid, port=_PORT)
    # Wait until the receiver's accept path posted its buffer.
    while not accepted:
        yield 10_000
    sender_ready = sim.now
    yield timing.POST_SEND_CPU_NS
    qp.post_send(WorkRequest.send(send_addr, payload_bytes, send_mr.lkey))
    completions = yield from recv_cq.wait_poll()
    assert completions[0].byte_len == payload_bytes
    done = sim.now
    manager.unlisten(_PORT)
    return TransferResult(
        payload_bytes,
        transfer_ns=done - start,
        receiver_setup_ns=receiver_ready - start,
        sender_setup_ns=sender_ready - receiver_ready,
        send_ns=done - sender_ready,
    )


def _krcore_transfer(sim, sender_node, receiver_node, payload_bytes):
    start = sim.now
    # --- receiver: qbind + post_recv (microseconds) ---
    recv_lib = KrcoreLib(receiver_node)
    recv_vqp = yield from recv_lib.create_vqp()
    yield from recv_lib.qbind(recv_vqp, _PORT)
    recv_addr = receiver_node.memory.alloc(payload_bytes)
    recv_mr = yield from recv_lib.reg_mr(recv_addr, payload_bytes)
    yield from recv_lib.post_recv(
        recv_vqp, RecvBuffer(recv_addr, payload_bytes, recv_mr.lkey)
    )
    receiver_ready = sim.now

    # --- sender: qconnect + SEND ---
    send_lib = KrcoreLib(sender_node)
    send_addr = sender_node.memory.alloc(payload_bytes)
    send_mr = yield from send_lib.reg_mr(send_addr, payload_bytes)
    send_vqp = yield from send_lib.create_vqp()
    yield from send_lib.qconnect(send_vqp, receiver_node.gid, _PORT)
    sender_ready = sim.now
    yield from send_lib.post_send(
        send_vqp, WorkRequest.send(send_addr, payload_bytes, send_mr.lkey)
    )
    results = yield from recv_lib.qpop_msgs_wait(recv_vqp)
    assert results and results[0][1].byte_len == payload_bytes
    done = sim.now
    # The receiver function exits: drop its VQPs (which also frees the
    # port for reruns).  The sender's stays -- its SEND completion is still
    # on the wire and nobody is left to reap it.
    recv_lib.module.destroy_vqp(results[0][0])
    recv_lib.module.destroy_vqp(recv_vqp)
    return TransferResult(
        payload_bytes,
        transfer_ns=done - start,
        receiver_setup_ns=receiver_ready - start,
        sender_setup_ns=sender_ready - receiver_ready,
        send_ns=done - sender_ready,
    )
