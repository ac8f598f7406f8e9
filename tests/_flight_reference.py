"""A frozen copy of the generator flight, the WR path up to PR 15.

Until PR 16 one work request's life on the network was a ``Process``
driving the generator ``QueuePair._flight`` (nesting ``_execute_remote``,
``_deliver_send`` / ``_deliver_imm``, ``_serve_duplicate`` and
``Rnic.serve_inbound``).  ``repro.verbs.qp._Flight`` replaced it with a
state machine on timer records that must push every record at the instant
and in the order the generator did.  This file keeps the generator, copied
from the parent commit with ``self`` spelled ``qp``, as the *oracle* for
that claim: ``tests/test_flight_oracle.py`` swaps it in for ``_Flight``
(``monkeypatch.setattr(repro.verbs.qp, "_Flight", GeneratorFlight)`` --
there is no second path in ``src/``) and compares whole timelines.

``GeneratorFlight`` is the adapter: what ``_sender_loop`` and
``_enter_error`` ask of a flight (construct, ``_issue()`` in the sender's
context, ``_issue_queued()`` for the start record kept under link faults,
``_flush()`` for a WR that is never issued) and ``_start_inline``, what
``Simulator.process(inline=True)`` did before it went with its one user.

Do not modernize the generator; its value is that it does not change.
"""

from repro.check import hooks as _check
from repro.cluster import timing
from repro.cluster.memory import MemoryError_
from repro.obs import metrics as _metrics
from repro.obs import trace as _trace
from repro.sim import Event, Process
from repro.verbs.cq import Completion
from repro.verbs.qp import _responder_service_ns
from repro.verbs.types import (
    ATOMIC_OPCODES,
    OP_CAS,
    OP_READ,
    OP_READ_V,
    OP_RECV,
    OP_RECV_IMM,
    OP_SEND,
    OP_WRITE,
    OP_WRITE_IMM,
    PAYLOAD_OPCODES,
    POSTABLE_OPCODES,
    QPS_ERR,
    QPT_DC,
    QPT_RC,
    QPT_UD,
    WC_BAD_OPCODE_ERR,
    WC_FLUSH_ERR,
    WC_LOC_PROT_ERR,
    WC_REM_ACCESS_ERR,
    WC_RETRY_EXC_ERR,
    WC_RNR_ERR,
    WC_RNR_RETRY_EXC_ERR,
    WC_SUCCESS,
)


class GeneratorFlight:
    """Drop-in for ``repro.verbs.qp._Flight``, driven by the generator."""

    __slots__ = ("qp", "wr", "ticket")
    _wait_gen = 1

    def __init__(self, qp, wr, ticket):
        self.qp = qp
        self.wr = wr
        self.ticket = ticket

    def _issue(self):
        _start_inline(self.qp.sim, _flight(self.qp, self.wr, self.ticket))

    def _issue_queued(self):
        self.qp.sim.wake(self)

    def _resume(self, _value, _exc):
        self._issue()

    def _flush(self):
        _start_inline(self.qp.sim, _flushed(self.qp, self.wr, self.ticket))


def _start_inline(sim, gen):
    """Run ``gen`` as a process to its first yield right here, with no
    start record: ``Process(sim, gen, name, inline=True)`` of PRs 13-15."""
    process = Process.__new__(Process)
    process.sim = sim
    process.name = "flight"
    process._gen = gen
    process._send = gen.send
    process._throw = gen.throw
    process._done = Event(sim)
    process._interrupts = None
    process._wait_gen = 0
    process._resume(None, None)


def _flushed(qp, wr, ticket):
    """A WR flushed off the send queue of an ERR QP.  *Not* the parent's
    behaviour: it completed such a WR at once, ahead of predecessors still
    in flight (fixed in PR 16, its own commit).  This is the tail of
    ``_flight`` below entered with FLUSH_ERR, so that the oracle goes on
    comparing the flights themselves."""
    if qp._completed != ticket - 1:
        waits = qp._order_waits
        if waits is None:
            waits = qp._order_waits = {}
        parked = waits[ticket] = qp.sim.event()
        yield parked
    qp._complete(wr, WC_FLUSH_ERR)
    qp._completed = ticket
    if qp._order_waits:
        successor = qp._order_waits.pop(ticket + 1, None)
        if successor is not None:
            successor.trigger(None)


def _receiver_qpn(qp, wr):
    if qp.qp_type is QPT_RC:
        return qp.remote[1]
    return wr.dct_number  # UD: dct_number doubles as the target QPN


def _serve_inbound(rnic, service_ns):
    """Process: one op through the responder -- queue wait, service
    (``Rnic.inbound_admit``) and pipeline latency are one timer."""
    _start, end = rnic.inbound_admit(service_ns)
    yield end - rnic.sim.now + timing.NIC_RESPONDER_PIPELINE_NS


def _flight(qp, wr, ticket):
    """One WR's life on the network, ending with in-order completion.

    Started inline by ``_sender_loop`` (through a start record while
    any link fault is installed) and resumed once per *timed* hop
    only -- request wire, responder (queue wait + occupancy +
    pipeline, one timer: ``Rnic.inbound_admit`` tells the flight on
    arrival when its service ends), response wire + RX completion
    (DESIGN.md §17 has the table).  A step that would merely re-queue
    the generator at the same nanosecond runs synchronously instead:
    the start, the in-order check when the predecessor has already
    completed.

    READ and WRITE are processed right here rather than through
    ``_execute_remote`` + ``Rnic.serve_inbound`` (same occupancy model),
    so that no nested ``yield from`` frame is traversed on their resumes.

    The attempt loop is the retransmission machinery: a lost packet or
    unreachable responder burns one ``timeout_ns`` wait per retry; an
    RNR NAK burns ``rnr_timer_ns`` per ``rnr_retry``.  Everything up
    to the request's wire time -- local-SGE validation, payload
    fetch, link-fault draws -- reruns at the start of every attempt.
    The fault-free path runs the loop body exactly once and consults
    the fabric's fault table only when it is non-empty.
    """
    status = WC_SUCCESS
    byte_len = 0
    node = qp.node
    fabric = node.fabric
    qp_type = qp.qp_type
    attempts_left = qp.retry_cnt
    rnr_left = qp.rnr_retry
    executed = False  # remote side effects applied (exactly-once guard)
    saved_response_bytes = 0
    while True:
        try:
            opcode = wr.opcode
            length = wr.length
            if opcode not in POSTABLE_OPCODES:
                raise _Malformed(WC_BAD_OPCODE_ERR)
            # -- local SGE validation --
            if length == 0 and opcode is OP_SEND:
                payload = b""
            else:
                try:
                    node.memory.check_local(wr.lkey, wr.laddr, length)
                except MemoryError_ as err:
                    raise _Malformed(WC_LOC_PROT_ERR) from err
                if opcode in PAYLOAD_OPCODES:
                    payload = node.memory.read(wr.laddr, length)
                else:
                    payload = None
            # -- remote addressing --
            if qp_type is QPT_RC:
                if qp.remote is None:
                    raise _Malformed(WC_RETRY_EXC_ERR)
                remote_gid = qp.remote[0]
            else:
                remote_gid = wr.dct_gid
                if remote_gid is None:
                    raise _Malformed(WC_BAD_OPCODE_ERR)
            request_bytes = timing.REQUEST_HEADER_BYTES
            if opcode in PAYLOAD_OPCODES:
                request_bytes += length
            elif opcode is OP_READ_V:
                if not wr.sges:
                    raise _Malformed(WC_BAD_OPCODE_ERR)
                request_bytes += timing.VECTORED_SGE_WIRE_BYTES * len(wr.sges)
            wire_out = fabric.one_way_ns(request_bytes)
            if opcode is OP_WRITE or opcode is OP_WRITE_IMM:
                wire_out += int(length * timing.WRITE_EXTRA_NS_PER_BYTE)
            duplicated = False
            if fabric.link_faults:
                fault = fabric.link_faults.get((node.gid, remote_gid))
                if fault is not None:
                    if fault.drops():
                        if qp_type is QPT_UD:
                            raise _UdDrop()
                        raise _Unreachable()
                    duplicated = fault.duplicates()
                    wire_out = fault.delay_ns(wire_out)
            if _metrics.METRICS is not None:
                _metrics.METRICS.counter(
                    f"fabric.link[{node.gid}->{remote_gid}]"
                ).inc()
            if qp_type is QPT_RC:
                # PSN ordering: an RC request never lands before its
                # predecessor on the same connection.  A no-op for
                # uniform-size traffic (arrivals already monotone);
                # it only bites when a small WR chases a large one.
                arrival = qp.sim.now + wire_out
                if arrival < qp._req_arrival_clock:
                    wire_out = qp._req_arrival_clock - qp.sim.now
                else:
                    qp._req_arrival_clock = arrival
            yield wire_out
            # -- remote lookup --
            if not fabric.has_node(remote_gid):
                if qp_type is QPT_UD:
                    raise _UdDrop()
                raise _Unreachable()
            remote_node = fabric.node(remote_gid)
            if qp_type is QPT_DC:
                target = remote_node.rnic.dct_target(wr.dct_number)
                if target is None or target.key != wr.dct_key:
                    raise _Malformed(WC_REM_ACCESS_ERR)
            # -- responder processing --
            if opcode is OP_READ or opcode is OP_WRITE:
                rnic = remote_node.rnic
                memory = remote_node.memory
                start, end = rnic.inbound_admit(
                    timing.onesided_service_ns(
                        opcode is OP_READ, length, qp_type is QPT_DC
                    ),
                    opcode,
                )
                if duplicated:
                    # The duplicate arrives right behind the original:
                    # same engine time again once that is served, then
                    # it is discarded by PSN before any memory op.  It
                    # joins the queue behind a request arriving in that
                    # nanosecond, as a timer set at service start does.
                    if start > qp.sim.now:
                        yield start - qp.sim.now
                    yield end - qp.sim.now
                    start, end = rnic.inbound_readmit(end - start, opcode)
                # Queue wait, service and pipeline are one timer: a
                # contended WR costs what an idle one does.
                yield end - qp.sim.now + timing.NIC_RESPONDER_PIPELINE_NS
                if not remote_node.alive:
                    raise _Unreachable()
                if executed:
                    # Retransmission after a lost response: the
                    # responder resends by PSN without re-executing.
                    response_bytes = saved_response_bytes
                else:
                    try:
                        if opcode is OP_READ:
                            memory.check_remote(wr.rkey, wr.raddr, length, write=False)
                            node.memory.write(wr.laddr, memory.read(wr.raddr, length))
                            if _check.CHECKER is not None:
                                _check.CHECKER.read_executed(
                                    remote_gid, wr.rkey, qp.sim.now
                                )
                            response_bytes = length
                        else:
                            memory.check_remote(wr.rkey, wr.raddr, length, write=True)
                            memory.write(wr.raddr, payload)
                            response_bytes = 0
                    except MemoryError_ as err:
                        if qp_type is QPT_UD:
                            raise _UdDrop() from err
                        raise _Malformed(WC_REM_ACCESS_ERR) from err
                    executed = True
                    saved_response_bytes = response_bytes
            elif executed:
                # SEND/atomic retransmission after a lost response:
                # engine time only, no re-execution (exactly-once).
                yield from _serve_duplicate(remote_node, wr)
                response_bytes = saved_response_bytes
            else:
                response_bytes = yield from _execute_remote(qp, remote_node, wr, payload)
                executed = True
                saved_response_bytes = response_bytes
                if duplicated:
                    yield from _serve_duplicate(remote_node, wr)
            # -- response --
            rfault = None
            if fabric.link_faults:
                rfault = fabric.link_faults.get((remote_gid, node.gid))
                if rfault is not None and rfault.drops():
                    if qp_type is QPT_UD:
                        raise _UdDrop()
                    raise _Unreachable()
            if _metrics.METRICS is not None:
                _metrics.METRICS.counter(
                    f"fabric.link[{remote_gid}->{node.gid}]"
                ).inc()
            wire_back = fabric.one_way_ns(response_bytes)
            if rfault is not None:
                wire_back = rfault.delay_ns(wire_back)
            # Response wire and RX completion processing: one timer,
            # nothing observes the instant between them.
            yield wire_back + timing.NIC_RX_COMPLETION_NS
            byte_len = length
            break
        except _UdDrop:
            # Unreliable datagram: the packet vanished; the sender still
            # completes successfully and never learns.
            yield timing.NIC_RX_COMPLETION_NS
            break
        except _Unreachable:
            # No response arrived: wait out the retransmission timer,
            # then try again; RETRY_EXC_ERR only when the budget dies.
            if attempts_left > 0:
                attempts_left -= 1
                if _trace.TRACER is not None:
                    _trace.TRACER.instant(
                        qp.sim.now, f"qp{qp.qpn}@{node.gid}",
                        "qp.retransmit", wr_id=wr.wr_id, cause="timeout",
                    )
                if _metrics.METRICS is not None:
                    _metrics.METRICS.counter("verbs.retransmits").inc()
                yield qp.timeout_ns
                continue
            status = WC_RETRY_EXC_ERR
            yield fabric.one_way_ns(0) + timing.NIC_RX_COMPLETION_NS
            break
        except _RnrNak:
            # Receiver not ready: honor the RNR retry budget.
            if rnr_left > 0:
                rnr_left -= 1
                if _trace.TRACER is not None:
                    _trace.TRACER.instant(
                        qp.sim.now, f"qp{qp.qpn}@{node.gid}",
                        "qp.retransmit", wr_id=wr.wr_id, cause="rnr",
                    )
                if _metrics.METRICS is not None:
                    _metrics.METRICS.counter("verbs.retransmits").inc()
                yield qp.rnr_timer_ns
                continue
            status = (
                WC_RNR_ERR if qp.rnr_retry == 0 else WC_RNR_RETRY_EXC_ERR
            )
            yield fabric.one_way_ns(0) + timing.NIC_RX_COMPLETION_NS
            break
        except _Malformed as malformed:
            status = malformed.status
            # The NAK still travels back before the requester learns of it.
            yield fabric.one_way_ns(0) + timing.NIC_RX_COMPLETION_NS
            break
    # Deliver completions in posting order (RC FIFO, §4.6).
    if qp._completed != ticket - 1:
        waits = qp._order_waits
        if waits is None:
            waits = qp._order_waits = {}
        parked = waits[ticket] = qp.sim.event()
        yield parked
    if qp.state is QPS_ERR and status is WC_SUCCESS:
        # A preceding request wrecked the QP: this one's remote effects
        # stand, but it completes flushed, like outstanding WRs on a
        # real NIC after an error.
        qp._complete(wr, WC_FLUSH_ERR)
    elif status is WC_SUCCESS:
        qp._complete(wr, status, byte_len)
    else:
        qp._complete(wr, status)
        qp._enter_error()
    qp._completed = ticket
    if qp._order_waits:
        successor = qp._order_waits.pop(ticket + 1, None)
        if successor is not None:
            successor.trigger(None)

def _execute_remote(qp, remote_node, wr, payload):
    """Responder-side processing of everything but READ and WRITE
    (those two run inline in :meth:`_flight`).  Returns the response
    payload size."""
    memory = remote_node.memory
    opcode = wr.opcode
    yield from _serve_inbound(
        remote_node.rnic, 
        _responder_service_ns(wr, qp.qp_type is QPT_DC)
    )
    if not remote_node.alive:
        if opcode is OP_SEND and qp.qp_type is QPT_UD:
            raise _UdDrop()
        raise _Unreachable()
    try:
        if opcode is OP_READ_V:
            # Segments are validated and gathered in order, scattering
            # back-to-back into the local buffer.
            offset = 0
            for raddr, rkey, seg_len in wr.sges:
                memory.check_remote(rkey, raddr, seg_len, write=False)
                qp.node.memory.write(
                    wr.laddr + offset, memory.read(raddr, seg_len)
                )
                if _check.CHECKER is not None:
                    _check.CHECKER.read_executed(
                        remote_node.gid, rkey, qp.sim.now
                    )
                offset += seg_len
            return wr.length
        if opcode is OP_WRITE_IMM:
            memory.check_remote(wr.rkey, wr.raddr, wr.length, write=True)
            memory.write(wr.raddr, payload)
            # The immediate rides the last write packet and raises a
            # receiver-side CQE, consuming a posted recv buffer --
            # RNR semantics apply just like a SEND.
            yield from _deliver_imm(qp, remote_node, wr)
            return 0
        if opcode in ATOMIC_OPCODES:
            memory.check_remote(wr.rkey, wr.raddr, 8, write=True)
            old = int.from_bytes(memory.read(wr.raddr, 8), "big")
            if opcode is OP_CAS:
                if old == wr.compare:
                    memory.write(wr.raddr, wr.swap.to_bytes(8, "big"))
            else:
                memory.write(wr.raddr, ((old + wr.compare) % (1 << 64)).to_bytes(8, "big"))
            qp.node.memory.write(wr.laddr, old.to_bytes(8, "big"))
            return 8
        yield from _deliver_send(qp, remote_node, wr, payload)
        return 0
    except MemoryError_ as err:
        if qp.qp_type is QPT_UD:
            raise _UdDrop() from err
        raise _Malformed(WC_REM_ACCESS_ERR) from err

def _deliver_send(qp, remote_node, wr, payload):
    """Land an inbound SEND in the receiver's queue (or SRQ for DCT)."""
    if qp.qp_type is QPT_DC:
        target = remote_node.rnic.dct_target(wr.dct_number)
        buffers, cq, receiver_qp = target.srq, target.recv_cq, None
    else:
        receiver_qp = remote_node.rnic.qp(_receiver_qpn(qp, wr))
        if receiver_qp is None:
            raise _Malformed(WC_RETRY_EXC_ERR)
        buffers, cq = receiver_qp._recv_buffers, receiver_qp.recv_cq
    if not buffers or cq is None:
        if qp.qp_type is QPT_UD:
            raise _UdDrop()
        raise _RnrNak()
    recv_buffer = buffers[0]
    if len(payload) > recv_buffer.length:
        if qp.qp_type is QPT_UD:
            raise _UdDrop()
        raise _RnrNak()
    buffers.pop(0)
    if payload:
        yield timing.SEND_DELIVERY_NS
    else:
        yield timing.SEND_DELIVERY_HEADER_NS
    remote_node.memory.write(recv_buffer.addr, payload)
    cq.push(
        Completion(
            recv_buffer.wr_id,
            WC_SUCCESS,
            OP_RECV,
            byte_len=len(payload),
            src=(qp.node.gid, qp.qpn),
            header=wr.header,
            qp=receiver_qp,
        )
    )

def _deliver_imm(qp, remote_node, wr):
    """Raise the receiver-side CQE for a WRITE_WITH_IMM.

    The payload already landed at ``raddr`` via the write half; the
    immediate consumes a recv buffer (or SRQ slot for DCT) purely to
    carry the CQE, without touching the buffer's memory.
    """
    if qp.qp_type is QPT_DC:
        target = remote_node.rnic.dct_target(wr.dct_number)
        buffers, cq, receiver_qp = target.srq, target.recv_cq, None
    else:
        receiver_qp = remote_node.rnic.qp(_receiver_qpn(qp, wr))
        if receiver_qp is None:
            raise _Malformed(WC_RETRY_EXC_ERR)
        buffers, cq = receiver_qp._recv_buffers, receiver_qp.recv_cq
    if not buffers or cq is None:
        raise _RnrNak()
    recv_buffer = buffers.pop(0)
    yield timing.WRITE_IMM_DELIVERY_NS
    cq.push(
        Completion(
            recv_buffer.wr_id,
            WC_SUCCESS,
            OP_RECV_IMM,
            byte_len=wr.length,
            src=(qp.node.gid, qp.qpn),
            header=wr.header,
            qp=receiver_qp,
            imm=wr.imm,
        )
    )


def _serve_duplicate(remote_node, wr):
    """Process: charge the responder for a duplicated request, or for the
    retransmission of an op whose effects already applied: the engine
    re-serves it (at the RC rate on every transport), then discards it by
    PSN -- no memory op, no delivery (exactly-once)."""
    return _serve_inbound(remote_node.rnic, _responder_service_ns(wr, False))


class _Malformed(Exception):
    """Internal: a WR failed validation; carries the completion status."""

    def __init__(self, status):
        super().__init__(status)
        self.status = status


class _UdDrop(Exception):
    """Internal: a UD packet was silently dropped (unreliable transport)."""


class _Unreachable(Exception):
    """Internal: no response will arrive (lost packet or dead responder).

    Retryable: the requester waits out its retransmission timer and tries
    again until ``retry_cnt`` is exhausted, then completes RETRY_EXC_ERR.
    """


class _RnrNak(Exception):
    """Internal: the responder NAKed receiver-not-ready.

    Retryable against the ``rnr_retry`` budget with ``rnr_timer_ns`` waits;
    exhaustion completes RNR_ERR (budget 0, the classic immediate error) or
    RNR_RETRY_EXC_ERR (a non-zero budget ran dry).
    """
