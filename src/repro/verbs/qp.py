"""Queue pairs: the RC/UD/DC transports over the simulated RNIC.

The QP models both the software-visible verbs behaviour (state machine,
post/poll semantics, error states) and the hardware timing (per-WR issue
cost, wire time, responder occupancy, in-order completion delivery).

Failure semantics reproduce what KRCORE must defend against (§3.1):

* a malformed work request (bad opcode, invalid local/remote key, out of
  bounds) generates an error completion and moves the QP to ERR;
* posting beyond the send-queue capacity (slots are only reclaimed when
  completions are *polled*) moves the QP to ERR;
* an ERR QP refuses all traffic until fully reconfigured, which costs a
  trip through the RNIC command processor.

Reliable transports (RC/DC) carry real retransmission state: ``timeout_ns``
/ ``retry_cnt`` drive the requester's retry timer when a request or
response is lost (link fault) or the responder is unreachable (node dead),
completing with RETRY_EXC_ERR only once the budget is exhausted;
``rnr_retry`` / ``rnr_timer_ns`` do the same for receiver-not-ready NAKs
(RNR_RETRY_EXC_ERR).  Retransmission after a lost *response* never
re-executes remote side effects -- the responder recognizes the duplicate
PSN and resends -- so atomics and SENDs stay exactly-once.
"""

from collections import deque

from repro.check import hooks as _check
from repro.cluster import timing
from repro.cluster.memory import MemoryError_
from repro.obs import metrics as _metrics
from repro.obs import trace as _trace
from repro.sim import Store
from repro.verbs.cq import Completion
from repro.verbs.errors import QpError, QpOverflowError, VerbsError
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
    QPS_INIT,
    QPS_RESET,
    QPS_RTR,
    QPS_RTS,
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


class DctTarget:
    """A responder-side DCT context (identified by number + key, §3.1 C#1).

    Creating one is cheap -- no per-connection hardware queues.  Inbound
    one-sided ops validate the key; inbound SENDs consume buffers from the
    target's shared receive queue and complete into ``recv_cq``.
    """

    __slots__ = ("node", "number", "key", "srq", "recv_cq")

    def __init__(self, node, number, key):
        self.node = node
        self.number = number
        self.key = key
        self.srq = deque()
        self.recv_cq = None

    @property
    def metadata(self):
        """The 12-byte DCT metadata tuple stored at the meta server (§4.2)."""
        return (self.number, self.key)

    def post_srq(self, recv_buffer):
        self.srq.append(recv_buffer)


class QueuePair:
    """One queue pair (send queue + completion queues + state machine)."""

    def __init__(
        self,
        node,
        qp_type,
        send_cq,
        recv_cq=None,
        sq_depth=timing.SQ_DEPTH_DEFAULT,
        timeout_ns=timing.QP_TIMEOUT_NS,
        retry_cnt=timing.QP_RETRY_CNT,
        rnr_retry=timing.QP_RNR_RETRY,
        rnr_timer_ns=timing.QP_RNR_TIMER_NS,
    ):
        self.node = node
        self.sim = node.sim
        self.qp_type = qp_type
        self.send_cq = send_cq
        self.recv_cq = recv_cq
        self.sq_depth = sq_depth
        # Retransmission attributes (the ibv_qp_attr timeout/retry knobs).
        self.timeout_ns = timeout_ns
        self.retry_cnt = retry_cnt
        self.rnr_retry = rnr_retry
        self.rnr_timer_ns = rnr_timer_ns
        # RC request-channel clock: latest request arrival time at the
        # responder.  RC processes requests in PSN order, so a later
        # (smaller, faster-flying) request must not overtake an earlier
        # one on the wire; arrivals are clamped to this watermark.
        self._req_arrival_clock = 0
        self.qpn = node.rnic.register_qp(self)
        self.state = QPS_RESET
        self.remote = None  # (gid, qpn) once RC-connected
        self._sq = Store(self.sim)
        self._posted = 0
        self._reclaimed = 0
        self._pending_unsignaled = 0
        self._recv_buffers = deque()
        # In-order completion tickets: the sender numbers flights at issue
        # and they complete in that order.  A flight that finishes ahead
        # of its predecessor parks on an Event here (ticket -> Event); the
        # common in-order finish allocates nothing.
        self._completed = 0
        self._order_waits = None
        self._dc_current = None  # (gid, dct_number) the DC QP is wired to
        self._dc_retargets = 0
        self._dc_last_retarget_ns = -(10 ** 12)
        self._dc_lcg = self.qpn * 2654435761 % (1 << 64) or 1
        self.stats_reconnects = 0
        self._flight_name = f"qp{self.qpn}-flight"
        self.sim.process(self._sender_loop(), name=f"qp{self.qpn}-sender")

    # ------------------------------------------------------------------ state

    def _trace_state(self):
        if _trace.TRACER is not None:
            _trace.TRACER.instant(
                self.sim.now, f"verbs@{self.node.gid}", "qp.state",
                qpn=self.qpn, state=self.state.name,
            )

    def to_init(self):
        self._require_state(QPS_RESET)
        self.state = QPS_INIT
        self._trace_state()

    def to_rtr(self, remote=None):
        self._require_state(QPS_INIT)
        if self.qp_type is QPT_RC:
            if remote is None:
                raise VerbsError("RC RTR requires the remote (gid, qpn)")
            self.remote = remote
        self.state = QPS_RTR
        self._trace_state()

    def to_rts(self):
        self._require_state(QPS_RTR)
        self.state = QPS_RTS
        self._trace_state()

    def _require_state(self, expected):
        if self.state is not expected:
            raise VerbsError(f"QP {self.qpn}: expected {expected}, is {self.state}")

    def reset(self):
        """Drop back to RESET (software part of error recovery)."""
        self.state = QPS_RESET
        self._trace_state()
        self.remote = None
        self._dc_current = None
        while True:
            stale = self._sq.try_get()
            if stale is None:
                break
        self._posted = self._reclaimed = 0
        self._pending_unsignaled = 0

    def reconfigure(self, remote=None):
        """Process: full recovery from ERR -- reset + RTR + RTS through the
        RNIC command processor.  This is the cost KRCORE avoids by never
        letting a shared QP enter ERR (§3.1 C#3)."""
        if remote is None:
            remote = self.remote
        self.reset()
        yield from self.node.rnic.command(timing.MODIFY_RTR_NS + timing.MODIFY_RTS_NS)
        self.to_init()
        self.to_rtr(remote if self.qp_type is QPT_RC else None)
        self.to_rts()

    @property
    def outstanding(self):
        """Send-queue slots held: posted but not yet reclaimed by polling."""
        return self._posted - self._reclaimed

    @property
    def free_slots(self):
        return self.sq_depth - self.outstanding

    def _reclaim(self, covers):
        self._reclaimed += covers
        if self._reclaimed > self._posted:
            raise VerbsError(f"QP {self.qpn}: reclaimed more slots than posted")

    # ------------------------------------------------------------------ post

    def post_send(self, wr_list):
        """Post WRs (non-blocking, like ibv_post_send).

        Raises :class:`QpOverflowError` (and wrecks the QP) if the list does
        not fit in the free send-queue slots -- the overflow hazard of
        sharing a QP without KRCORE's pre-checks.
        """
        if isinstance(wr_list, (list, tuple)):
            wrs = list(wr_list)
        else:
            wrs = [wr_list]
        if not wrs:
            return
        if self.state is QPS_ERR:
            raise QpError(f"QP {self.qpn} is in ERR", code=WC_FLUSH_ERR)
        if self.state is not QPS_RTS:
            raise VerbsError(f"QP {self.qpn}: post_send in state {self.state}")
        if len(wrs) > self.free_slots:
            self._enter_error()
            raise QpOverflowError(
                f"QP {self.qpn}: posting {len(wrs)} WRs with {self.free_slots} free slots",
                code=WC_FLUSH_ERR,
            )
        self._posted += len(wrs)
        tracer = _trace.TRACER
        if tracer is not None:
            track = f"qp{self.qpn}@{self.node.gid}"
            now = self.sim.now
            for wr in wrs:
                wr.trace_id = tracer.next_async_id()
                tracer.async_begin(
                    now, track, f"wr.{wr.opcode.value}", wr.trace_id,
                    wr_id=wr.wr_id, length=wr.length,
                )
        registry = _metrics.METRICS
        if registry is not None:
            registry.counter("verbs.wr_posted").inc(len(wrs))
        for wr in wrs:
            self._sq.put(wr)

    def post_send_batch(self, wr_list):
        """Post a WR chain with one doorbell (KRCORE §4.3 doorbell batching).

        The WRs are linked into a chain and handed to the NIC as a single
        command: the first WR pays the full doorbell + DMA-fetch cost, every
        successor is fetched off the chain for ``NIC_TX_CHAINED_NS`` instead
        of ``NIC_TX_NS``.  Callers model the CPU side of building the chain
        with :func:`repro.cluster.timing.doorbell_batch_cpu_ns`.

        Completion semantics are identical to posting the WRs one at a time
        (same ordering, same signaling, same error flush behaviour) -- the
        equivalence the batching test harness pins down.
        """
        if isinstance(wr_list, (list, tuple)):
            wrs = list(wr_list)
        else:
            wrs = [wr_list]
        if len(wrs) >= 2:
            wrs[0].chained = False
            for wr in wrs[1:]:
                wr.chained = True
            if _metrics.METRICS is not None:
                _metrics.METRICS.counter("verbs.doorbell_batches").inc()
                _metrics.METRICS.counter("verbs.doorbell_batched_wrs").inc(len(wrs))
            if _check.CHECKER is not None:
                _check.CHECKER.batch_posted(self, wrs)
        self.post_send(wrs)

    def post_recv(self, recv_buffer):
        self._recv_buffers.append(recv_buffer)

    # ------------------------------------------------------------- NIC side

    def _sender_loop(self):
        """The NIC's per-QP work-queue processor: issues WRs in order.

        One doorbell wakes it once: it then drains the whole backlog with
        ``try_get`` and only blocks again when the send queue is empty.
        """
        sim = self.sim
        get, try_get = self._sq.get, self._sq.try_get
        is_dc = self.qp_type is QPT_DC
        link_faults = self.node.fabric.link_faults
        ticket = 0
        while True:
            wr = try_get()
            if wr is None:
                wr = yield get()
            if self.state is QPS_ERR:
                self._complete(wr, WC_FLUSH_ERR)
                continue
            if is_dc and (wr.dct_gid, wr.dct_number) != self._dc_current:
                yield self._dc_retarget(wr)
            # A chained WQE rides the doorbell of its chain head: the NIC
            # already has the chain, so issue is a cheap descriptor fetch.
            yield timing.NIC_TX_CHAINED_NS if wr.chained else timing.NIC_TX_NS
            # Started inline: the flight runs to its first yield (the
            # request's wire time) right here, so local-SGE validation and
            # payload fetch happen at issue time without a start record
            # per WR.  Not while a link fault is installed: fault draws
            # come off one LCG per directed link, shared with the
            # responses of connections going the other way, so the order
            # of two draws inside a nanosecond decides which packet is
            # lost -- the start record keeps that order.
            ticket += 1
            sim.process(
                self._flight(wr, ticket), self._flight_name, not link_faults
            )

    def _dc_retarget(self, wr):
        """Hardware-offloaded DCT (re)connection before issuing ``wr``, to
        a target other than the one the QP is wired to; returns its delay.

        A small deterministic fraction of reconnections (one in
        DCT_RECONNECT_TAIL_EVERY, drawn from a per-QP LCG so it is
        reproducible yet uniform in time) needs an extra network round --
        the source of DC's 99.9th-percentile tail (Fig 14b).
        """
        self._dc_current = (wr.dct_gid, wr.dct_number)
        self._dc_retargets += 1
        self.stats_reconnects += 1
        if _trace.TRACER is not None:
            _trace.TRACER.instant(
                self.sim.now, f"qp{self.qpn}@{self.node.gid}",
                "dc.retarget", gid=wr.dct_gid, dct=wr.dct_number,
            )
        if _metrics.METRICS is not None:
            _metrics.METRICS.counter("verbs.dc_retargets").inc()
        delay = timing.DCT_RECONNECT_NS
        if self.sim.now - self._dc_last_retarget_ns < timing.DCT_RECONNECT_BUSY_WINDOW_NS:
            delay += timing.DCT_RECONNECT_BUSY_NS  # teardown not drained yet
        self._dc_last_retarget_ns = self.sim.now
        self._dc_lcg = (self._dc_lcg * 6364136223846793005 + 1442695040888963407) % (1 << 64)
        if (self._dc_lcg >> 33) % timing.DCT_RECONNECT_TAIL_EVERY == 0:
            delay += timing.DCT_RECONNECT_TAIL_NS
        return delay

    def _flight(self, wr, ticket):
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
        node = self.node
        fabric = node.fabric
        qp_type = self.qp_type
        attempts_left = self.retry_cnt
        rnr_left = self.rnr_retry
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
                    if self.remote is None:
                        raise _Malformed(WC_RETRY_EXC_ERR)
                    remote_gid = self.remote[0]
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
                    arrival = self.sim.now + wire_out
                    if arrival < self._req_arrival_clock:
                        wire_out = self._req_arrival_clock - self.sim.now
                    else:
                        self._req_arrival_clock = arrival
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
                        if start > self.sim.now:
                            yield start - self.sim.now
                        yield end - self.sim.now
                        start, end = rnic.inbound_readmit(end - start, opcode)
                    # Queue wait, service and pipeline are one timer: a
                    # contended WR costs what an idle one does.
                    yield end - self.sim.now + timing.NIC_RESPONDER_PIPELINE_NS
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
                                        remote_gid, wr.rkey, self.sim.now
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
                    response_bytes = yield from self._execute_remote(remote_node, wr, payload)
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
                            self.sim.now, f"qp{self.qpn}@{node.gid}",
                            "qp.retransmit", wr_id=wr.wr_id, cause="timeout",
                        )
                    if _metrics.METRICS is not None:
                        _metrics.METRICS.counter("verbs.retransmits").inc()
                    yield self.timeout_ns
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
                            self.sim.now, f"qp{self.qpn}@{node.gid}",
                            "qp.retransmit", wr_id=wr.wr_id, cause="rnr",
                        )
                    if _metrics.METRICS is not None:
                        _metrics.METRICS.counter("verbs.retransmits").inc()
                    yield self.rnr_timer_ns
                    continue
                status = (
                    WC_RNR_ERR if self.rnr_retry == 0 else WC_RNR_RETRY_EXC_ERR
                )
                yield fabric.one_way_ns(0) + timing.NIC_RX_COMPLETION_NS
                break
            except _Malformed as malformed:
                status = malformed.status
                # The NAK still travels back before the requester learns of it.
                yield fabric.one_way_ns(0) + timing.NIC_RX_COMPLETION_NS
                break
        # Deliver completions in posting order (RC FIFO, §4.6).
        if self._completed != ticket - 1:
            waits = self._order_waits
            if waits is None:
                waits = self._order_waits = {}
            parked = waits[ticket] = self.sim.event()
            yield parked
        if self.state is QPS_ERR and status is WC_SUCCESS:
            # A preceding request wrecked the QP: this one's remote effects
            # stand, but it completes flushed, like outstanding WRs on a
            # real NIC after an error.
            self._complete(wr, WC_FLUSH_ERR)
        elif status is WC_SUCCESS:
            self._complete(wr, status, byte_len)
        else:
            self._complete(wr, status)
            self._enter_error()
        self._completed = ticket
        if self._order_waits:
            successor = self._order_waits.pop(ticket + 1, None)
            if successor is not None:
                successor.trigger(None)

    def _execute_remote(self, remote_node, wr, payload):
        """Responder-side processing of everything but READ and WRITE
        (those two run inline in :meth:`_flight`).  Returns the response
        payload size."""
        memory = remote_node.memory
        opcode = wr.opcode
        yield from remote_node.rnic.serve_inbound(
            _responder_service_ns(wr, self.qp_type is QPT_DC)
        )
        if not remote_node.alive:
            if opcode is OP_SEND and self.qp_type is QPT_UD:
                raise _UdDrop()
            raise _Unreachable()
        try:
            if opcode is OP_READ_V:
                # Segments are validated and gathered in order, scattering
                # back-to-back into the local buffer.
                offset = 0
                for raddr, rkey, seg_len in wr.sges:
                    memory.check_remote(rkey, raddr, seg_len, write=False)
                    self.node.memory.write(
                        wr.laddr + offset, memory.read(raddr, seg_len)
                    )
                    if _check.CHECKER is not None:
                        _check.CHECKER.read_executed(
                            remote_node.gid, rkey, self.sim.now
                        )
                    offset += seg_len
                return wr.length
            if opcode is OP_WRITE_IMM:
                memory.check_remote(wr.rkey, wr.raddr, wr.length, write=True)
                memory.write(wr.raddr, payload)
                # The immediate rides the last write packet and raises a
                # receiver-side CQE, consuming a posted recv buffer --
                # RNR semantics apply just like a SEND.
                yield from self._deliver_imm(remote_node, wr)
                return 0
            if opcode in ATOMIC_OPCODES:
                memory.check_remote(wr.rkey, wr.raddr, 8, write=True)
                old = int.from_bytes(memory.read(wr.raddr, 8), "big")
                if opcode is OP_CAS:
                    if old == wr.compare:
                        memory.write(wr.raddr, wr.swap.to_bytes(8, "big"))
                else:
                    memory.write(wr.raddr, ((old + wr.compare) % (1 << 64)).to_bytes(8, "big"))
                self.node.memory.write(wr.laddr, old.to_bytes(8, "big"))
                return 8
            yield from self._deliver_send(remote_node, wr, payload)
            return 0
        except MemoryError_ as err:
            if self.qp_type is QPT_UD:
                raise _UdDrop() from err
            raise _Malformed(WC_REM_ACCESS_ERR) from err

    def _deliver_send(self, remote_node, wr, payload):
        """Land an inbound SEND in the receiver's queue (or SRQ for DCT)."""
        if self.qp_type is QPT_DC:
            target = remote_node.rnic.dct_target(wr.dct_number)
            buffers, cq, receiver_qp = target.srq, target.recv_cq, None
        else:
            receiver_qp = remote_node.rnic.qp(self._receiver_qpn(wr))
            if receiver_qp is None:
                raise _Malformed(WC_RETRY_EXC_ERR)
            buffers, cq = receiver_qp._recv_buffers, receiver_qp.recv_cq
        if not buffers or cq is None:
            if self.qp_type is QPT_UD:
                raise _UdDrop()
            raise _RnrNak()
        recv_buffer = buffers[0]
        if len(payload) > recv_buffer.length:
            if self.qp_type is QPT_UD:
                raise _UdDrop()
            raise _RnrNak()
        buffers.popleft()
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
                src=(self.node.gid, self.qpn),
                header=wr.header,
                qp=receiver_qp,
            )
        )

    def _deliver_imm(self, remote_node, wr):
        """Raise the receiver-side CQE for a WRITE_WITH_IMM.

        The payload already landed at ``raddr`` via the write half; the
        immediate consumes a recv buffer (or SRQ slot for DCT) purely to
        carry the CQE, without touching the buffer's memory.
        """
        if self.qp_type is QPT_DC:
            target = remote_node.rnic.dct_target(wr.dct_number)
            buffers, cq, receiver_qp = target.srq, target.recv_cq, None
        else:
            receiver_qp = remote_node.rnic.qp(self._receiver_qpn(wr))
            if receiver_qp is None:
                raise _Malformed(WC_RETRY_EXC_ERR)
            buffers, cq = receiver_qp._recv_buffers, receiver_qp.recv_cq
        if not buffers or cq is None:
            raise _RnrNak()
        recv_buffer = buffers.popleft()
        yield timing.WRITE_IMM_DELIVERY_NS
        cq.push(
            Completion(
                recv_buffer.wr_id,
                WC_SUCCESS,
                OP_RECV_IMM,
                byte_len=wr.length,
                src=(self.node.gid, self.qpn),
                header=wr.header,
                qp=receiver_qp,
                imm=wr.imm,
            )
        )

    def _receiver_qpn(self, wr):
        if self.qp_type is QPT_RC:
            return self.remote[1]
        return wr.dct_number  # UD: dct_number doubles as the target QPN

    # ------------------------------------------------------------ completion

    def _complete(self, wr, status, byte_len=0):
        """Generate (or account) the completion for a finished WR."""
        if wr.trace_id is not None and _trace.TRACER is not None:
            _trace.TRACER.async_end(
                self.sim.now, f"qp{self.qpn}@{self.node.gid}",
                f"wr.{wr.opcode.value}", wr.trace_id, status=status.name,
            )
        if _check.CHECKER is not None:
            _check.CHECKER.wr_completed(self, wr, status)
        if status is WC_SUCCESS and not wr.signaled:
            self._pending_unsignaled += 1
            return
        covers = self._pending_unsignaled + 1
        self._pending_unsignaled = 0
        self.send_cq.push(
            Completion(wr.wr_id, status, wr.opcode, byte_len=byte_len, qp=self, covers=covers)
        )

    def _enter_error(self):
        if self.state is QPS_ERR:
            return
        self.state = QPS_ERR
        self._trace_state()
        if _metrics.METRICS is not None:
            _metrics.METRICS.counter("verbs.qp_errors").inc()
        # Flush everything still queued in the send queue.
        while True:
            stale = self._sq.try_get()
            if stale is None:
                break
            self._complete(stale, WC_FLUSH_ERR)


def _serve_duplicate(remote_node, wr):
    """Process: charge the responder for a duplicated request, or for the
    retransmission of an op whose effects already applied: the engine
    re-serves it (at the RC rate on every transport), then discards it by
    PSN -- no memory op, no delivery (exactly-once)."""
    return remote_node.rnic.serve_inbound(_responder_service_ns(wr, False))


def _responder_service_ns(wr, dc):
    """Inbound-engine service time of everything but READ and WRITE."""
    opcode = wr.opcode
    if opcode is OP_READ_V:
        # Vectored gather: one request, one responder occupancy.  The
        # payload-size cost is charged once on the summed length; each
        # discontiguous segment after the first adds a DMA-setup charge.
        service = timing.READ_RESPONDER_SERVICE_NS
        service += timing.responder_payload_service_ns(wr.length)
        service += timing.VECTORED_SGE_SERVICE_NS * (len(wr.sges) - 1)
        return service + timing.DC_READ_SERVICE_EXTRA_NS if dc else service
    if opcode is OP_WRITE_IMM:
        return timing.onesided_service_ns(False, wr.length, dc)
    if opcode in ATOMIC_OPCODES:
        return timing.ATOMIC_RESPONDER_SERVICE_NS
    return timing.SEND_RESPONDER_SERVICE_NS


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
