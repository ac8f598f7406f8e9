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

from repro import obs
from repro.cluster import timing
from repro.cluster.memory import MemoryError_
from repro.verbs.cq import _EMPTY, Completion
from repro.verbs.errors import QpError, QpOverflowError, VerbsError
from repro.verbs.types import (
    ATOMIC_OPCODES,
    OP_CAS,
    OP_READ,
    OP_READ_V,
    OP_RECV,
    OP_SEND,
    OP_WRITE,
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

    Creating one is cheap -- no per-connection hardware queues; it takes
    the node's next DCT number, as a QP takes its next QPN.  Inbound
    one-sided ops validate the key; inbound SENDs consume buffers from the
    target's shared receive queue and complete into ``recv_cq``.
    """

    __slots__ = ("node", "number", "key", "recv_cq", "_stock", "_build", "_head", "_posted")

    def __init__(self, node, key):
        self.node = node
        self.number = node.rnic.register_dct_target(self)
        self.key = key
        self.recv_cq = None
        self._stock = ()  # SRQ slots stocked and not built yet
        self._head = []  # the stock's head once built: one entry at most
        self._posted = []

    def stock_srq(self, slots, build):
        """Post ``build(slot)`` per slot to the still empty SRQ, built when claimed."""
        self._stock, self._build = iter(slots), build

    @property
    def srq(self):
        """The shared receive queue as the next claim sees it: a list headed
        by the next buffer, empty only if the SRQ is.  Claims come in the
        order of one list stocked up front: the stock, then what was posted."""
        if not self._head:
            for slot in self._stock:
                self._head.append(self._build(slot))
                return self._head
            return self._posted
        return self._head

    def post_srq(self, recv_buffer):
        self._posted.append(recv_buffer)


class QueuePair:
    """One queue pair (send queue + completion queues + state machine)."""

    def __init__(
        self,
        node,
        qp_type,
        send_cq,
        recv_cq=None,
        sq_depth=timing.SQ_DEPTH_DEFAULT,
        qpn=None,
    ):
        self.node = node
        self.sim = node.sim
        self.qp_type = qp_type
        self.send_cq = send_cq
        self.recv_cq = recv_cq
        self.sq_depth = sq_depth
        # Retransmission attributes (the ibv_qp_attr timeout/retry knobs).
        self.timeout_ns = timing.QP_TIMEOUT_NS
        self.retry_cnt = timing.QP_RETRY_CNT
        self.rnr_retry = timing.QP_RNR_RETRY
        self.rnr_timer_ns = timing.QP_RNR_TIMER_NS
        # RC request-channel clock: latest request arrival time at the
        # responder.  RC processes requests in PSN order, so a later
        # (smaller, faster-flying) request must not overtake an earlier
        # one on the wire; arrivals are clamped to this watermark.
        self._req_arrival_clock = 0
        self.qpn = node.rnic.register_qp(self, qpn)
        self.state = QPS_RESET
        self.remote = None  # (gid, qpn) once RC-connected
        # At rest a QP owns no queue storage: the send queue appears at the
        # first doorbell.  The sender's next stage is None while it is idle.
        self._sq = None
        self._stage = None
        self._tx_wr = None  # the WR between its take and its issue
        self._posted = 0
        self._reclaimed = 0
        self._pending_unsignaled = 0
        self._recv_buffers = _EMPTY
        # In-order completion tickets: the sender numbers WRs as it takes
        # them off the send queue and their flights complete in that order
        # (``_Flight._retire``; ``_order_waits`` is ticket -> parked flight).
        self._issued = 0
        self._completed = 0
        self._order_waits = None
        #: Last ticket taken before the latest reset(), by an earlier incarnation.
        self._reset_ticket = 0
        self._dc_current = None  # (gid, dct_number) the DC QP is wired to
        self._dc_last_retarget_ns = -(10 ** 12)
        self._dc_lcg = self.qpn * 2654435761 % (1 << 64) or 1

    # ------------------------------------------------------------------ state

    def _trace_state(self):
        observer = obs.OBSERVER
        if observer is not None:
            probe = observer.on_qp_error if self.state is QPS_ERR else observer.on_qp_state
            probe(self.sim.now, self)

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
        """Drop back to RESET (software part of error recovery).  The slot
        accounting restarts from zero: what the old incarnation still has
        in flight completes FLUSH_ERR covering no slot, and its CQEs still
        unpolled release none."""
        self.state = QPS_RESET
        self._trace_state()
        self.remote = None
        self._dc_current = None
        if self._sq:
            self._sq.clear()
        self._posted = self._reclaimed = 0
        self._pending_unsignaled = 0
        self._reset_ticket = self._issued
        self.send_cq.disown(self)

    def reconfigure(self):
        """Process: full recovery from ERR -- reset + RTR + RTS through the
        RNIC command processor, back to the same remote.  This is the cost
        KRCORE avoids by never letting a shared QP enter ERR (§3.1 C#3)."""
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
        return self.sq_depth - self._posted + self._reclaimed

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
        if len(wrs) > self.sq_depth - self._posted + self._reclaimed:  # free_slots
            self.enter_error()
            raise QpOverflowError(
                f"QP {self.qpn}: posting {len(wrs)} WRs with {self.free_slots} free slots",
                code=WC_FLUSH_ERR,
            )
        self._posted += len(wrs)
        if obs.OBSERVER is not None:
            for wr in wrs:
                obs.OBSERVER.on_wr_post(self.sim.now, self, wr)
        if self._sq is None:
            self._sq = []
        self._sq.extend(wrs)
        if self._stage is None:
            # One doorbell, one ready record: the idle sender's wake.
            self._stage = QueuePair._drain
            self.sim.wake(self)

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
        if len(wrs) < 2:
            self.post_send(wrs)
            return
        wrs[0].chained = False
        for wr in wrs[1:]:
            wr.chained = True
        self.post_send(wrs)
        # After the post: a chain post_send rejected was never batched.
        if obs.OBSERVER is not None:
            obs.OBSERVER.on_doorbell_batch(self, wrs, len(wrs))

    def post_recv(self, recv_buffer):
        if self._recv_buffers is _EMPTY:
            self._recv_buffers = []
        self._recv_buffers.append(recv_buffer)

    # ------------------------------------------------------------- NIC side

    def _resume(self, _value, _exc):
        self._stage(self)

    def _drain(self):
        """The NIC's per-QP work-queue processor, a sleeper (DESIGN.md §11)
        that a doorbell wakes while idle: it issues WRs in order and goes
        idle, holding nothing, only on an empty send queue -- again if
        ``reset()`` emptied it between the doorbell and the wake."""
        sq = self._sq
        while sq:
            wr = sq.pop(0)
            self._issued += 1
            if self.state is QPS_ERR:
                _Flight(self, wr, self._issued)._flush()
                continue
            self._tx_wr = wr
            if self.qp_type is QPT_DC and (wr.dct_gid, wr.dct_number) != self._dc_current:
                self._stage = QueuePair._fetch
                return self.sim.sleep(self, self._dc_retarget(wr))
            # The WQE fetch, as in _fetch, armed here: no call per WR.
            self._stage = QueuePair._launch
            return self.sim.sleep(
                self, timing.NIC_TX_CHAINED_NS if wr.chained else timing.NIC_TX_NS
            )
        self._stage = None

    def _fetch(self):
        """The WQE fetch after a DC retarget.  A chained WQE rides the
        doorbell of its chain head: the NIC already has the chain, so
        issue is a cheap descriptor fetch."""
        self._stage = QueuePair._launch
        self.sim.sleep(self, timing.NIC_TX_CHAINED_NS if self._tx_wr.chained else timing.NIC_TX_NS)

    def _launch(self):
        # Issued right here, in the sender's context, without a start
        # record per WR.  Not while a link fault is installed: fault
        # draws come off one LCG per directed link, shared with the
        # responses of connections going the other way, so the order
        # of two draws inside a nanosecond decides which packet is
        # lost -- the start record keeps that order (DESIGN.md §17).
        flight = _Flight(self, self._tx_wr, self._issued)
        self._tx_wr = None
        if self.node.fabric.link_faults:
            flight._issue_queued()
        else:
            flight._issue()
        self._drain()

    def _dc_retarget(self, wr):
        """Hardware-offloaded DCT (re)connection before issuing ``wr``, to
        a target other than the one the QP is wired to; returns its delay.

        A small deterministic fraction of reconnections (one in
        DCT_RECONNECT_TAIL_EVERY, drawn from a per-QP LCG so it is
        reproducible yet uniform in time) needs an extra network round --
        the source of DC's 99.9th-percentile tail (Fig 14b).
        """
        self._dc_current = (wr.dct_gid, wr.dct_number)
        if obs.OBSERVER is not None:
            obs.OBSERVER.on_dc_retarget(self.sim.now, self, wr)
        delay = timing.DCT_RECONNECT_NS
        if self.sim.now - self._dc_last_retarget_ns < timing.DCT_RECONNECT_BUSY_WINDOW_NS:
            delay += timing.DCT_RECONNECT_BUSY_NS  # teardown not drained yet
        self._dc_last_retarget_ns = self.sim.now
        self._dc_lcg = (self._dc_lcg * 6364136223846793005 + 1442695040888963407) % (1 << 64)
        if (self._dc_lcg >> 33) % timing.DCT_RECONNECT_TAIL_EVERY == 0:
            delay += timing.DCT_RECONNECT_TAIL_NS
        return delay

    # ------------------------------------------------------------ completion

    def _complete(self, wr, status, byte_len=0, stale=False):
        """Generate (or account) the completion for a finished WR; a
        ``stale`` one (posted before the last reset) covers no slot."""
        if obs.OBSERVER is not None:
            obs.OBSERVER.on_wr_complete(self.sim.now, self, wr, status)
        if stale:
            covers = 0
        elif status is WC_SUCCESS and not wr.signaled:
            self._pending_unsignaled += 1
            return
        else:
            covers = self._pending_unsignaled + 1
            self._pending_unsignaled = 0
        self.send_cq.push(
            Completion(wr.wr_id, status, wr.opcode, byte_len=byte_len, qp=self, covers=covers)
        )

    def enter_error(self):
        """Move to ERR (idempotent): a failed WR, an overflow, a reboot."""
        if self.state is QPS_ERR:
            return
        self.state = QPS_ERR
        self._trace_state()
        # What is still in the send queue is flushed by the sender as it
        # gets there: behind the WRs already issued, in posting order.


class _Flight:
    """One WR's life on the network, ending with in-order completion.

    A record, not a process: the stages are plain methods and the flight
    is the target of its own timer records (``Simulator.sleep``), resumed
    once per *timed* hop only -- request wire, responder (queue wait +
    occupancy + pipeline, one timer), response wire + RX completion
    (DESIGN.md §17 has the table).  A stage that must wait names the next
    in ``_stage`` and sleeps; one that need not calls it directly.

    The arms are the retransmission machinery: a lost packet or
    unreachable responder burns one ``timeout_ns`` wait per retry, an RNR
    NAK ``rnr_timer_ns`` per ``rnr_retry``, and the flight issues again:
    everything up to the request's wire time -- local-SGE validation,
    payload fetch, link-fault draws -- reruns on every attempt.  The
    fault table is consulted only when it is non-empty.
    """

    __slots__ = (
        "qp", "wr", "ticket", "_stage", "status", "byte_len",
        "attempts_left", "rnr_left", "executed", "response_bytes", "payload",
        "remote_gid", "remote_node", "duplicated", "window", "recv",
    )

    def __init__(self, qp, wr, ticket):
        self.qp = qp
        self.wr = wr
        self.ticket = ticket
        self.status = WC_SUCCESS
        self.byte_len = 0
        self.executed = False  # remote side effects applied (exactly-once guard)

    def _resume(self, _value, _exc):
        self._stage(self)

    def _issue_queued(self):
        """Issue through a start record, behind what this instant holds."""
        self._stage = _Flight._issue
        self.qp.sim.wake(self)

    def _flush(self):
        """Never issued: the QP is in ERR.  Straight to in-order completion."""
        self.status = WC_FLUSH_ERR
        self._retire()

    # ------------------------------------------------------------ requester

    def _issue(self):
        """One attempt, up to the request's time on the wire."""
        qp = self.qp
        wr = self.wr
        node = qp.node
        fabric = node.fabric
        opcode = wr.opcode
        length = wr.length
        if opcode not in POSTABLE_OPCODES:
            return self._nak(WC_BAD_OPCODE_ERR)
        # -- local SGE validation --
        carries_payload = opcode in PAYLOAD_OPCODES
        if length == 0 and opcode is OP_SEND:
            self.payload = b""
        else:
            try:
                node.memory.check_local(wr.lkey, wr.laddr, length)
            except MemoryError_:
                return self._nak(WC_LOC_PROT_ERR)
            if carries_payload:
                self.payload = node.memory.read(wr.laddr, length)
        # -- remote addressing --
        rc = qp.qp_type is QPT_RC
        if rc:
            if qp.remote is None:
                return self._nak(WC_RETRY_EXC_ERR)
            remote_gid = qp.remote[0]
        else:
            remote_gid = wr.dct_gid
            if remote_gid is None:
                return self._nak(WC_BAD_OPCODE_ERR)
        self.remote_gid = remote_gid
        request_bytes = timing.REQUEST_HEADER_BYTES
        if carries_payload:
            request_bytes += length
        elif opcode is OP_READ_V:
            if not wr.sges:
                return self._nak(WC_BAD_OPCODE_ERR)
            request_bytes += timing.VECTORED_SGE_WIRE_BYTES * len(wr.sges)
        wire_out = fabric.one_way_ns(request_bytes)
        if opcode is OP_WRITE:
            wire_out += int(length * timing.WRITE_EXTRA_NS_PER_BYTE)
        self.duplicated = False
        if fabric.link_faults:
            fault = fabric.link_faults.get((node.gid, remote_gid))
            if fault is not None:
                if fault.drops():
                    return self._lost()
                self.duplicated = fault.duplicates()
                wire_out = fault.delay_ns(wire_out)
        sim = qp.sim
        if rc:
            # PSN ordering: an RC request never lands before its
            # predecessor on the same connection.  A no-op for
            # uniform-size traffic (arrivals already monotone); it only
            # bites when a small WR chases a large one.
            arrival = sim.now + wire_out
            if arrival < qp._req_arrival_clock:
                wire_out = qp._req_arrival_clock - sim.now
            else:
                qp._req_arrival_clock = arrival
        self._stage = _Flight._arrive
        sim.sleep(self, wire_out)

    def _lost(self):
        """The packet vanished, or nobody is there to answer it."""
        if self.qp.qp_type is QPT_UD:
            # Unreliable datagram: the sender completes and never learns.
            self._stage = _Flight._retire
            self.qp.sim.sleep(self, timing.NIC_RX_COMPLETION_NS)
        else:
            self._unanswered()

    def _unanswered(self):
        """No response will arrive: wait out the retransmission timer,
        then try again; RETRY_EXC_ERR only when the budget dies."""
        left = getattr(self, "attempts_left", self.qp.retry_cnt)  # unset before the first
        if left > 0:
            self.attempts_left = left - 1
            self._retransmit("timeout", self.qp.timeout_ns)
        else:
            self._nak(WC_RETRY_EXC_ERR)

    def _rnr(self):
        """Receiver not ready: honor the RNR retry budget."""
        qp = self.qp
        left = getattr(self, "rnr_left", qp.rnr_retry)
        if left > 0:
            self.rnr_left = left - 1
            self._retransmit("rnr", qp.rnr_timer_ns)
        else:
            self._nak(WC_RNR_ERR if qp.rnr_retry == 0 else WC_RNR_RETRY_EXC_ERR)

    def _retransmit(self, cause, wait_ns):
        qp = self.qp
        if obs.OBSERVER is not None:
            obs.OBSERVER.on_retransmit(qp.sim.now, qp, self.wr, cause)
        self._stage = _Flight._issue
        qp.sim.sleep(self, wait_ns)

    def _refused(self):
        """The responder's memory check failed."""
        return self._lost() if self.qp.qp_type is QPT_UD else self._nak(WC_REM_ACCESS_ERR)

    def _nak(self, status):
        """Fail with ``status``: the NAK still travels back before the
        requester learns of it."""
        qp = self.qp
        self.status = status
        self._stage = _Flight._retire
        qp.sim.sleep(self, qp.node.fabric.one_way_ns(0) + timing.NIC_RX_COMPLETION_NS)

    # ------------------------------------------------------------ responder

    def _arrive(self):
        """The request reaches the responder and is admitted to its
        inbound engine: queue wait, service and pipeline are one timer, so
        a contended WR costs what an idle one does."""
        qp = self.qp
        wr = self.wr
        remote_node = self.remote_node = qp.node.fabric.nodes.get(self.remote_gid)
        if remote_node is None:
            return self._lost()
        rnic = remote_node.rnic
        dc = qp.qp_type is QPT_DC
        if dc:
            target = rnic.dct_target(wr.dct_number)
            if target is None or target.key != wr.dct_key:
                return self._nak(WC_REM_ACCESS_ERR)
        opcode = wr.opcode
        sim = qp.sim
        if opcode is OP_READ or opcode is OP_WRITE:
            start, end = rnic.inbound_admit(
                timing.onesided_service_ns(opcode is OP_READ, wr.length, dc), opcode
            )
            if self.duplicated:
                # The duplicate arrives right behind the original: same
                # engine time again once that is served (joining the queue
                # behind a request arriving in that nanosecond, as a timer
                # set at service start does), then discarded by PSN.
                self.window = (start, end)
                if start > sim.now:
                    self._stage = _Flight._duplicate_queued
                    sim.sleep(self, start - sim.now)
                else:
                    self._duplicate_queued()
                return
        elif self.executed:
            # SEND/atomic retransmission after a lost response: engine
            # time only, no re-execution (exactly-once).
            return self._serve_duplicate()
        else:
            _start, end = rnic.inbound_admit(_responder_service_ns(wr, dc))
        self._stage = _Flight._execute
        sim.sleep(self, end - sim.now + timing.NIC_RESPONDER_PIPELINE_NS)

    def _duplicate_queued(self):
        """The original's service starts; the duplicate's follows its end."""
        self._stage = _Flight._duplicate_served
        self.qp.sim.sleep(self, self.window[1] - self.qp.sim.now)

    def _duplicate_served(self):
        self.duplicated = False  # dealt with
        start, end = self.window
        _start, end = self.remote_node.rnic.inbound_admit(0, self.wr.opcode, end - start)
        self._stage = _Flight._execute
        sim = self.qp.sim
        sim.sleep(self, end - sim.now + timing.NIC_RESPONDER_PIPELINE_NS)

    def _serve_duplicate(self):
        """Charge the responder for a duplicated request, or for the
        retransmission of an op whose effects already applied: the engine
        re-serves it (at the RC rate on every transport), then discards it
        by PSN -- no memory op, no delivery (exactly-once)."""
        _start, end = self.remote_node.rnic.inbound_admit(
            _responder_service_ns(self.wr, False)
        )
        self._stage = _Flight._respond
        sim = self.qp.sim
        sim.sleep(self, end - sim.now + timing.NIC_RESPONDER_PIPELINE_NS)

    def _execute(self):
        """The memory-op instant, at the end of the responder pipeline."""
        qp = self.qp
        wr = self.wr
        memory = self.remote_node.memory
        opcode = wr.opcode
        if not self.remote_node.alive:
            return self._lost() if opcode is OP_SEND else self._unanswered()
        if self.executed:
            # READ/WRITE retransmission after a lost response: the
            # responder resends by PSN without re-executing.
            return self._respond()
        if opcode is OP_SEND:
            return self._deliver()
        response_bytes = 0
        try:
            if opcode is OP_READ:
                memory.check_remote(wr.rkey, wr.raddr, wr.length)
                qp.node.memory.write(wr.laddr, memory.read(wr.raddr, wr.length))
                if obs.OBSERVER is not None:
                    obs.OBSERVER.on_read_executed(qp.sim, self.remote_gid, wr.rkey)
                response_bytes = wr.length
            elif opcode is OP_WRITE:
                memory.check_remote(wr.rkey, wr.raddr, wr.length)
                memory.write(wr.raddr, self.payload)
            elif opcode is OP_READ_V:
                # Segments are validated and gathered in order, scattering
                # back-to-back into the local buffer.
                offset = 0
                for raddr, rkey, seg_len in wr.sges:
                    memory.check_remote(rkey, raddr, seg_len)
                    qp.node.memory.write(wr.laddr + offset, memory.read(raddr, seg_len))
                    if obs.OBSERVER is not None:
                        obs.OBSERVER.on_read_executed(qp.sim, self.remote_gid, rkey)
                    offset += seg_len
                response_bytes = wr.length
            else:  # CAS / FETCH_ADD
                memory.check_remote(wr.rkey, wr.raddr, 8)
                old = int.from_bytes(memory.read(wr.raddr, 8), "big")
                if opcode is OP_CAS:
                    if old == wr.compare:
                        memory.write(wr.raddr, wr.swap.to_bytes(8, "big"))
                else:
                    memory.write(wr.raddr, ((old + wr.compare) % (1 << 64)).to_bytes(8, "big"))
                qp.node.memory.write(wr.laddr, old.to_bytes(8, "big"))
                response_bytes = 8
        except MemoryError_:
            return self._refused()
        fabric = qp.node.fabric
        if self.duplicated or fabric.link_faults:
            return self._executed(response_bytes)
        # _executed and _respond, inline: no duplicate to re-serve and no
        # fault to draw for the response.
        self.executed = True
        self.response_bytes = response_bytes
        self.byte_len = wr.length
        self._stage = _Flight._retire
        qp.sim.sleep(self, fabric.one_way_ns(response_bytes) + timing.NIC_RX_COMPLETION_NS)

    def _deliver(self):
        """Claim the recv buffer (SRQ slot for DCT) an inbound SEND lands
        in."""
        qp = self.qp
        wr = self.wr
        rnic = self.remote_node.rnic
        if qp.qp_type is QPT_DC:
            target = rnic.dct_target(wr.dct_number)
            buffers, cq, receiver_qp = target.srq, target.recv_cq, None
        else:
            # UD: dct_number doubles as the target QPN.
            receiver_qp = rnic.qp(qp.remote[1] if qp.qp_type is QPT_RC else wr.dct_number)
            if receiver_qp is None:
                return self._nak(WC_RETRY_EXC_ERR)
            buffers, cq = receiver_qp._recv_buffers, receiver_qp.recv_cq
        if not buffers or cq is None or len(self.payload) > buffers[0].length:
            return self._lost() if qp.qp_type is QPT_UD else self._rnr()
        self.recv = (buffers.pop(0), cq, receiver_qp)
        self._stage = _Flight._delivered
        qp.sim.sleep(
            self, timing.SEND_DELIVERY_NS if self.payload else timing.SEND_DELIVERY_HEADER_NS)

    def _delivered(self):
        """Copy the payload into the claimed buffer; raise the receiver-side
        CQE."""
        qp = self.qp
        recv_buffer, cq, receiver_qp = self.recv
        try:
            self.remote_node.memory.write(recv_buffer.addr, self.payload)
        except MemoryError_:
            return self._refused()
        cq.push(Completion(
            recv_buffer.wr_id, WC_SUCCESS, OP_RECV, byte_len=len(self.payload),
            src=(qp.node.gid, qp.qpn), header=self.wr.header, qp=receiver_qp,
        ))
        self._executed(0)

    def _executed(self, response_bytes):
        """Remote effects applied -- once, whatever is retransmitted."""
        self.executed = True
        self.response_bytes = response_bytes
        if self.duplicated:
            self._serve_duplicate()
        else:
            self._respond()

    def _respond(self):
        """The response's time on the wire.  Wire and RX completion
        processing are one timer: nothing observes the instant between."""
        qp = self.qp
        node = qp.node
        fabric = node.fabric
        rfault = None
        if fabric.link_faults:
            rfault = fabric.link_faults.get((self.remote_gid, node.gid))
            if rfault is not None and rfault.drops():
                return self._lost()
        wire_back = fabric.one_way_ns(self.response_bytes)
        if rfault is not None:
            wire_back = rfault.delay_ns(wire_back)
        self.byte_len = self.wr.length  # nothing can fail it from here on
        self._stage = _Flight._retire
        qp.sim.sleep(self, wire_back + timing.NIC_RX_COMPLETION_NS)

    # ----------------------------------------------------------- completion

    def _retire(self):
        """Deliver completions in posting order (RC FIFO, §4.6): a flight
        that finishes ahead of its predecessor parks under its ticket and
        is woken by it; the common in-order finish allocates nothing."""
        qp = self.qp
        ticket = self.ticket
        if qp._completed != ticket - 1:
            if qp._order_waits is None:
                qp._order_waits = {}
            qp._order_waits[ticket] = self
            self._stage = _Flight._retire
            return
        status = self.status
        if ticket <= qp._reset_ticket:
            # Posted before the last reset(): not the new incarnation's to count.
            qp._complete(self.wr, WC_FLUSH_ERR, stale=True)
        elif status is not WC_SUCCESS:
            qp._complete(self.wr, status)
            qp.enter_error()
        elif qp.state is QPS_ERR:
            # A preceding request wrecked the QP: this one's remote effects
            # stand, but it completes flushed, like outstanding WRs on a
            # real NIC after an error.
            qp._complete(self.wr, WC_FLUSH_ERR)
        else:
            qp._complete(self.wr, status, self.byte_len)
        qp._completed = ticket
        if qp._order_waits:
            successor = qp._order_waits.pop(ticket + 1, None)
            if successor is not None:
                qp.sim.wake(successor)


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
    if opcode in ATOMIC_OPCODES:
        return timing.ATOMIC_RESPONDER_SERVICE_NS
    return timing.SEND_RESPONDER_SERVICE_NS
