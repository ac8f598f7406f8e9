"""Two-sided kernel messaging (§4.4-4.6): one collaborator per module.

:class:`KernelMessaging` owns what a KRCORE module needs to carry
two-sided traffic for its VQPs and for kernel-to-kernel control:

* the kernel receive buffer pool -- slot ``s`` is the ``buf_bytes`` at
  ``buf_base + s * buf_bytes`` -- the DCT target's stocked SRQ, and the
  receive queues of kernel RC QPs (:meth:`arm_rc`);
* one dispatcher per physical receive CQ, routing each message to the VQP
  it names, to a bound port, or to the kernel port, and the kernel
  daemon serving that port -- sleepers, not processes (DESIGN.md §11);
* port queues, ``bind`` / ``unbind`` and the reply VQPs of ``qpop_msgs``;
* the control messages: MR publish / retract and the §4.6 transfer
  notification and its acknowledgment;
* delivery into user buffers, by copy or zero-copy READ (§4.5).

§4.4 assumes "the pre-posted buffers can always hold the incoming
message": a receive queue that consumed a buffer while the pool was dry
is owed one, and the next freed slot goes to the oldest queue owed one.
"""

from collections import deque

from repro.cluster import timing
from repro.krcore.meta import mr_key
from repro.krcore.vqp import KrcoreError
from repro.sim import AnyOf
from repro.verbs import Completion, CompletionQueue, RecvBuffer, WorkRequest
from repro.verbs.types import OP_RECV, QPS_ERR, WC_SUCCESS

#: Reserved port for kernel-to-kernel control messages.
KERNEL_PORT = 0

#: Kernel buffers a kernel RC QP's receive queue is armed with.
RC_RECV_BUFFERS = 8


class _MsgQueue:
    """A FIFO list of routed messages; a process waits on it, a sleeper
    parks on it."""

    def __init__(self, sim):
        self.sim = sim
        self.items = []
        self._waiters = []

    def __len__(self):
        return len(self.items)

    def append(self, item):
        self.items.append(item)
        if self._waiters:
            waiters, self._waiters = self._waiters, []
            for waiter in waiters:
                self.sim.notify(waiter)

    def wait(self):
        event = self.sim.event()
        self.park(event)
        return event

    def park(self, waiter):
        """Notify ``waiter`` (an ``Event`` or a sleeper) when the queue is
        (or becomes) non-empty."""
        if self.items:
            self.sim.notify(waiter)
        else:
            self._waiters.append(waiter)


class _Dispatcher:
    """One physical receive CQ's dispatcher, a sleeper (DESIGN.md §11):
    its start record parks it on the CQ; each wake routes what one poll
    returns and parks it again."""

    __slots__ = ("messaging", "cq", "qp")

    def __init__(self, messaging, cq, qp):
        self.messaging, self.cq, self.qp = messaging, cq, qp
        messaging.sim.schedule(0, lambda: cq.park(self))

    def _resume(self, _value, _exc):
        for wc in self.cq.poll(128):
            self.messaging._route_message(wc, self.qp)
        self.cq.park(self)


class KernelMessaging:
    """One module's two-sided kernel messaging (see the module docstring).

    Built at module load, after the DCT target: it allocates and registers
    the buffer pool, stocks the SRQ and starts the DCT target's dispatcher.
    The module starts the kernel daemon (:meth:`serve_kernel_port`) once
    its meta records are out.
    """

    #: How long to wait for a transfer acknowledgment before concluding
    #: the peer is gone (no reply can ever arrive from a dead node).
    TRANSFER_ACK_TIMEOUT_NS = 10 * 1_000_000

    def __init__(self, module, buf_bytes, buf_count, zero_copy, zero_copy_threshold):
        node = module.node
        self.module = module
        self.node = node
        self.sim = module.sim
        self.zero_copy = zero_copy
        self.buf_bytes = buf_bytes
        self.zero_copy_threshold = (
            buf_bytes if zero_copy_threshold is None else zero_copy_threshold
        )
        self.buf_base = node.memory.alloc(buf_bytes * buf_count)
        self.buf_region = node.memory.register(self.buf_base, buf_bytes * buf_count)
        # Stock the SRQ deep (keeping a small reserve for kernel RCQPs):
        # deployments size buf_count for their expected in-flight message
        # burst.  The stock is posted unbuilt: a slot becomes a RecvBuffer
        # when a message claims it.
        stocked = buf_count - min(64, buf_count // 4)
        target = module.dct_target
        target.stock_srq(range(stocked), self.buffer)
        self.free_slots = deque(range(stocked, buf_count))
        #: Receive queues owed a buffer, oldest first: a kernel RC QP, or
        #: None for the DCT target's SRQ.  Non-empty only while
        #: ``free_slots`` is empty.
        self.owed = deque()
        _Dispatcher(self, target.recv_cq, None)
        self.port_queues = {}
        self.bound = {}  # port -> Vqp
        self.reply_vqps = {}  # (port, src_gid, src_vqp) -> Vqp
        self._transfer_acks = {}  # (gid, vqp_id) -> event

    # ------------------------------------------------------ kernel buffers

    def buffer(self, slot):
        return RecvBuffer(
            self.buf_base + slot * self.buf_bytes,
            self.buf_bytes,
            self.buf_region.lkey,
            wr_id=slot,
        )

    def _post(self, qp, slot):
        if qp is None:
            self.module.dct_target.post_srq(self.buffer(slot))
        else:
            qp.post_recv(self.buffer(slot))

    def _restock(self, qp):
        """Post a free kernel buffer to ``qp``'s receive queue (None: the
        SRQ), or owe the queue one while the pool is dry."""
        if self.free_slots:
            self._post(qp, self.free_slots.popleft())
        else:
            self.owed.append(qp)

    def _recycle(self, slot):
        """Give a freed slot to the oldest receive queue still owed one --
        dropping those of QPs since retired, invalidated or wrecked -- or
        back to the pool."""
        owed = self.owed
        while owed:
            qp = owed.popleft()
            if qp is None or (qp.state is not QPS_ERR and qp.node.rnic.qp(qp.qpn) is qp):
                self._post(qp, slot)
                return
        self.free_slots.append(slot)

    def release(self, msg):
        """Free a routed message's kernel buffer (once)."""
        if msg["released"]:
            return
        msg["released"] = True
        self._recycle(msg["slot"])

    def arm_rc(self, qp):
        """Wire a kernel RC QP for receive: its own receive CQ (so the
        dispatcher never steals send completions from ``poll_inner``),
        :data:`RC_RECV_BUFFERS` kernel buffers and a dispatcher."""
        qp.recv_cq = CompletionQueue(self.sim)
        for _ in range(RC_RECV_BUFFERS):
            self._restock(qp)
        _Dispatcher(self, qp.recv_cq, qp)

    # ------------------------------------------------------------- routing

    def _route_message(self, wc, qp):
        header = wc.header or {}
        msg = {"header": header, "slot": wc.wr_id, "len": wc.byte_len, "released": False}
        # Keep the receive queue stocked while the slot is in use.
        self._restock(qp)
        dst_vqp = header.get("dst_vqp")
        if dst_vqp is not None:
            vqp = self.module.vqps_by_id.get(dst_vqp)
            if vqp is None:
                self.release(msg)
                return
            vqp.enqueue("pending_msgs", msg)
            self._vqp_msg_arrived(vqp)
            return
        port = header.get("dst_port")
        if port is None or (port != KERNEL_PORT and port not in self.bound):
            self.release(msg)  # no receiver: drop
            return
        self._port_queue(port).append(msg)

    def _port_queue(self, port):
        queue = self.port_queues.get(port)
        if queue is None:
            queue = self.port_queues[port] = _MsgQueue(self.sim)
        return queue

    def bind(self, port, vqp):
        """qbind: accept two-sided connections on ``port``."""
        if port == KERNEL_PORT:
            raise KrcoreError("port 0 is reserved for the kernel")
        if port in self.bound:
            raise KrcoreError(f"port {port} already bound")
        self.bound[port] = vqp
        vqp.ensure_two_sided().bound_port = port

    def unbind(self, port):
        """Release a bound port (the VQP keeps working for sends).  Messages
        still queued on it are dropped, as routing drops one for an unbound
        port, and their kernel buffers freed."""
        vqp = self.bound.pop(port, None)
        if vqp is None:
            return
        vqp.two_sided.bound_port = None
        queue = self.port_queues.get(port)
        if queue is not None:
            for msg in queue.items:
                self.release(msg)
            queue.items.clear()

    def forget(self, state):
        """Unlink a destroyed VQP's two-sided record: its port, its reply
        slot and the kernel buffers of messages it never delivered."""
        if state.bound_port is not None:
            self.unbind(state.bound_port)
        if state.reply_key is not None:
            del self.reply_vqps[state.reply_key]
        for msg in state.pending_msgs:
            self.release(msg)

    # ------------------------------------------------------ control messages

    def send_kernel_msg(self, gid, header):
        """Process: a zero-payload two-sided message to ``gid``'s kernel."""
        module = self.module
        header = dict(header)
        header.setdefault("dst_port", KERNEL_PORT)
        header.setdefault("src_gid", self.node.gid)
        header.setdefault("src_dct_meta", module.own_dct_meta)
        wr = WorkRequest.send(0, 0, 0, header=header)
        qp, meta = yield from module.target_qp(0, gid)
        wc = yield from module.post_signaled(qp, wr, gid, meta, cpu_ns=0)
        if wc.status is not WC_SUCCESS:
            raise KrcoreError(
                f"kernel message to {gid} failed: {wc.status}", code=wc.status
            )

    def announce_mr(self, region, retract=False):
        """Process: publish (or retract) ``region``'s meta record with one
        kernel message per owning shard host (replication): each host
        applies it to its local shard."""
        gid = self.node.gid
        for owner in self.module.meta_plane.owner_gids(mr_key(gid, region.rkey)):
            if retract:
                header = {"type": "retract_mr", "gid": gid, "rkey": region.rkey}
            else:
                header = {
                    "type": "publish_mr",
                    "gid": gid,
                    "rkey": region.rkey,
                    "addr": region.addr,
                    "len": region.length,
                }
            yield from self.send_kernel_msg(owner, header)

    def serve_kernel_port(self):
        """Start the kernel daemon (this object): its start record parks it
        on the kernel port."""
        self.sim.schedule(0, lambda: self._port_queue(KERNEL_PORT).park(self))

    def _resume(self, _value, _exc):
        """The kernel daemon's wake: a handler process a message, then park."""
        queue = self.port_queues[KERNEL_PORT]
        while queue.items:
            msg = queue.items.pop(0)
            self.release(msg)
            self.sim.process(
                self._handle_kernel_msg(msg["header"]),
                name=f"krcore-kmsg@{self.node.gid}",
            )
        queue.park(self)

    def _handle_kernel_msg(self, header):
        kind = header.get("type")
        shard = self.module.local_shard
        if kind == "publish_mr":
            if shard is None:
                raise KrcoreError("publish_mr sent to a non-meta node")
            shard.publish_mr(header["gid"], header["rkey"], header["addr"], header["len"])
        elif kind == "retract_mr":
            if shard is None:
                raise KrcoreError("retract_mr sent to a non-meta node")
            shard.retract_mr(header["gid"], header["rkey"])
        elif kind == "transfer":
            yield from self._handle_peer_transfer(header)
            return
        elif kind == "transfer_ack":
            event = self._transfer_acks.pop((header["src_gid"], header["to_vqp"]), None)
            if event is not None and not event.triggered:
                event.trigger(None)
        yield 0  # all handlers are processes

    def notify_peer_transfer(self, vqp):
        """Process: tell the two-sided peer to re-virtualize its side and
        wait for the acknowledgment (§4.6: "For correctness, we must wait
        for the remote acknowledgments").  A dead peer cannot ack; after a
        timeout the transfer proceeds (its replies can never arrive on the
        old QP either)."""
        gid, peer_vqp_id = vqp.two_sided.peer
        ack = self.sim.event()
        self._transfer_acks[(gid, vqp.id)] = ack
        try:
            yield from self.send_kernel_msg(
                gid, {"type": "transfer", "to_vqp": peer_vqp_id, "from_vqp": vqp.id}
            )
        except KrcoreError:
            # The notification itself failed (peer unreachable): give up
            # on the ack and let the caller swap.
            self._transfer_acks.pop((gid, vqp.id), None)
            return
        yield AnyOf([ack, self.sim.timeout(self.TRANSFER_ACK_TIMEOUT_NS)])
        self._transfer_acks.pop((gid, vqp.id), None)

    def _handle_peer_transfer(self, header):
        vqp = self.module.vqps_by_id.get(header["to_vqp"])
        if vqp is not None and vqp.qp is not None:
            new_qp, meta = yield from self.module.target_qp(vqp.cpu_id, vqp.remote_gid)
            if meta is not None:
                vqp.dct_meta = meta
            # A transfer already running re-virtualizes this side anyway
            # (waiting for it here could deadlock two peers that promote
            # at once: each holds its switch for the other's ack).
            if not vqp.transferring:
                yield from vqp.transfer_to(new_qp, notify_peer=False)
        yield from self.send_kernel_msg(
            header["src_gid"], {"type": "transfer_ack", "to_vqp": header["from_vqp"]}
        )

    # ------------------------------------------------------------- delivery

    def _vqp_msg_arrived(self, vqp):
        waiters = vqp.two_sided.msg_waiters
        if waiters:
            for event in waiters:
                if not event.triggered:
                    event.trigger(None)
            waiters.clear()

    def vqp_msg_event(self, vqp):
        """Event that fires when a message addressed to ``vqp`` is (or
        gets) pending."""
        event = self.sim.event()
        state = vqp.ensure_two_sided()
        if state.pending_msgs:
            event.trigger(None)
        else:
            if state.msg_waiters is None:
                state.msg_waiters = []
            state.msg_waiters.append(event)
        return event

    def deliver_vqp_msgs(self, vqp):
        """Process: move messages addressed to ``vqp`` into its posted user
        buffers, producing recv completions (copy or zero-copy)."""
        state = vqp.two_sided
        if state is None:
            return
        while state.pending_msgs and state.recv_queue:
            msg = state.pending_msgs.pop(0)
            completion = yield from self._land(vqp, msg, state.recv_queue.pop(0))
            vqp.enqueue("recv_completions", completion)

    def _land(self, vqp, msg, user_buf):
        """Process: land ``msg`` in ``user_buf`` by the copy path or the
        zero-copy READ path (§4.5); returns the receive completion."""
        header = msg["header"]
        zc = header.get("zc")
        yield timing.TWO_SIDED_SERVER_CPU_KERNEL_NS - timing.TWO_SIDED_SERVER_CPU_NS
        if zc is not None:
            self.release(msg)  # descriptor slot freed immediately
            if zc["len"] > user_buf.length:
                raise KrcoreError(
                    f"zero-copy payload of {zc['len']}B exceeds the user's "
                    f"{user_buf.length}B receive buffer"
                )
            wr = WorkRequest.read(
                user_buf.addr, zc["len"], user_buf.lkey, zc["addr"], zc["rkey"]
            )
            # Addressed with the sender's DCT metadata, which every kernel
            # message header carries: no lookup, nothing stale to re-post.
            gid = header["src_gid"]
            qp, meta = yield from self.module.target_qp(vqp.cpu_id, gid, header["src_dct_meta"])
            wc = yield from self.module.post_signaled(qp, wr, gid, meta)
            if wc.status is not WC_SUCCESS:
                raise KrcoreError(f"zero-copy READ failed: {wc.status}", code=wc.status)
            byte_len = zc["len"]
        else:
            byte_len = min(msg["len"], user_buf.length)
            yield int(byte_len * timing.MEMCPY_NS_PER_BYTE)
            payload = self.node.memory.read(
                self.buf_base + msg["slot"] * self.buf_bytes, byte_len
            )
            self.node.memory.write(user_buf.addr, payload)
            self.release(msg)
        return Completion(
            user_buf.wr_id,
            WC_SUCCESS,
            OP_RECV,
            byte_len=byte_len,
            src=(header.get("src_gid"), header.get("src_vqp")),
            header=header,
        )

    def qpop_msgs(self, vqp, max_msgs, cpu_id):
        """Process: §4.4 qpop_msgs -- drain the bound port's messages into
        the VQP's user buffers and hand back (reply-VQP, completion) pairs;
        wait until there is at least one.

        The reply VQP is connected with the piggybacked DCT metadata, so no
        additional network request is ever issued.  ``cpu_id`` selects the
        hybrid pool the reply VQPs virtualize from -- the calling thread's
        CPU, like the real per-CPU kernel handler (§4.2).
        """
        results = []
        while True:
            state = vqp.two_sided
            if state is None or state.bound_port is None:
                raise KrcoreError(f"VQP {vqp.id} is not bound; call qbind first")
            queue = self._port_queue(state.bound_port)
            while len(queue) and len(results) < max_msgs and state.recv_queue:
                msg = queue.items.pop(0)
                completion = yield from self._land(vqp, msg, state.recv_queue.pop(0))
                reply_vqp = yield from self._reply_vqp(vqp, msg["header"], cpu_id)
                results.append((reply_vqp, completion))
            if results:
                return results
            yield queue.wait()

    def _reply_vqp(self, bound_vqp, header, cpu_id):
        key = (bound_vqp.two_sided.bound_port, header["src_gid"], header["src_vqp"])
        vqp = self.reply_vqps.get(key)
        if vqp is not None:
            return vqp
        # Piggybacked metadata primes the DCCache: the connect below never
        # queries the meta server.
        meta = header.get("src_dct_meta")
        if meta is not None:
            self.module.dc_cache.setdefault(header["src_gid"], tuple(meta))
        vqp = self.module.create_vqp(cpu_id=cpu_id)
        yield from vqp.connect(header["src_gid"])
        state = vqp.ensure_two_sided()
        state.peer = (header["src_gid"], header["src_vqp"])
        state.reply_key = key
        self.reply_vqps[key] = vqp
        return vqp
