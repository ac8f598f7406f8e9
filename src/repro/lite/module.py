"""The LITE kernel module: connection pool + high-level API."""

from repro.cluster import timing
from repro.verbs import (
    CompletionQueue,
    ConnectionManager,
    DriverContext,
    RecvBuffer,
    WorkRequest,
)
from repro.verbs.connection import rc_connect
from repro.verbs.errors import VerbsError
from repro.verbs.types import OP_FETCH_ADD, OP_RECV, QPT_RC

#: The well-known port LITE modules accept each other's connections on.
LITE_PORT = 9


class LiteError(VerbsError):
    """A LITE operation failed (remote error, wrecked QP, ...)."""


class LiteModule:
    """Per-node LITE kernel module.

    One RCQP per remote node, shared by every local thread -- LITE's
    actual design, and the root of its overflow flaw (Issue #3).
    """

    SERVICE = "lite"

    def __init__(self, node, rpc_buffers=64, rpc_buf_bytes=4096):
        self.node = node
        self.sim = node.sim
        self.context = DriverContext(node, kernel=True)
        #: gid -> the (single, shared) RCQP to that node.
        self.pool = {}
        #: gid -> in-progress connection event, to dedupe concurrent misses.
        self._connecting = {}
        self.stats_cache_misses = 0
        #: Registered RPC handler: fn(request_bytes) -> response_bytes.
        self._rpc_handler = None
        self._rpc_buf_bytes = rpc_buf_bytes
        base = node.memory.alloc(rpc_buffers * rpc_buf_bytes)
        self._rpc_region = node.memory.register(base, rpc_buffers * rpc_buf_bytes)
        self._rpc_free = list(range(rpc_buffers))
        self._rpc_base = base
        self._reply_events = {}
        self._next_rpc_id = 1
        node.services[self.SERVICE] = self
        manager = node.services.get(ConnectionManager.SERVICE)
        if manager is None:
            manager = ConnectionManager(node, self.context)
        manager.listen(LITE_PORT, self._on_accept)

    # ------------------------------------------------------------- connections

    def _on_accept(self, qp, client_gid):
        # Own the send CQ (the daemon's accept CQ is shared across
        # services), then keep the QP so traffic back to the client
        # reuses it.
        qp.send_cq = CompletionQueue(self.sim)
        qp.recv_cq = CompletionQueue(self.sim)
        self._arm_rpc(qp)
        self.pool.setdefault(client_gid, qp)

    # --------------------------------------------------------------- LITE RPC

    def rpc_register(self, handler):
        """Register the node's RPC handler: fn(request_bytes) -> bytes."""
        self._rpc_handler = handler

    def _arm_rpc(self, qp):
        """Stock a QP's receive side and start its message dispatcher."""
        for _ in range(16):
            self._post_rpc_buffer(qp)
        self.sim.process(self._rpc_dispatcher(qp), name=f"lite-rpc@{self.node.gid}")

    def _post_rpc_buffer(self, qp):
        if not self._rpc_free:
            return
        slot = self._rpc_free.pop()
        qp.post_recv(
            RecvBuffer(
                self._rpc_base + slot * self._rpc_buf_bytes,
                self._rpc_buf_bytes,
                self._rpc_region.lkey,
                wr_id=slot,
            )
        )

    def _rpc_dispatcher(self, qp):
        while True:
            completions = yield from qp.recv_cq.wait_poll(8)
            for completion in completions:
                if completion.opcode is not OP_RECV:
                    continue
                self.sim.process(self._handle_rpc_message(qp, completion))

    def _handle_rpc_message(self, qp, completion):
        header = completion.header or {}
        slot = completion.wr_id
        payload = self.node.memory.read(
            self._rpc_base + slot * self._rpc_buf_bytes, completion.byte_len
        )
        self._rpc_free.append(slot)
        self._post_rpc_buffer(qp)
        kind = header.get("lite")
        if kind == "reply":
            event = self._reply_events.pop(header["rpc_id"], None)
            if event is not None and not event.triggered:
                event.trigger(payload)
            yield 0
            return
        if kind != "request":
            yield 0
            return
        if self._rpc_handler is None:
            raise LiteError(f"{self.node.gid}: RPC request but no handler registered")
        yield timing.TWO_SIDED_SERVER_CPU_NS  # handler thread cost
        response = self._rpc_handler(payload)
        yield from self._send_message(
            qp, response, {"lite": "reply", "rpc_id": header["rpc_id"]}
        )

    def _send_message(self, qp, payload, header):
        if len(payload) > self._rpc_buf_bytes:
            raise LiteError(
                f"LITE RPC message of {len(payload)}B exceeds the "
                f"{self._rpc_buf_bytes}B buffers"
            )
        if not self._rpc_free:
            raise LiteError("out of LITE RPC buffers")
        slot = self._rpc_free.pop()
        addr = self._rpc_base + slot * self._rpc_buf_bytes
        self.node.memory.write(addr, payload)
        yield timing.POST_SEND_CPU_NS
        qp.post_send(
            WorkRequest.send(addr, len(payload), self._rpc_region.lkey, header=header)
        )
        completions = yield from qp.send_cq.wait_poll()
        if not completions[0].ok:
            raise LiteError(
                f"RPC send failed: {completions[0].status}",
                code=completions[0].status,
            )
        self._rpc_free.append(slot)

    def rpc_call(self, gid, request):
        """Process: LITE's synchronous RPC -- send ``request`` bytes to the
        remote node's registered handler, return its response bytes."""
        yield timing.SYSCALL_NS
        qp = yield from self.ensure_qp(gid)
        rpc_id = (self.node.gid, self._next_rpc_id)
        self._next_rpc_id += 1
        event = self.sim.event()
        self._reply_events[rpc_id] = event
        yield from self._send_message(qp, request, {"lite": "request", "rpc_id": rpc_id})
        response = yield event
        yield timing.POLL_CQ_CPU_NS
        return response

    def ensure_qp(self, gid):
        """Process: return the cached QP for ``gid``, connecting on a miss.

        A miss costs the full Create+Configure control path (~2 ms,
        Issue #1); concurrent misses for the same gid share one handshake.
        """
        qp = self.pool.get(gid)
        if qp is not None:
            return qp
        pending = self._connecting.get(gid)
        if pending is not None:
            yield pending
            return self.pool[gid]
        event = self.sim.event()
        self._connecting[gid] = event
        self.stats_cache_misses += 1
        try:
            cq = CompletionQueue(self.sim)
            qp = yield from rc_connect(self.context, cq, gid, port=LITE_PORT)
            # Separate receive CQ + dispatcher so RPC replies can land.
            qp.recv_cq = CompletionQueue(self.sim)
            self._arm_rpc(qp)
            self.pool[gid] = qp
        finally:
            del self._connecting[gid]
            event.trigger(None)
        return qp

    def prewarm(self, remote_module):
        """Wire a ready QP pair to ``remote_module`` without charging time.

        Boot-time helper for data-path experiments whose caches start warm.
        """
        local_cq = CompletionQueue(self.sim)
        remote_cq = CompletionQueue(remote_module.sim)
        local_qp = self.context.create_qp_fast(
            QPT_RC, local_cq, recv_cq=CompletionQueue(self.sim)
        )
        remote_qp = remote_module.context.create_qp_fast(
            QPT_RC, remote_cq, recv_cq=CompletionQueue(remote_module.sim)
        )
        local_qp.to_init()
        local_qp.to_rtr((remote_module.node.gid, remote_qp.qpn))
        local_qp.to_rts()
        remote_qp.to_init()
        remote_qp.to_rtr((self.node.gid, local_qp.qpn))
        remote_qp.to_rts()
        self._arm_rpc(local_qp)
        remote_module._arm_rpc(remote_qp)
        self.pool[remote_module.node.gid] = local_qp
        remote_module.pool[self.node.gid] = remote_qp

    # ------------------------------------------------------------ high-level API

    def read(self, gid, laddr, lkey, raddr, rkey, length):
        """Process: synchronous remote memory read (LITE's lt_read)."""
        yield from self._sync_one_sided(
            gid, WorkRequest.read(laddr, length, lkey, raddr, rkey)
        )

    def write(self, gid, laddr, lkey, raddr, rkey, length):
        """Process: synchronous remote memory write (LITE's lt_write)."""
        yield from self._sync_one_sided(
            gid, WorkRequest.write(laddr, length, lkey, raddr, rkey)
        )

    def cas(self, gid, laddr, lkey, raddr, rkey, compare, swap):
        """Process: synchronous remote compare-and-swap; the old value
        lands in the local buffer."""
        yield from self._sync_one_sided(
            gid, WorkRequest.cas(laddr, lkey, raddr, rkey, compare, swap)
        )

    def fetch_add(self, gid, laddr, lkey, raddr, rkey, delta):
        """Process: synchronous remote fetch-and-add; the old value lands
        in the local buffer."""
        wr = WorkRequest(
            OP_FETCH_ADD,
            laddr=laddr,
            length=8,
            lkey=lkey,
            raddr=raddr,
            rkey=rkey,
            compare=delta,
        )
        yield from self._sync_one_sided(gid, wr)

    def _sync_one_sided(self, gid, wr):
        yield timing.SYSCALL_NS
        qp = yield from self.ensure_qp(gid)
        yield timing.POST_SEND_CPU_NS
        qp.post_send(wr)
        completions = yield from qp.send_cq.wait_poll()
        yield timing.POLL_CQ_CPU_NS
        completion = completions[0]
        if not completion.ok:
            raise LiteError(f"remote op failed: {completion.status}", code=completion.status)

    # ------------------------------------------------------- async (flawed) path

    def post_async(self, gid, wrs):
        """Forward a batch straight to the shared QP -- LITE performs *no*
        capacity pre-check, so concurrent posters can overflow the QP and
        wreck it (Issue #3, Fig 15b).  The QP must already be cached.

        Raises QpOverflowError / QpError exactly when the hardware would.
        """
        qp = self.pool.get(gid)
        if qp is None:
            raise LiteError(f"no cached QP for {gid}; connect first")
        qp.post_send(wrs)
        return qp

    def poll_async(self, gid, num_entries=1):
        qp = self.pool.get(gid)
        if qp is None:
            raise LiteError(f"no cached QP for {gid}")
        return qp.send_cq.poll(num_entries)

    # ------------------------------------------------------------------- memory

    def connection_cache_bytes(self, num_connections=None):
        """Driver memory held by the RCQP cache (Fig 15a / Issue #2)."""
        count = len(self.pool) if num_connections is None else num_connections
        return count * timing.rc_qp_memory_bytes()

    @staticmethod
    def cache_bytes_for(num_connections):
        """Memory LITE needs to cache ``num_connections`` RCQPs."""
        return num_connections * timing.rc_qp_memory_bytes()
