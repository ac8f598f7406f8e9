"""The LITE kernel module: connection pool + high-level API."""

from repro.cluster import timing
from repro.verbs import (
    CompletionQueue,
    ConnectionManager,
    DriverContext,
    WorkRequest,
)
from repro.verbs.connection import rc_connect, wire_rc_pair
from repro.verbs.errors import VerbsError
from repro.verbs.types import OP_FETCH_ADD, QPT_RC

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

    def __init__(self, node):
        self.node = node
        self.sim = node.sim
        self.context = DriverContext(node, kernel=True)
        #: gid -> the (single, shared) RCQP to that node.
        self.pool = {}
        #: gid -> in-progress connection event, to dedupe concurrent misses.
        self._connecting = {}
        self.stats_cache_misses = 0
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
        self.pool.setdefault(client_gid, qp)

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
        local_qp = self.context.create_qp_fast(QPT_RC, local_cq)
        remote_qp = remote_module.context.create_qp_fast(QPT_RC, remote_cq)
        wire_rc_pair(local_qp, remote_qp)
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

    # ------------------------------------------------------------------- memory

    @staticmethod
    def cache_bytes_for(num_connections):
        """Memory LITE needs to cache ``num_connections`` RCQPs."""
        return num_connections * timing.RC_QP_MEMORY_BYTES
