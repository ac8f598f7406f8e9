"""The user-space shim: KRCORE's programming interface (§4.1, Fig 7).

The real system exposes the kernel via ioctl plus a ~100-line C shim; here
:class:`KrcoreLib` plays that role.  Every entry into the kernel charges
one syscall (~0.9 us); synchronous helpers use a single *blocking* ioctl
that posts and waits, which is why a sync 8B READ costs baseline + ~1 us
(Fig 12a) rather than two crossings.
"""

from repro.cluster import timing
from repro.krcore.vqp import KrcoreError
from repro.obs import metrics as _metrics
from repro.obs import trace as _trace
from repro.verbs import WorkRequest

#: Messages one ``post_and_qpop`` ioctl hands back at most.
QPOP_MAX_MSGS = 32


class KrcoreLib:
    """A per-application (per-thread) handle to the node's KRCORE module.

    ``cpu_id`` pins the handle to one CPU's hybrid QP pool (§4.2: pools
    are per-CPU; each QP is typically used by one thread).
    """

    def __init__(self, node, cpu_id=0):
        module = node.services.get("krcore")
        if module is None:
            raise KrcoreError(f"{node.gid} has no KRCORE module loaded")
        self.module = module
        self.node = node
        self.sim = node.sim
        self.cpu_id = cpu_id

    def enter_kernel(self):
        """Process: one syscall, as a ``syscall`` span when traced.
        ``create_vqp``, ``qconnect`` and ``post_send_and_wait`` yield the
        untraced charge in their own frame instead."""
        if _trace.TRACER is not None:
            track = self.module.track
            _trace.TRACER.begin(self.sim.now, track, "syscall")
            yield timing.SYSCALL_NS
            _trace.TRACER.end(self.sim.now, track, "syscall")
        else:
            yield timing.SYSCALL_NS

    # -------------------------------------------------------------- control

    def create_vqp(self):
        """Process: ibv_create_qp with qp_type = KRCORE_VQP."""
        if _trace.TRACER is None:
            yield timing.SYSCALL_NS
        else:
            yield from self.enter_kernel()
        return self.module.create_vqp(cpu_id=self.cpu_id)

    def qconnect(self, vqp, gid, port=0, deadline_ns=None):
        """Process: connect the VQP to a remote host (Fig 7's qconnect).

        Cached: ~0.9 us (just the syscall).  Uncached: ~5.4 us (syscall +
        two one-sided READs to the meta server) -- Fig 8a.

        ``deadline_ns`` starts a
        time budget at the syscall boundary that every meta RPC hop below
        decrements and checks; a spent budget surfaces as a typed
        :class:`~repro.verbs.errors.DeadlineExceededError` instead of
        piling more retries onto an overloaded plane.
        """
        tracer = _trace.TRACER
        if tracer is not None:
            tracer.begin(
                self.sim.now, self.module.track, "qconnect",
                gid=gid, vqp=vqp.id,
            )
        if _metrics.METRICS is not None:
            _metrics.METRICS.counter("krcore.qconnects").inc()
        deadline = self.module.op_deadline(deadline_ns)
        try:
            if tracer is None:
                yield timing.SYSCALL_NS
            else:
                yield from self.enter_kernel()
            yield from vqp.connect(gid, port, deadline)
        finally:
            if tracer is not None:
                tracer.end(self.sim.now, self.module.track, "qconnect")
        return vqp

    def destroy_vqp(self, vqp):
        """Process: ibv_destroy_qp -- drop the VQP from the kernel's
        tables.  Raises :class:`KrcoreError` while it has un-polled
        completions or a QP transfer in flight."""
        yield from self.enter_kernel()
        self.module.destroy_vqp(vqp)

    def qbind(self, vqp, port):
        """Process: bind the VQP to a port for incoming connections."""
        yield from self.enter_kernel()
        self.module.messaging.bind(port, vqp)
        return vqp

    def reg_mr(self, addr, length):
        """Process: register memory; recorded in ValidMR and published to
        the meta server for remote validation."""
        yield from self.enter_kernel()
        region = yield from self.module.reg_mr(addr, length)
        return region

    def dereg_mr(self, region):
        """Process: deregister; actually freed after one lease (§4.2)."""
        yield from self.enter_kernel()
        yield from self.module.dereg_mr(region)

    # ----------------------------------------------------------- data path

    def post_send(self, vqp, wr_list):
        """Process: ibv_post_send on a VQP (one syscall per batch)."""
        yield from self.enter_kernel()
        yield from vqp.post_send(wr_list)

    def post_send_batch(self, vqp, wr_list):
        """Process: doorbell-batched ibv_post_send on a VQP.

        One syscall, one virtualization pass, one doorbell: the WR chain
        crosses the user/kernel boundary and reaches the shared physical
        QP as a single command (§4.3) while keeping per-WR completion
        semantics.
        """
        yield from self.enter_kernel()
        yield from vqp.post_send_batch(wr_list)

    def post_send_multi(self, posts):
        """Process: post to several VQPs in one ioctl (``posts`` is a list
        of (vqp, wr_list) handled in order) -- the batched shim call that
        lets one syscall fan a request batch out to many targets."""
        yield from self.enter_kernel()
        for vqp, wr_list in posts:
            yield from vqp.post_send(wr_list)

    def post_send_and_wait(self, vqp, wr_list):
        """Process: post + wait in one blocking ioctl (the sync fast path).

        Returns the completion entry for the *last* signaled request.
        A list with no signaled WR is rejected before anything is charged
        or posted: there would be no completion to block on.
        """
        wanted = 0
        for wr in wr_list if isinstance(wr_list, (list, tuple)) else (wr_list,):
            if wr.signaled:
                wanted += 1
        if not wanted:
            raise KrcoreError("post_send_and_wait: no signaled WR to wait for")
        if _trace.TRACER is None:
            yield timing.SYSCALL_NS
        else:
            yield from self.enter_kernel()
        yield from vqp.post_send(wr_list)
        for _ in range(wanted):
            entry = yield from vqp.wait_send_completion()
        yield timing.POLL_CQ_CPU_NS
        return entry

    def read_sync(self, vqp, laddr, lkey, raddr, rkey, length):
        """Process: one synchronous one-sided READ; returns the entry."""
        wr = WorkRequest.read(laddr, length, lkey, raddr, rkey)
        entry = yield from self.post_send_and_wait(vqp, wr)
        if not entry.ok:
            raise KrcoreError(f"READ failed: {entry.status}", code=entry.status)
        return entry

    def read_vectored_sync(self, vqp, laddr, lkey, sges):
        """Process: one synchronous vectored gather READ (§4.3 TODO in the
        MicroView collector): ``sges`` is a list of ``(raddr, rkey, length)``
        remote segments scattered back-to-back into ``laddr``."""
        wr = WorkRequest.read_vectored(laddr, lkey, sges)
        entry = yield from self.post_send_and_wait(vqp, wr)
        if not entry.ok:
            raise KrcoreError(f"READ_V failed: {entry.status}", code=entry.status)
        return entry

    def write_sync(self, vqp, laddr, lkey, raddr, rkey, length):
        """Process: one synchronous one-sided WRITE; returns the entry."""
        wr = WorkRequest.write(laddr, length, lkey, raddr, rkey)
        entry = yield from self.post_send_and_wait(vqp, wr)
        if not entry.ok:
            raise KrcoreError(f"WRITE failed: {entry.status}", code=entry.status)
        return entry

    def send_and_recv(self, vqp, send_wr):
        """Process: post a SEND and block for the response message, all in
        one ioctl -- the synchronous request/response fast path.  Returns
        the receive completion."""
        yield from self.enter_kernel()
        yield from vqp.post_send(send_wr)
        completion = yield from vqp.wait_recv_completion()
        return completion

    def post_and_qpop(self, vqp, replies):
        """Process: post replies and pop the next incoming messages in one
        ioctl (the server-side steady-state loop: one kernel crossing per
        served message).  ``replies`` is a list of (reply_vqp, wr_list).
        Blocks until at least one new message arrives; returns at most
        :data:`QPOP_MAX_MSGS`."""
        yield from self.enter_kernel()
        for reply_vqp, wr_list in replies:
            yield from reply_vqp.post_send(wr_list)
        return (
            yield from self.module.messaging.qpop_msgs(vqp, QPOP_MAX_MSGS, self.cpu_id)
        )

    # -------------------------------------------------------------- receive

    def post_recv(self, vqp, recv_buffer):
        """Process: ibv_post_recv into the virtual receive queue."""
        yield from self.enter_kernel()
        vqp.post_recv(recv_buffer)

    def qpop_msgs_wait(self, vqp):
        """Process: blocking qpop -- waits until at least one message, and
        pops up to 16."""
        yield from self.enter_kernel()
        return (yield from self.module.messaging.qpop_msgs(vqp, 16, self.cpu_id))
