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


class KrcoreLib:
    """A per-application (per-thread) handle to the node's KRCORE module.

    ``cpu_id`` pins the handle to one CPU's hybrid QP pool (§4.2: pools
    are per-CPU; each QP is typically used by one thread).
    """

    def __init__(self, node, cpu_id=0, charge_syscall=True):
        module = node.services.get("krcore")
        if module is None:
            raise KrcoreError(f"{node.gid} has no KRCORE module loaded")
        self.module = module
        self.node = node
        self.sim = node.sim
        self.cpu_id = cpu_id
        self.charge_syscall = charge_syscall

    def _enter_kernel(self):
        if self.charge_syscall:
            if _trace.TRACER is not None:
                track = self.module.track
                _trace.TRACER.begin(self.sim.now, track, "syscall")
                yield timing.SYSCALL_NS
                _trace.TRACER.end(self.sim.now, track, "syscall")
            else:
                yield timing.SYSCALL_NS
        else:
            yield 0

    # -------------------------------------------------------------- control

    def create_vqp(self):
        """Process: ibv_create_qp with qp_type = KRCORE_VQP."""
        yield from self._enter_kernel()
        return self.module.create_vqp(cpu_id=self.cpu_id)

    def qconnect(self, vqp, gid, port=0, deadline_ns=None):
        """Process: connect the VQP to a remote host (Fig 7's qconnect).

        Cached: ~0.9 us (just the syscall).  Uncached: ~5.4 us (syscall +
        two one-sided READs to the meta server) -- Fig 8a.

        ``deadline_ns`` (or the module's DegradePolicy default) starts a
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
            yield from self._enter_kernel()
            yield from vqp.connect(gid, port, deadline)
        finally:
            if tracer is not None:
                tracer.end(self.sim.now, self.module.track, "qconnect")
        return vqp

    def destroy_vqp(self, vqp):
        """Process: ibv_destroy_qp -- drop the VQP from the kernel's
        tables.  Raises :class:`KrcoreError` while it has un-polled
        completions or a QP transfer in flight."""
        yield from self._enter_kernel()
        self.module.destroy_vqp(vqp)

    def qbind(self, vqp, port):
        """Process: bind the VQP to a port for incoming connections."""
        yield from self._enter_kernel()
        self.module.bind(port, vqp)
        return vqp

    def reg_mr(self, addr, length):
        """Process: register memory; recorded in ValidMR and published to
        the meta server for remote validation."""
        yield from self._enter_kernel()
        region = yield from self.module.reg_mr(addr, length)
        return region

    def dereg_mr(self, region):
        """Process: deregister; actually freed after one lease (§4.2)."""
        yield from self._enter_kernel()
        yield from self.module.dereg_mr(region)

    # ----------------------------------------------------------- data path

    def post_send(self, vqp, wr_list, deadline_ns=None):
        """Process: ibv_post_send on a VQP (one syscall per batch)."""
        deadline = self.module.op_deadline(deadline_ns)
        yield from self._enter_kernel()
        yield from vqp.post_send(wr_list, deadline)

    def post_send_batch(self, vqp, wr_list, deadline_ns=None):
        """Process: doorbell-batched ibv_post_send on a VQP.

        One syscall, one virtualization pass, one doorbell: the WR chain
        crosses the user/kernel boundary and reaches the shared physical
        QP as a single command (§4.3) while keeping per-WR completion
        semantics.
        """
        deadline = self.module.op_deadline(deadline_ns)
        yield from self._enter_kernel()
        yield from vqp.post_send_batch(wr_list, deadline)

    def post_send_multi(self, posts):
        """Process: post to several VQPs in one ioctl (``posts`` is a list
        of (vqp, wr_list) handled in order) -- the batched shim call that
        lets one syscall fan a request batch out to many targets."""
        yield from self._enter_kernel()
        for vqp, wr_list in posts:
            yield from vqp.post_send(wr_list)

    def poll_cq(self, vqp):
        """Process: ibv_poll_cq -- non-blocking; returns an entry or None."""
        yield from self._enter_kernel()
        return vqp.poll_cq()

    def post_send_and_wait(self, vqp, wr_list, deadline_ns=None):
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
        deadline = self.module.op_deadline(deadline_ns)
        yield from self._enter_kernel()
        yield from vqp.post_send(wr_list, deadline)
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

    def send_sync(self, vqp, laddr, lkey, length):
        """Process: one synchronous two-sided SEND; returns the entry."""
        wr = WorkRequest.send(laddr, length, lkey)
        entry = yield from self.post_send_and_wait(vqp, wr)
        if not entry.ok:
            raise KrcoreError(f"SEND failed: {entry.status}", code=entry.status)
        return entry

    def send_and_recv(self, vqp, send_wr):
        """Process: post a SEND and block for the response message, all in
        one ioctl -- the synchronous request/response fast path.  Returns
        the receive completion."""
        yield from self._enter_kernel()
        yield from vqp.post_send(send_wr)
        completion = yield from vqp.wait_recv_completion()
        return completion

    def post_and_qpop(self, vqp, replies, max_msgs=16):
        """Process: post replies and pop the next incoming messages in one
        ioctl (the server-side steady-state loop: one kernel crossing per
        served message).  ``replies`` is a list of (reply_vqp, wr_list).
        Blocks until at least one new message arrives."""
        yield from self._enter_kernel()
        for reply_vqp, wr_list in replies:
            yield from reply_vqp.post_send(wr_list)
        while True:
            results = yield from self.module.qpop_msgs(vqp, max_msgs, cpu_id=self.cpu_id)
            if results:
                return results
            yield self.module.wait_port_msg(vqp)

    # -------------------------------------------------------------- receive

    def post_recv(self, vqp, recv_buffer):
        """Process: ibv_post_recv into the virtual receive queue."""
        yield from self._enter_kernel()
        vqp.post_recv(recv_buffer)

    def recv_wait(self, vqp):
        """Process: block (one ioctl) until a message lands in this VQP's
        posted buffer; returns the receive completion."""
        yield from self._enter_kernel()
        completion = yield from vqp.wait_recv_completion()
        return completion

    def qpop_msgs(self, vqp, max_msgs=16):
        """Process: Fig 7's qpop_msgs -- non-blocking drain of the bound
        port; returns a list of (src_vqp, completion) pairs."""
        yield from self._enter_kernel()
        results = yield from self.module.qpop_msgs(vqp, max_msgs, cpu_id=self.cpu_id)
        return results

    def qpop_msgs_wait(self, vqp, max_msgs=16):
        """Process: blocking qpop -- waits until at least one message."""
        yield from self._enter_kernel()
        while True:
            results = yield from self.module.qpop_msgs(vqp, max_msgs, cpu_id=self.cpu_id)
            if results:
                return results
            yield self.module.wait_port_msg(vqp)
