"""Virtual queue pairs: Algorithms 1 and 2 of the paper (§4.3-4.4).

A VQP gives an application an exclusively-owned QP abstraction while the
kernel multiplexes many VQPs onto one shared physical QP.  Correctness
hinges on three duties the paper spells out (§4.4):

1. *detect malformed requests* before they reach the shared QP (a bad
   opcode or memory key would move it to ERR);
2. *prevent NIC queue overflow* -- software tracks the uncompleted count
   and polls the physical CQ before posting when space is short;
3. *dispatch completion events* -- the VQP identity and the number of
   send-queue slots a signaled request covers are encoded in ``wr_id``.
"""

from repro.cluster import timing
from repro.krcore.meta import dct_key
from repro.obs import metrics as _metrics
from repro.obs import trace as _trace
from repro.verbs.errors import KrcoreError, MetaUnavailableError, VerbsError
from repro.verbs.types import (
    ATOMIC_OPCODES,
    OP_READ_V,
    OP_SEND,
    POSTABLE_OPCODES,
    QPT_DC,
    QPT_RC,
    RKEY_OPCODES,
    WC_BAD_OPCODE_ERR,
    WC_LOC_PROT_ERR,
    WC_REM_ACCESS_ERR,
    WC_RETRY_EXC_ERR,
    WC_SUCCESS,
)

__all__ = ["CompletionEntry", "KrcoreError", "Vqp"]

#: What a software queue nothing was ever appended to reads as: empty,
#: falsy, iterable -- and shared, so an idle VQP owns no queue storage.
_EMPTY = ()


class CompletionEntry:
    """One slot of a VQP's software completion queue.

    Mirrors Algorithm 2's ``(NotReady, wr_id)`` pairs: created not-ready at
    post time, flipped ready by ``poll_inner`` when the physical completion
    is dispatched.
    """

    __slots__ = ("ready", "wr_id", "status", "opcode")

    def __init__(self, wr_id, opcode):
        self.ready = False
        self.wr_id = wr_id
        self.status = WC_SUCCESS
        self.opcode = opcode

    @property
    def ok(self):
        return self.status is WC_SUCCESS


class TwoSided:
    """A VQP's two-sided messaging state (§4.4-4.5), built on its first
    use on the receive side: a receive posted, a port bound, a peering made
    or a message routed to it.  A VQP that only ever posts one-sided verbs
    or SENDs never has one.  Its queues, like ``Vqp.comp_queue``, are the
    shared ``()`` until their first append (:meth:`Vqp.enqueue`), a list
    after."""

    __slots__ = (
        "recv_queue", "recv_completions", "pending_msgs", "msg_waiters",
        "peer", "reply_key", "bound_port",
    )

    def __init__(self):
        self.recv_queue = _EMPTY  # user-posted RecvBuffers (ibv_post_recv)
        self.recv_completions = _EMPTY  # delivered two-sided completions
        self.pending_msgs = _EMPTY  # messages addressed to this VQP
        self.msg_waiters = None  # events of processes awaiting a message
        self.peer = None  # (gid, vqp_id) once a two-sided peering exists
        self.reply_key = None  # this VQP's key in the module's reply table
        self.bound_port = None


class Vqp:
    """A kernel-side virtual QP (vqp_create of Algorithm 1).

    An elastic burst holds thousands of these, most of them idle, so the
    object is slotted and holds Algorithm 1's state only: the send
    completion queue (the shared ``()`` until its first append, a list
    after), the physical QP and the target.  What two-sided messaging needs
    lives in one :class:`TwoSided` record, ``two_sided``, None until used.
    A message that carries the VQP's id -- a SEND's header, a QP-transfer
    notice -- publishes it, and the module pins the VQP until
    ``destroy_vqp``; otherwise reference counting frees it once its user,
    in-flight wr_id tokens and ports drop it, like a file descriptor
    (DESIGN.md §16 "VQP lifetime").
    """

    __slots__ = (
        "module", "id", "cpu_id", "comp_queue", "qp", "dct_meta",
        "remote_gid", "remote_port", "destroyed", "two_sided",
        "_transfer_waiters", "__weakref__",
    )

    def __init__(self, module, cpu_id, vqp_id):
        self.module = module
        self.id = vqp_id
        self.cpu_id = cpu_id
        # Algorithm 1 lines 3-5: software queues; physical QP bound later.
        self.comp_queue = _EMPTY
        self.qp = None
        self.dct_meta = None
        self.remote_gid = None
        self.remote_port = None
        self.destroyed = False
        self.two_sided = None
        #: None, or -- while a QP transfer runs -- the events of the posts
        #: it holds back (nothing may follow the fence on the old QP).
        self._transfer_waiters = None

    def ensure_two_sided(self):
        """The :class:`TwoSided` record, built on first use."""
        state = self.two_sided
        if state is None:
            state = self.two_sided = TwoSided()
        return state

    def enqueue(self, queue_name, item):
        """Append to one of the receive-side queues of the two-sided record,
        creating both on first use (``_post_chunk`` does the same for
        ``comp_queue`` inline)."""
        state = self.ensure_two_sided()
        queue = getattr(state, queue_name)
        if queue is _EMPTY:
            queue = []
            setattr(state, queue_name, queue)
        queue.append(item)

    # ------------------------------------------------------------ Algorithm 1

    def connect(self, gid, port=0, deadline=None):
        """Process: vqp_connect -- bind a pre-initialized physical QP.

        RC from the hybrid pool when available, else a DCQP plus the
        target's DCT metadata (DCCache first, meta server on a miss; the
        lookup retries with exponential backoff).  If the meta service
        stays unreachable, degrade gracefully: fall back to a full RC
        handshake with the target's connection daemon -- the paper's "old
        control path" costs milliseconds but needs no metadata.

        A DCCache miss is the expensive path -- it consumes shared
        meta-lookup capacity -- so that is where the module's admission
        gate sits and where ``deadline`` (the caller's remaining budget)
        is threaded through every meta RPC hop.
        """
        if self.remote_gid is not None and self.remote_gid != gid:
            raise KrcoreError(f"VQP {self.id} already connected to {self.remote_gid}")
        module = self.module
        if self.qp is None:
            pool = module.pool(self.cpu_id)
            if pool.has_rc(gid):
                self.qp = pool.select_rc(gid)
            else:
                meta = module.dc_cache.get(gid)
                if meta is None:
                    if _trace.TRACER is not None:
                        _trace.TRACER.instant(
                            module.sim.now, module.track, "dc_cache.miss", gid=gid
                        )
                    if _metrics.METRICS is not None:
                        _metrics.METRICS.counter("krcore.dc_cache_misses").inc()
                    if module.degrade is not None:
                        yield from pool.admission_gate(module.sim, module.degrade).admit(deadline)
                    # The robust fetch: cached on success; with the meta
                    # service unreachable past the retry budget, a full RC
                    # handshake instead (no metadata needed on an RC-backed
                    # VQP).  A DeadlineExceededError propagates untouched: a
                    # spent budget must not trigger the milliseconds-long
                    # RC fallback.
                    track = module.track
                    if _trace.TRACER is not None:
                        _trace.TRACER.begin(
                            module.sim.now, track, "meta.lookup_dct", gid=gid,
                            shard=module.meta_plane.primary_index(dct_key(gid)),
                        )
                    try:
                        try:
                            meta = yield from module.lookup_dct_robust(
                                self.cpu_id, gid, deadline
                            )
                        finally:
                            # Close the span on *every* exit (a
                            # MetaUnavailableError previously left it open,
                            # corrupting later span nesting on this track).
                            if _trace.TRACER is not None:
                                _trace.TRACER.end(module.sim.now, track, "meta.lookup_dct")
                    except MetaUnavailableError as meta_err:
                        self.qp = yield from self._rc_fallback(gid, pool, meta_err)
                    else:
                        meta = module.cache_dct(gid, meta)
                    if deadline is not None:
                        # A gray-slow fetch can *succeed* past the budget
                        # (the lag sits between the client's checkpoints);
                        # fail here rather than report a "success" the
                        # caller had already written off.
                        deadline.check(
                            module.sim.now, f"fetched DCT metadata for {gid}"
                        )
                else:
                    if _trace.TRACER is not None:
                        _trace.TRACER.instant(
                            module.sim.now, module.track, "dc_cache.hit", gid=gid
                        )
                    if _metrics.METRICS is not None:
                        _metrics.METRICS.counter("krcore.dc_cache_hits").inc()
                if self.qp is None:  # not claimed by the RC fallback
                    self.qp = pool.select_dc()
                    self.dct_meta = meta
        if self.destroyed:  # before the call, or while it waited on the meta plane
            self.qp = None
            raise KrcoreError(f"VQP {self.id} was destroyed")
        if self.remote_gid is None:  # first connect: to the id table's end
            table = module.vqps_by_id
            table[self.id] = table.pop(self.id)
        self.remote_gid = gid
        self.remote_port = port
        return self

    def _rc_fallback(self, gid, pool, meta_err):
        """Process: the degraded :meth:`connect` -- the meta service stayed
        unreachable, so a full RC handshake to ``gid``; returns the RCQP."""
        module = self.module
        track = module.track
        module.stats_rc_fallbacks += 1
        if _trace.TRACER is not None:
            _trace.TRACER.begin(module.sim.now, track, "rc_fallback", gid=gid)
        if _metrics.METRICS is not None:
            _metrics.METRICS.counter("krcore.rc_fallbacks").inc()
        try:
            qp = yield from module.establish_rc(gid, pool)
        except (VerbsError, KrcoreError) as rc_err:
            if _trace.TRACER is not None:
                _trace.TRACER.end(module.sim.now, track, "rc_fallback")
            raise KrcoreError(
                f"meta server unreachable and RC fallback to {gid} "
                f"failed ({rc_err})",
                code=getattr(rc_err, "code", None),
            ) from meta_err
        if _trace.TRACER is not None:
            _trace.TRACER.end(module.sim.now, track, "rc_fallback")
        return qp

    def revalidate(self):
        """Process: refresh this VQP's DCT metadata after a remote-access
        failure (the target may have restarted with a new DCT key)."""
        if self.qp is None or self.qp.qp_type is not QPT_DC:
            return self.dct_meta
        meta = yield from self.module.revalidate_dct(
            self.cpu_id, self.remote_gid, stale_meta=self.dct_meta
        )
        self.dct_meta = meta
        return meta

    @property
    def is_rc_backed(self):
        return self.qp is not None and self.qp.qp_type is QPT_RC

    # ------------------------------------------------ Algorithm 2: post_send

    def post_send(self, wr_list, batched=False):
        """Process: post_send_virtualized.

        Validates every request, encodes dispatch info in wr_id, keeps the
        shared physical queue from overflowing, and posts.  A bad request
        raises :class:`KrcoreError` *before anything is posted*.
        """
        if self.qp is None:
            raise KrcoreError(f"VQP {self.id} is not connected")
        if isinstance(wr_list, (list, tuple)):
            wrs = list(wr_list)
        else:
            wrs = [wr_list]
        # Segment so each posted chunk fits the physical queue (§4.4).
        depth = self.qp.sq_depth
        index = 0
        while index < len(wrs):
            yield from self._post_chunk(wrs[index : index + depth], batched)
            index += depth

    def post_send_batch(self, wr_list):
        """Process: post a doorbell-batched chain through the shared QP.

        Validation, wr_id encoding, and overflow prevention are identical
        to :meth:`post_send`; the chunk reaches the physical QP via
        :meth:`~repro.verbs.qp.QueuePair.post_send_batch`, so one doorbell
        covers the whole chain -- combined with the single syscall of
        ``KrcoreLib.post_send_batch``, the full chain crosses the
        virtualized-QP boundary at one-command cost (§4.3).
        """
        yield from self.post_send(wr_list, batched=True)

    def _post_chunk(self, wrs, batched):
        module = self.module
        # --- request integrity (lines 5-7), before anything is posted ---
        yield timing.VIRTUALIZATION_CHECK_NS * len(wrs)
        for wr in wrs:
            if wr.opcode not in POSTABLE_OPCODES:
                raise KrcoreError(
                    f"invalid opcode {wr.opcode}", code=WC_BAD_OPCODE_ERR
                )
            skip_local = wr.opcode is OP_SEND and wr.length == 0
            if not skip_local and not module.valid_mr.check_local(wr.lkey, wr.laddr, wr.length):
                raise KrcoreError(
                    f"invalid local MR (lkey={wr.lkey})", code=WC_LOC_PROT_ERR
                )
            if wr.opcode in RKEY_OPCODES:
                span = 8 if wr.opcode in ATOMIC_OPCODES else wr.length
                segments = ((wr.raddr, wr.rkey, span),)
            elif wr.opcode is OP_READ_V:
                # Vectored gather: every remote segment must validate
                # before anything is posted (one bad SGE would wreck the
                # shared physical QP mid-gather).
                if not wr.sges or len(wr.sges) > timing.MAX_VECTORED_SGES:
                    raise KrcoreError(
                        f"vectored READ carries {len(wr.sges or ())} SGEs "
                        f"(1..{timing.MAX_VECTORED_SGES} allowed)",
                        code=WC_BAD_OPCODE_ERR,
                    )
                segments = wr.sges
            else:
                continue
            for raddr, rkey, span in segments:
                ok = module.mr_store.check_cached(self.remote_gid, rkey, raddr, span)
                if ok is None:  # cache miss: blocking meta-server path
                    ok = yield from module.mr_store.check(
                        self.remote_gid, rkey, raddr, span, cpu_id=self.cpu_id
                    )
                if not ok:
                    where = " in gather list" if wr.opcode is OP_READ_V else ""
                    raise KrcoreError(
                        f"invalid remote MR{where} (rkey={rkey})",
                        code=WC_REM_ACCESS_ERR,
                    )
        # --- build the physical requests (lines 4-17) ---
        phys = []
        unsignaled_cnt = 0
        comp_queue = self.comp_queue
        if comp_queue is _EMPTY:
            comp_queue = self.comp_queue = []
        for wr in wrs:
            pwr = wr.clone()
            if pwr.opcode is OP_SEND:
                self._prepare_send(pwr)
            if wr.signaled:
                entry = CompletionEntry(wr.wr_id, wr.opcode)
                comp_queue.append(entry)
                pwr.wr_id = module.encode_wr_id(self, unsignaled_cnt + 1, entry=entry)
                unsignaled_cnt = 0
            else:
                pwr.wr_id = 0
                unsignaled_cnt += 1
            phys.append(pwr)
        if unsignaled_cnt:
            # Lines 15-17: force-signal the last request so the queue space
            # of the trailing unsignaled run can be reclaimed.
            last = phys[-1]
            last.signaled = True
            last.wr_id = module.encode_wr_id(None, unsignaled_cnt, entry=None)
        # --- prevent queue overflow (lines 2-3) ---
        yield timing.POST_SEND_CPU_NS
        while True:
            if self._transfer_waiters is not None:
                # §4.6: nothing may follow the fence on the old QP, so a
                # post waits out a running transfer and lands on the new one.
                yield self._transfer_done()
                continue
            qp = self.qp
            if qp.free_slots >= len(phys):
                break
            if module.poll_inner(qp) == 0:
                yield qp.send_cq.wait()
        # No simulated time may pass between the gate, the capacity check
        # and the post: from here to the post is atomic in the event loop.
        if qp.qp_type is QPT_DC:
            for pwr in phys:
                pwr.dct_gid = self.remote_gid
                pwr.dct_number, pwr.dct_key = self.dct_meta
        try:
            if batched and len(phys) >= 2:
                qp.post_send_batch(phys)
            else:
                qp.post_send(phys)
        except VerbsError as err:
            # A remote failure wrecked the shared QP under us (the kernel
            # repairs it in the background).  Nothing reached the wire, so
            # roll back this chunk's bookkeeping -- a not-ready entry left
            # at the head of the software CQ would block every later
            # completion, and an orphaned wr_id token would read as a lost
            # completion -- then surface a clean error.
            for pwr in phys:
                if pwr.wr_id:
                    token = module.wrid_tokens.pop(pwr.wr_id, None)
                    if token is not None and token.entry is not None:
                        try:
                            self.comp_queue.remove(token.entry)
                        except ValueError:
                            pass
            raise KrcoreError(
                f"physical QP unavailable ({err}); retry after repair",
                code=getattr(err, "code", None) or WC_RETRY_EXC_ERR,
            ) from err
        module.note_traffic(self.remote_gid, self.cpu_id, len(phys))

    def _prepare_send(self, pwr):
        """Attach the piggybacked header; switch to the zero-copy protocol
        for payloads the kernel buffers cannot (or should not) carry."""
        module = self.module
        messaging = module.messaging
        state = self.two_sided
        peer = None if state is None else state.peer
        module.published_vqps[self.id] = self  # ``src_vqp`` below: a reply may name it
        header = {
            "dst_port": self.remote_port,
            "dst_vqp": peer[1] if peer else None,
            "src_gid": module.node.gid,
            "src_vqp": self.id,
            "src_dct_meta": module.own_dct_meta,
        }
        if pwr.length > messaging.zero_copy_threshold:
            if not messaging.zero_copy:
                raise KrcoreError(
                    f"{pwr.length}B message exceeds the kernel buffer and "
                    "the zero-copy protocol is disabled"
                )
            region = module.valid_mr.lookup_region_by_lkey(pwr.lkey)
            if region is None:
                raise KrcoreError(f"zero-copy send from unregistered buffer (lkey={pwr.lkey})")
            header["zc"] = {"addr": pwr.laddr, "rkey": region.rkey, "len": pwr.length}
            pwr.length = 0  # only the descriptor message goes on the wire
        pwr.header = header

    # --------------------------------------------------- Algorithm 2: poll_cq

    def poll_cq(self):
        """poll_cq_virtualized: dispatch physical completions, then return
        the head of the software queue if ready (non-blocking)."""
        if self.qp is not None:
            self.module.poll_inner(self.qp)
        if self.comp_queue and self.comp_queue[0].ready:
            return self.comp_queue.pop(0)
        return None

    def wait_send_completion(self):
        """Process: block until the next send completion of *this* VQP.

        Waiting follows the physical CQ's polling mode (event by default;
        ``busy``/``adaptive`` account the kernel polling core's CPU burn).
        """
        while True:
            entry = self.poll_cq()
            if entry is not None:
                return entry
            cq = self.qp.send_cq
            if cq.poll_mode == "event":
                yield cq.wait()
            else:
                yield from cq.wait_notify()

    # ----------------------------------------------------------------- recv

    def post_recv(self, recv_buffer):
        """ibv_post_recv: record the buffer in the virtual recv queue."""
        self.enqueue("recv_queue", recv_buffer)

    def poll_recv(self):
        """Process: deliver pending messages into user buffers, then pop one
        recv completion if available (non-blocking in the common case)."""
        yield from self.module.messaging.deliver_vqp_msgs(self)
        state = self.two_sided
        if state is not None and state.recv_completions:
            return state.recv_completions.pop(0)
        return None

    def wait_recv_completion(self):
        """Process: block until a two-sided message arrives for this VQP."""
        while True:
            completion = yield from self.poll_recv()
            if completion is not None:
                return completion
            yield self.module.messaging.vqp_msg_event(self)

    # ------------------------------------------------------ transfer protocol

    def transfer_to(self, new_qp, new_dct_meta=None, notify_peer=True):
        """Process: §4.6 -- seamlessly re-virtualize onto ``new_qp``.

        FIFO is preserved by fencing the old QP with a fake signaled
        request; a two-sided peer is notified and must acknowledge before
        the switch (otherwise its replies would target the old QP).  From
        the fence to the switch the owner's posts are held back
        (``_post_chunk`` waits on :meth:`_transfer_done`): a request posted
        behind the fence would complete on the old QP's CQ, which nobody
        polls for this VQP once it has moved.
        """
        while self._transfer_waiters is not None:  # one transfer at a time
            yield self._transfer_done()
        old = self.qp
        if old is new_qp or self.destroyed:
            return
        if old is not None:
            self._transfer_waiters = []
            try:
                try:
                    yield from self.module.fence_qp(self, old)
                except KrcoreError:
                    # The remote died: the old QP's outstanding requests can
                    # only fail, so FIFO is vacuously preserved -- swap anyway.
                    pass
                if notify_peer and self.two_sided is not None and self.two_sided.peer is not None:
                    yield from self.module.messaging.notify_peer_transfer(self)
            finally:
                # Waiters resume through the scheduler, i.e. after the
                # switch below (or, on an error, still on the old QP).
                held, self._transfer_waiters = self._transfer_waiters, None
                for event in held:
                    event.trigger(None)
        self.qp = new_qp
        if new_dct_meta is not None:
            self.dct_meta = new_dct_meta
        self.module.stats_transfers += 1

    @property
    def transferring(self):
        return self._transfer_waiters is not None

    def _transfer_done(self):
        """Event that fires once the running transfer has switched QPs."""
        event = self.module.sim.event()
        self._transfer_waiters.append(event)
        return event
