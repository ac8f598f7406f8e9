"""The per-node KRCORE kernel module (§3.2 architecture).

Owns the per-CPU hybrid QP pools, the DCCache, ValidMR/MRStore, the
kernel receive machinery (buffer pool, dispatchers, port queues), the
wr_id token table that Algorithm 2's dispatch relies on, and the kernel
control channel used by the QP transfer protocol and MR publication.
"""

from collections import deque

from repro.check import hooks as _check
from repro.cluster import timing
from repro.degrade import CircuitBreaker, Deadline
from repro.krcore.meta import MetaClient, MetaPlane, MetaServer, dct_key, mr_key
from repro.krcore.mrstore import MrStore, ValidMr
from repro.krcore.pool import HybridQpPool
from repro.krcore.vqp import KrcoreError, Vqp
from repro.obs import metrics as _metrics
from repro.obs import trace as _trace
from repro.sim import AnyOf
from repro.verbs.errors import DeadlineExceededError, MetaUnavailableError
from repro.verbs import (
    Completion,
    CompletionQueue,
    ConnectionManager,
    DriverContext,
    RecvBuffer,
    WorkRequest,
)
from repro.verbs.connection import rc_connect
from repro.verbs.types import (
    OP_RECV,
    OP_RECV_IMM,
    QPS_ERR,
    QPS_RTS,
    QPT_DC,
    WC_REM_ACCESS_ERR,
    WC_RETRY_EXC_ERR,
    WC_SUCCESS,
)

#: Reserved port for kernel-to-kernel control messages.
KERNEL_PORT = 0

#: Port the background RC creator connects to on the remote node.
KRCORE_RC_PORT = 17


class _MsgQueue:
    """A FIFO list of routed messages with event-based waiting."""

    def __init__(self, sim):
        self.sim = sim
        self.items = []
        self._waiters = []

    def __len__(self):
        return len(self.items)

    def append(self, item):
        self.items.append(item)
        waiters, self._waiters = self._waiters, []
        for event in waiters:
            if not event.triggered:
                event.trigger(None)

    def wait(self):
        event = self.sim.event()
        if self.items:
            event.trigger(None)
        else:
            self._waiters.append(event)
        return event


class _Token:
    """Decoded wr_id payload: the dispatch info Algorithm 2 encodes."""

    __slots__ = ("vqp", "covers", "entry", "event")

    def __init__(self, vqp, covers, entry, event):
        self.vqp = vqp
        self.covers = covers
        self.entry = entry
        self.event = event


class KrcoreModule:
    """One node's loadable KRCORE kernel module."""

    SERVICE = "krcore"

    def __init__(
        self,
        node,
        meta_server,
        dc_per_cpu=2,
        max_rc_per_cpu=32,
        kernel_buf_bytes=timing.KERNEL_RECV_BUFFER_BYTES,
        kernel_buf_count=256,
        zero_copy=True,
        zero_copy_threshold=None,
        background_rc=True,
        rc_traffic_threshold=64,
        mr_lease_ns=timing.MR_LEASE_NS,
        charge_checks=True,
        degrade=None,
    ):
        self.node = node
        self.sim = node.sim
        self.track = f"krcore@{node.gid}"  # this module's trace track
        #: Overload-protection policy (repro.degrade.DegradePolicy) or
        #: None -- the default, in which case every guard below is a
        #: single falsy check and the control path is unchanged.
        self.degrade = degrade
        self._meta_breakers = {}  # shard index -> CircuitBreaker
        if degrade is not None and degrade.rnic_command_queue_limit is not None:
            node.rnic.command_queue_limit = degrade.rnic_command_queue_limit
        #: The meta plane this module talks to.  A bare MetaServer is
        #: wrapped into a one-shard plane, so ``meta_server`` accepts both
        #: and the single-deployment control path is unchanged.
        self.meta_plane = MetaPlane.ensure(meta_server)
        #: The meta shard hosted on *this* node, if any (publication kernel
        #: messages are only legal on shard hosts).
        self._local_shard = node.services.get(MetaServer.SERVICE)
        self.context = DriverContext(node, kernel=True)
        self.zero_copy = zero_copy
        self.kernel_buf_bytes = kernel_buf_bytes
        self.zero_copy_threshold = (
            kernel_buf_bytes if zero_copy_threshold is None else zero_copy_threshold
        )
        self.background_rc = background_rc
        self.rc_traffic_threshold = rc_traffic_threshold
        #: Ablation hook (Fig 12a): charge Algorithm 2's integrity checks?
        self.charge_checks = charge_checks

        self.valid_mr = ValidMr(node)
        self.mr_store = MrStore(self, lease_ns=mr_lease_ns)
        self.dc_cache = {}  # gid -> (dct_number, dct_key)

        # --- boot: DCT target + its shared receive machinery (§4.2) ---
        # A reloaded module (post-restart) derives a *different* DCT key,
        # so stale metadata cached remotely fails REM_ACCESS and forces a
        # revalidation instead of silently hitting the new incarnation.
        if node.incarnation:
            dc_key = _stable_key(f"{node.gid}#{node.incarnation}")
        else:
            dc_key = _stable_key(node.gid)
        self.dct_target = node.rnic.create_dct_target(dc_key=dc_key)
        self.dct_target.recv_cq = CompletionQueue(self.sim)
        if _check.CHECKER is not None:
            _check.CHECKER.dct_published(
                node.gid,
                node.incarnation,
                (self.dct_target.number, self.dct_target.key),
            )

        # --- kernel receive buffer pool ---
        base = node.memory.alloc(kernel_buf_bytes * kernel_buf_count)
        self._buf_base = base
        self._buf_region = node.memory.register(base, kernel_buf_bytes * kernel_buf_count)
        # Stock the SRQ deep (keeping a small reserve for kernel RCQPs):
        # §4.4 assumes "the pre-posted buffers can always hold the
        # incoming message", so deployments size kernel_buf_count for
        # their expected in-flight message burst.  The stock is posted
        # unbuilt: a slot becomes a RecvBuffer when a message claims it.
        stocked = kernel_buf_count - min(64, kernel_buf_count // 4)
        self.dct_target.stock_srq(range(stocked), self._kernel_buffer)
        self._free_slots = deque(range(stocked, kernel_buf_count))
        self.sim.process(
            self._recv_dispatcher(self.dct_target.recv_cq, self.dct_target.post_srq),
            name=f"krcore-dispatch-dct@{node.gid}",
        )

        # --- per-CPU hybrid pools (§4.2): the DCQPs exist from module load
        # on, so their QPNs are taken here; pool(cpu) builds the objects ---
        self.dc_per_cpu = dc_per_cpu
        self.max_rc_per_cpu = max_rc_per_cpu
        self._pools = [None] * node.cores
        self._pool_qpn_base = node.rnic.reserve_qpns(
            node.cores * dc_per_cpu, lambda: [self.pool(cpu) for cpu in range(node.cores)]
        )

        # --- meta plane wiring (boot-time broadcast + pre-connect) ---
        self._meta_clients = {}
        self.meta_plane.publish_dct(
            node.gid, self.dct_target.number, self.dct_target.key
        )
        self.meta_plane.publish_mr(
            node.gid, self._buf_region.rkey, self._buf_region.addr, self._buf_region.length
        )
        self.valid_mr.record(self._buf_region)
        # Prime the DCCache with every shard host so kernel messaging to
        # the meta plane never needs a bootstrap lookup.
        for shard in self.meta_plane.shards:
            meta_module = shard.node.services.get(self.SERVICE)
            if meta_module is not None:
                self.dc_cache.setdefault(shard.node.gid, meta_module.own_dct_meta)

        # --- kernel messaging, transfers, ports ---
        self._port_queues = {}
        self._vqps_by_id = {}
        self._bound = {}  # port -> Vqp
        self._next_vqp_id = 1
        self._reply_vqps = {}  # (port, src_gid, src_vqp) -> Vqp
        self._transfer_acks = {}  # (gid, vqp_id) -> event
        self._connected_vqps = {}  # gid -> {Vqp: None}, in connect order
        self.sim.process(self._kernel_daemon(), name=f"krcore-kerneld@{node.gid}")

        # --- background RC machinery ---
        self._traffic = {}  # gid -> send count since RC decision
        self._rc_creating = set()
        manager = node.services.get(ConnectionManager.SERVICE)
        if manager is None:
            manager = ConnectionManager(node, self.context)
        manager.listen(KRCORE_RC_PORT, self._on_rc_accept)

        self.stats_transfers = 0
        self.stats_meta_lookups = 0
        self.stats_meta_failovers = 0
        self.stats_rc_fallbacks = 0
        # Lease-churn accounting (MicroView pod churn): registrations and
        # retractions since boot; sampled per harvest cycle by the app.
        self.stats_mrs_registered = 0
        self.stats_mrs_retracted = 0
        self._wrid_tokens = {}
        self._next_token = 1
        self._repairing = set()
        node.services[self.SERVICE] = self

    # ------------------------------------------------------------------ basics

    @property
    def own_dct_meta(self):
        return (self.dct_target.number, self.dct_target.key)

    @property
    def meta_server(self):
        """The meta plane (kept under the old name for existing callers;
        a one-shard plane behaves exactly like the bare server did)."""
        return self.meta_plane

    def pool(self, cpu_id):
        """The CPU's hybrid pool, built the first time the CPU is used.  Its
        DCQPs take the QPNs reserved at load (cpu-major, whatever CPU came
        first: the QPN seeds a DCQP's reconnect-tail draws) and are born
        RTS, their bring-up having happened at module load."""
        cpu = cpu_id % len(self._pools)
        pool = self._pools[cpu]
        if pool is None:
            first = self._pool_qpn_base + cpu * self.dc_per_cpu
            dc_qps = []
            for qpn in range(first, first + self.dc_per_cpu):
                qp = self.context.create_qp_fast(QPT_DC, CompletionQueue(self.sim), qpn=qpn)
                qp.state = QPS_RTS
                dc_qps.append(qp)
            pool = self._pools[cpu] = HybridQpPool(self.sim, cpu, dc_qps, self.max_rc_per_cpu)
        return pool

    def built_pools(self):
        """The pools built so far, in CPU order."""
        return [pool for pool in self._pools if pool is not None]

    def meta_client(self, cpu_id, shard=0):
        """Per-(CPU, shard) pre-connected RCQP + DrTM-KV client."""
        key = (cpu_id % len(self._pools), shard)
        client = self._meta_clients.get(key)
        if client is None:
            client = MetaClient(
                self.node, self.meta_plane.shards[shard], shard_index=shard
            )
            self._meta_clients[key] = client
        return client

    def create_vqp(self, cpu_id=0):
        """vqp_create (Algorithm 1): software queues only, physical QP
        assignment deferred to qconnect."""
        vqp = Vqp(self, cpu_id, self._next_vqp_id)
        self._next_vqp_id += 1
        self._vqps_by_id[vqp.id] = vqp
        return vqp

    def register_connected_vqp(self, vqp):
        """Index a connected VQP under its target (idempotent; a dict keeps
        connect order, which is the order the transfer paths visit in)."""
        index = self._connected_vqps.get(vqp.remote_gid)
        if index is None:
            index = self._connected_vqps[vqp.remote_gid] = {}
        index[vqp] = None

    def destroy_vqp(self, vqp):
        """ibv_destroy_qp on a VQP: unlink it from every module table.

        Refused while the VQP still has work the kernel would have to
        dispatch to it -- un-polled send completions (every wr_id token
        naming the VQP has its entry in ``comp_queue``) or a QP transfer
        in flight.  The shared physical QP stays in the pool.
        """
        if vqp.destroyed:
            return
        if vqp.comp_queue or vqp.transferring:
            raise KrcoreError(
                f"VQP {vqp.id} is busy (un-polled completions or a transfer in flight)"
            )
        vqp.destroyed = True
        vqp.qp = None
        del self._vqps_by_id[vqp.id]
        index = self._connected_vqps.get(vqp.remote_gid)
        if index is not None:
            index.pop(vqp, None)
            if not index:
                del self._connected_vqps[vqp.remote_gid]
        state = vqp.two_sided
        if state is not None:
            if state.bound_port is not None:
                self.unbind(state.bound_port)
            if state.reply_key is not None:
                del self._reply_vqps[state.reply_key]
            for msg in state.pending_msgs:
                self._release_slot(msg)  # undelivered: free the kernel buffers

    def indexed_vqps(self):
        """Every VQP some module table still reaches (quiescence audit)."""
        yield from self._vqps_by_id.values()
        for index in self._connected_vqps.values():
            yield from index
        yield from self._bound.values()
        yield from self._reply_vqps.values()

    def bind(self, port, vqp):
        """qbind: accept two-sided connections on ``port``."""
        if port == KERNEL_PORT:
            raise KrcoreError("port 0 is reserved for the kernel")
        if port in self._bound:
            raise KrcoreError(f"port {port} already bound")
        self._bound[port] = vqp
        vqp.messaging().bound_port = port

    def unbind(self, port):
        """Release a bound port (the VQP keeps working for sends)."""
        vqp = self._bound.pop(port, None)
        if vqp is not None:
            vqp.two_sided.bound_port = None

    # ------------------------------------------------------------- MR handling

    def reg_mr(self, addr, length):
        """Process: register memory, record it in ValidMR, and publish the
        record to the meta server so remote nodes can validate against it."""
        yield timing.reg_mr_ns(length)
        region = self.node.memory.register(addr, length)
        self.valid_mr.record(region)
        self.stats_mrs_registered += 1
        if _check.CHECKER is not None:
            _check.CHECKER.mr_registered(self.node.gid, region.rkey, self.sim.now)
        self.sim.process(
            self._publish_mr(region), name=f"krcore-publish-mr@{self.node.gid}"
        )
        return region

    def _publish_mr(self, region):
        # One kernel message per owning shard host (replication): each
        # host applies the record to its local shard.
        for gid in self.meta_plane.owner_gids(mr_key(self.node.gid, region.rkey)):
            yield from self.send_kernel_msg(
                gid,
                {
                    "type": "publish_mr",
                    "gid": self.node.gid,
                    "rkey": region.rkey,
                    "addr": region.addr,
                    "len": region.length,
                },
            )

    def dereg_mr(self, region):
        """Process: deregister -- but only free the MR after one lease
        period, so stale MRStore entries elsewhere can never hit freed
        memory (§4.2)."""
        self.valid_mr.forget(region)
        self.stats_mrs_retracted += 1
        if _check.CHECKER is not None:
            _check.CHECKER.mr_retracted(
                self.node.gid, region.rkey, self.sim.now, self.mr_store.lease_ns
            )
        for gid in self.meta_plane.owner_gids(mr_key(self.node.gid, region.rkey)):
            yield from self.send_kernel_msg(
                gid,
                {"type": "retract_mr", "gid": self.node.gid, "rkey": region.rkey},
            )
        self.sim.schedule(
            self.mr_store.lease_ns, lambda: self.node.memory.deregister(region)
        )

    # ---------------------------------------------------------- wr_id tokens

    def encode_wr_id(self, vqp, covers, entry=None, event=None):
        """Encode (VQP pointer, covered slot count) into a wr_id token
        (Algorithm 2 line 10/17)."""
        token = self._next_token
        self._next_token += 1
        self._wrid_tokens[token] = _Token(vqp, covers, entry, event)
        return token

    def decode_wr_id(self, token):
        return self._wrid_tokens.pop(token, None)

    # ------------------------------------------------------------- poll_inner

    def poll_inner(self, qp):
        """Algorithm 2 lines 19-25: poll the physical CQ and dispatch.

        Returns the number of physical completions processed.  Slot
        reclamation (uncomp_cnt) happens inside CompletionQueue.poll, and
        the encoded ``covers`` is cross-checked against the hardware's own
        accounting.

        The pre-checks keep *requests* from corrupting a shared QP, but a
        remote failure (dead node -> retry exceeded) can still wreck it;
        when that happens the error is dispatched to the owning VQP and a
        background repair reconfigures the physical QP.
        """
        completions = qp.send_cq.poll(64)
        if completions and _check.CHECKER is not None:
            for wc in completions:
                if wc.wr_id:
                    _check.CHECKER.wr_dispatch(self, wc.wr_id)
        if completions and _metrics.METRICS is not None:
            _metrics.METRICS.counter("krcore.completions_dispatched").inc(
                len(completions)
            )
        saw_error = False
        for wc in completions:
            if wc.status is not WC_SUCCESS:
                saw_error = True
            token = self.decode_wr_id(wc.wr_id)
            if token is None:
                continue  # forced-signal of a flushed chunk, or foreign
            if wc.status is WC_SUCCESS and token.covers != wc.covers:
                raise AssertionError(
                    f"covers mismatch: encoded {token.covers}, hardware {wc.covers}"
                )
            if token.entry is not None:
                token.entry.ready = True
                token.entry.status = wc.status
            if token.event is not None and not token.event.triggered:
                token.event.trigger(wc)
        if saw_error and qp.state is QPS_ERR and qp not in self._repairing:
            self._repairing.add(qp)
            self.sim.process(self._repair_qp(qp), name=f"krcore-repair@{self.node.gid}")
        return len(completions)

    def _repair_qp(self, qp):
        """Process: bring a wrecked pool QP back to RTS in the background
        (drain remaining flushes, then the costly reconfiguration).

        Every posted WR must be completed *and polled* before the reset:
        requests already in flight when the QP entered ERR still complete
        (flushed) at their own network-determined times, and resetting the
        slot accounting under them would make their eventual completions
        reclaim slots the fresh QP never posted."""
        try:
            while qp.outstanding:
                if self.poll_inner(qp) == 0:
                    yield qp.send_cq.wait()
            yield from qp.reconfigure()
        finally:
            self._repairing.discard(qp)

    # ----------------------------------------------------- kernel one-sided ops

    def kernel_one_sided(self, cpu_id, gid, dct_meta, wr):
        """Process: issue one signaled kernel-internal one-sided op through
        the hybrid pool and wait for its completion.

        A DC op that fails REM_ACCESS with metadata *we* looked up may be a
        stale-cache casualty (the target restarted with a new DCT key):
        revalidate once against the meta server and, if the metadata did
        change, re-issue.  Piggybacked metadata is never second-guessed."""
        piggybacked = dct_meta is not None
        pool = self.pool(cpu_id)
        if pool.has_rc(gid):
            qp = pool.select_rc(gid)
        else:
            qp = pool.select_dc()
            if dct_meta is None:
                dct_meta = yield from self._dct_meta_for(cpu_id, gid)
            wr.dct_gid = gid
            wr.dct_number, wr.dct_key = dct_meta
        wc = yield from self._issue_signaled(qp, wr)
        if (
            wc.status is WC_REM_ACCESS_ERR
            and qp.qp_type is QPT_DC
            and not piggybacked
        ):
            try:
                fresh = yield from self.revalidate_dct(cpu_id, gid, stale_meta=dct_meta)
            except KrcoreError:
                return wc  # meta also unreachable: report the original error
            if fresh != tuple(dct_meta):
                wr.dct_gid = gid
                wr.dct_number, wr.dct_key = fresh
                yield from self._await_usable(qp)
                wc = yield from self._issue_signaled(qp, wr)
        return wc

    def _await_usable(self, qp):
        """Process: wait for a wrecked pool QP to be back at RTS, spawning
        the background repair if the error's poll didn't already."""
        while qp.state is not QPS_RTS:
            if qp.state is QPS_ERR and qp not in self._repairing:
                self._repairing.add(qp)
                self.sim.process(
                    self._repair_qp(qp), name=f"krcore-repair@{self.node.gid}"
                )
            yield timing.KRCORE_BACKOFF_BASE_NS

    def _issue_signaled(self, qp, wr):
        """Process: post one signaled WR on ``qp`` and wait it out."""
        event = self.sim.event()
        wr.signaled = True
        wr.wr_id = self.encode_wr_id(None, 1, event=event)
        yield timing.POST_SEND_CPU_NS
        while qp.free_slots < 1:
            if self.poll_inner(qp) == 0:
                yield qp.send_cq.wait()
        qp.post_send(wr)
        wc = yield from self._wait_token_event(qp, event)
        return wc

    def _wait_token_event(self, qp, event):
        """Process: poll until the token's completion fires (it may also be
        dispatched by any other VQP polling the same physical CQ)."""
        while not event.triggered:
            if self.poll_inner(qp) == 0:
                yield qp.send_cq.wait()
        return event.value

    def _dct_meta_for(self, cpu_id, gid):
        meta = self.dc_cache.get(gid)
        if meta is None:
            if _metrics.METRICS is not None:
                _metrics.METRICS.counter("krcore.dc_cache_misses").inc()
            meta = yield from self.lookup_dct_robust(cpu_id, gid)
            if meta is None:
                raise KrcoreError(
                    f"no DCT metadata for {gid}", code=WC_REM_ACCESS_ERR
                )
            if _check.CHECKER is not None:
                _check.CHECKER.dc_cache_insert(self, gid, meta)
            self.dc_cache[gid] = meta
        elif _metrics.METRICS is not None:
            _metrics.METRICS.counter("krcore.dc_cache_hits").inc()
        return meta

    def op_deadline(self, deadline_ns=None):
        """A :class:`Deadline` for one control-path op (explicit budget,
        else the policy's default), or None when budgets are off."""
        if deadline_ns is not None:
            return Deadline.after(self.sim, deadline_ns)
        if self.degrade is not None and self.degrade.deadline_ns is not None:
            return Deadline.after(self.sim, self.degrade.deadline_ns)
        return None

    def meta_breaker(self, shard):
        """The lazily-built circuit breaker guarding one meta shard."""
        breaker = self._meta_breakers.get(shard)
        if breaker is None:
            policy = self.degrade
            breaker = CircuitBreaker(
                self.sim,
                name=f"meta-shard{shard}@{self.node.gid}",
                failure_threshold=policy.breaker_failure_threshold,
                recovery_ns=policy.breaker_recovery_ns,
                latency_threshold_ns=policy.breaker_latency_ns,
            )
            self._meta_breakers[shard] = breaker
        return breaker

    def admit_qconnect(self, cpu_id, deadline=None):
        """Process: pass the per-CPU qconnect admission gate.  A no-op
        generator when admission control is off (the default)."""
        policy = self.degrade
        if policy is None or not policy.admission_enabled:
            return
        gate = self.pool(cpu_id).admission_gate(self.sim, policy)
        yield from gate.admit(deadline)

    def plane_lookup_dct(self, cpu_id, gid, deadline=None):
        """Process: one DCT lookup via the plane, failing over across the
        key's owner shards (primary first).  Raises
        :class:`MetaUnavailableError` only when *every* owner is dark."""
        return (
            yield from self._plane_lookup(
                cpu_id, dct_key(gid), deadline, MetaClient.lookup_dct, gid
            )
        )

    def plane_lookup_mr(self, cpu_id, gid, rkey, deadline=None):
        """Process: one MR-record lookup via the plane, with failover."""
        return (
            yield from self._plane_lookup(
                cpu_id, mr_key(gid, rkey), deadline, MetaClient.lookup_mr, gid, rkey
            )
        )

    def _plane_lookup(self, cpu_id, key, deadline, lookup, *args):
        """Process: ``lookup(client, *args)`` (a :class:`MetaClient` lookup
        method) against ``key``'s owner shards in turn."""
        owners = self.meta_plane.owner_indices(key)
        breakers = self.degrade is not None and self.degrade.breaker_enabled
        last_error = None
        for position, shard in enumerate(owners):
            if position:
                # The budget shrinks across shard probes: whatever the
                # primary burned (an outage probe, a lagging reply) is
                # time the replica probe no longer has.
                if deadline is not None and deadline.expired(self.sim.now):
                    raise DeadlineExceededError(
                        f"budget spent after {position} owner probe(s) of "
                        f"{key!r}", code=WC_RETRY_EXC_ERR,
                    )
                if _trace.TRACER is not None:
                    _trace.TRACER.instant(
                        self.sim.now, self.track, "meta.failover",
                        shard=shard,
                    )
            breaker = self.meta_breaker(shard) if breakers else None
            if breaker is not None and not breaker.allow():
                # Open breaker: fast-fail this shard without burning a
                # META_OUTAGE_PROBE on a dependency known to be sick.
                last_error = MetaUnavailableError(
                    f"meta shard {shard} breaker is {breaker.state}",
                    code=WC_RETRY_EXC_ERR,
                )
                if position + 1 < len(owners):
                    self.stats_meta_failovers += 1
                    if _metrics.METRICS is not None:
                        _metrics.METRICS.counter("krcore.meta_failovers").inc()
                continue
            started = self.sim.now
            try:
                value = yield from lookup(
                    self.meta_client(cpu_id, shard), *args, deadline=deadline
                )
            except DeadlineExceededError:
                # The budget died inside this shard's fetch (queued at the
                # client mutex, or a lagging reply).  No failover -- the
                # caller is out of time either way -- but the breaker
                # learns the shard is slow, so the *next* caller skips it.
                if breaker is not None:
                    breaker.record_failure()
                raise
            except MetaUnavailableError as err:
                if breaker is not None:
                    breaker.record_failure()
                last_error = err
                if position + 1 < len(owners):
                    self.stats_meta_failovers += 1
                    if _metrics.METRICS is not None:
                        _metrics.METRICS.counter("krcore.meta_failovers").inc()
            else:
                if breaker is not None:
                    breaker.record_success(self.sim.now - started)
                return value
        raise last_error

    def lookup_dct_robust(self, cpu_id, gid, deadline=None):
        """Process: DCT metadata lookup with bounded retry + exponential
        backoff (seed-derived jitter desynchronizes concurrent herds),
        each attempt failing over across the key's owner shards.  Raises
        :class:`MetaUnavailableError` once the budget is spent, or
        :class:`DeadlineExceededError` as soon as the caller's remaining
        time cannot cover the next backoff sleep; returns None for a
        *reachable* owner with no record (the node never booted or was
        retracted)."""
        backoff = timing.KRCORE_BACKOFF_BASE_NS
        attempt = 0
        while True:
            self.stats_meta_lookups += 1
            try:
                return (yield from self.plane_lookup_dct(cpu_id, gid, deadline))
            except MetaUnavailableError as err:
                attempt += 1
                if attempt > timing.KRCORE_META_RETRIES:
                    raise
                pause = backoff + timing.backoff_jitter_ns(
                    backoff, f"{self.node.gid}->{gid}", attempt
                )
                if deadline is not None and deadline.remaining_ns(self.sim.now) <= pause:
                    raise DeadlineExceededError(
                        f"deadline cannot cover retry {attempt} backoff "
                        f"({pause} ns) for DCT lookup of {gid}",
                        code=WC_RETRY_EXC_ERR,
                    ) from err
                yield pause
                backoff = min(backoff * 2, timing.KRCORE_BACKOFF_MAX_NS)

    def revalidate_dct(self, cpu_id, gid, stale_meta=None):
        """Process: drop a suspect DCCache entry and re-fetch fresh DCT
        metadata (§4.2: metadata is invalidated when the host is down -- a
        restarted host publishes a new key under the same gid)."""
        if _trace.TRACER is not None:
            _trace.TRACER.instant(
                self.sim.now, self.track, "dct.revalidate", gid=gid
            )
        if _metrics.METRICS is not None:
            _metrics.METRICS.counter("krcore.dct_revalidations").inc()
        cached = self.dc_cache.get(gid)
        if stale_meta is None or cached is None or cached == tuple(stale_meta):
            self.dc_cache.pop(gid, None)
        return (yield from self._dct_meta_for(cpu_id, gid))

    def fence_qp(self, vqp, qp):
        """Process: the §4.6 fence -- a fake signaled request through the
        old physical QP; its completion implies all prior requests on that
        QP are complete (RC FIFO)."""
        peer_module = self._peer_module(vqp.remote_gid)
        fence = WorkRequest.read(
            self._buf_base,
            8,
            self._buf_region.lkey,
            peer_module._buf_base,
            peer_module._buf_region.rkey,
        )
        if qp.qp_type is QPT_DC:
            meta = vqp.dct_meta
            if meta is None:
                meta = yield from self._dct_meta_for(vqp.cpu_id, vqp.remote_gid)
            fence.dct_gid = vqp.remote_gid
            fence.dct_number, fence.dct_key = meta
        wc = yield from self._issue_signaled(qp, fence)
        if wc.status is not WC_SUCCESS:
            raise KrcoreError(f"transfer fence failed: {wc.status}", code=wc.status)

    def _peer_module(self, gid):
        if not self.node.fabric.has_node(gid):
            raise KrcoreError(f"{gid} is unreachable", code=WC_RETRY_EXC_ERR)
        peer = self.node.fabric.node(gid).services.get(self.SERVICE)
        if peer is None:
            raise KrcoreError(f"{gid} runs no KRCORE module", code=WC_RETRY_EXC_ERR)
        return peer

    # ------------------------------------------------------------ kernel msgs

    def send_kernel_msg(self, gid, header):
        """Process: a zero-payload two-sided message to ``gid``'s kernel."""
        header = dict(header)
        header.setdefault("dst_port", KERNEL_PORT)
        header.setdefault("src_gid", self.node.gid)
        header.setdefault("src_dct_meta", self.own_dct_meta)
        wr = WorkRequest.send(0, 0, 0, header=header)
        yield from self.kernel_one_sided_send(gid, wr)

    def kernel_one_sided_send(self, gid, wr):
        pool = self.pool(0)
        if pool.has_rc(gid):
            qp = pool.select_rc(gid)
        else:
            qp = pool.select_dc()
            meta = yield from self._dct_meta_for(0, gid)
            wr.dct_gid = gid
            wr.dct_number, wr.dct_key = meta
        event = self.sim.event()
        wr.signaled = True
        wr.wr_id = self.encode_wr_id(None, 1, event=event)
        while qp.free_slots < 1:
            if self.poll_inner(qp) == 0:
                yield qp.send_cq.wait()
        qp.post_send(wr)
        wc = yield from self._wait_token_event(qp, event)
        if wc.status is not WC_SUCCESS:
            raise KrcoreError(
                f"kernel message to {gid} failed: {wc.status}", code=wc.status
            )

    def _kernel_daemon(self):
        queue = self._port_queue(KERNEL_PORT)
        while True:
            yield queue.wait()
            while len(queue):
                msg = queue.items.pop(0)
                self._release_slot(msg)
                self.sim.process(
                    self._handle_kernel_msg(msg["header"]),
                    name=f"krcore-kmsg@{self.node.gid}",
                )

    def _handle_kernel_msg(self, header):
        kind = header.get("type")
        if kind == "publish_mr":
            if self._local_shard is None:
                raise KrcoreError("publish_mr sent to a non-meta node")
            self._local_shard.publish_mr(
                header["gid"], header["rkey"], header["addr"], header["len"]
            )
        elif kind == "retract_mr":
            if self._local_shard is None:
                raise KrcoreError("retract_mr sent to a non-meta node")
            self._local_shard.retract_mr(header["gid"], header["rkey"])
        elif kind == "transfer":
            yield from self._handle_peer_transfer(header)
            return
        elif kind == "transfer_ack":
            event = self._transfer_acks.pop(
                (header["src_gid"], header["to_vqp"]), None
            )
            if event is not None and not event.triggered:
                event.trigger(None)
        yield 0  # all handlers are processes

    #: How long to wait for a transfer acknowledgment before concluding
    #: the peer is gone (no reply can ever arrive from a dead node).
    TRANSFER_ACK_TIMEOUT_NS = 10 * 1_000_000

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
                gid,
                {"type": "transfer", "to_vqp": peer_vqp_id, "from_vqp": vqp.id},
            )
        except KrcoreError:
            # The notification itself failed (peer unreachable): give up
            # on the ack and let the caller swap.
            self._transfer_acks.pop((gid, vqp.id), None)
            return
        yield AnyOf([ack, self.sim.timeout(self.TRANSFER_ACK_TIMEOUT_NS)])
        self._transfer_acks.pop((gid, vqp.id), None)

    def _handle_peer_transfer(self, header):
        vqp = self._vqps_by_id.get(header["to_vqp"])
        if vqp is not None and vqp.qp is not None:
            pool = self.pool(vqp.cpu_id)
            if pool.has_rc(vqp.remote_gid):
                new_qp = pool.select_rc(vqp.remote_gid)
            else:
                new_qp = pool.select_dc()
                vqp.dct_meta = yield from self._dct_meta_for(vqp.cpu_id, vqp.remote_gid)
            # A transfer already running re-virtualizes this side anyway
            # (waiting for it here could deadlock two peers that promote
            # at once: each holds its switch for the other's ack).
            if not vqp.transferring:
                yield from vqp.transfer_to(new_qp, notify_peer=False)
        yield from self.send_kernel_msg(
            header["src_gid"],
            {
                "type": "transfer_ack",
                "to_vqp": header["from_vqp"],
            },
        )

    # --------------------------------------------------------------- receive

    def _kernel_buffer(self, slot):
        return RecvBuffer(
            self._buf_base + slot * self.kernel_buf_bytes,
            self.kernel_buf_bytes,
            self._buf_region.lkey,
            wr_id=slot,
        )

    def _post_kernel_buffer(self, replenisher):
        if not self._free_slots:
            return False
        replenisher(self._kernel_buffer(self._free_slots.popleft()))
        return True

    def _recv_dispatcher(self, cq, replenisher):
        """Drain one physical receive CQ, routing messages to VQPs/ports."""
        while True:
            yield cq.wait()
            for wc in cq.poll(128):
                self._route_message(wc, replenisher)

    def _route_message(self, wc, replenisher):
        if wc.opcode is OP_RECV_IMM:
            # WRITE_WITH_IMM: the payload already landed at ``raddr`` via
            # the write half; the consumed kernel buffer only carried the
            # CQE, so free its slot right away and restock.  The 32-bit
            # immediate names the destination VQP.
            self._free_slots.append(wc.wr_id)
            self._post_kernel_buffer(replenisher)
            vqp = self._vqps_by_id.get(wc.imm)
            if vqp is None:
                return  # no such VQP: the immediate is dropped
            vqp.enqueue(
                "recv_completions",
                Completion(
                    0,
                    WC_SUCCESS,
                    OP_RECV_IMM,
                    byte_len=wc.byte_len,
                    src=wc.src,
                    imm=wc.imm,
                ),
            )
            self._vqp_msg_arrived(vqp)
            return
        header = wc.header or {}
        msg = {
            "header": header,
            "slot": wc.wr_id,
            "len": wc.byte_len,
            "replenisher": replenisher,
            "released": False,
        }
        # Keep the receive queue stocked while the slot is in use.
        self._post_kernel_buffer(replenisher)
        dst_vqp = header.get("dst_vqp")
        if dst_vqp is not None:
            vqp = self._vqps_by_id.get(dst_vqp)
            if vqp is None:
                self._release_slot(msg)
                return
            vqp.enqueue("pending_msgs", msg)
            self._vqp_msg_arrived(vqp)
            return
        port = header.get("dst_port")
        if port is None or (port != KERNEL_PORT and port not in self._bound):
            self._release_slot(msg)  # no receiver: drop
            return
        self._port_queue(port).append(msg)

    def _release_slot(self, msg):
        if msg["released"]:
            return
        msg["released"] = True
        self._free_slots.append(msg["slot"])

    def _port_queue(self, port):
        queue = self._port_queues.get(port)
        if queue is None:
            queue = _MsgQueue(self.sim)
            self._port_queues[port] = queue
        return queue

    # -- waiting hooks for VQP-addressed messages --

    def _vqp_msg_arrived(self, vqp):
        waiters = vqp.two_sided.msg_waiters
        if waiters:
            for event in waiters:
                if not event.triggered:
                    event.trigger(None)
            waiters.clear()

    def vqp_msg_event(self, vqp):
        event = self.sim.event()
        state = vqp.messaging()
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
            user_buf = state.recv_queue.pop(0)
            byte_len = yield from self._land_message(vqp, msg, user_buf)
            header = msg["header"]
            vqp.enqueue(
                "recv_completions",
                Completion(
                    user_buf.wr_id,
                    WC_SUCCESS,
                    OP_RECV,
                    byte_len=byte_len,
                    src=(header.get("src_gid"), header.get("src_vqp")),
                    header=header,
                ),
            )

    def _land_message(self, vqp, msg, user_buf):
        """Process: copy path or zero-copy READ path (§4.5)."""
        header = msg["header"]
        zc = header.get("zc")
        yield timing.TWO_SIDED_SERVER_CPU_KERNEL_NS - timing.TWO_SIDED_SERVER_CPU_NS
        if zc is not None:
            self._release_slot(msg)  # descriptor slot freed immediately
            if zc["len"] > user_buf.length:
                raise KrcoreError(
                    f"zero-copy payload of {zc['len']}B exceeds the user's "
                    f"{user_buf.length}B receive buffer"
                )
            wr = WorkRequest.read(
                user_buf.addr, zc["len"], user_buf.lkey, zc["addr"], zc["rkey"]
            )
            wc = yield from self.kernel_one_sided(
                vqp.cpu_id, header["src_gid"], header.get("src_dct_meta"), wr
            )
            if wc.status is not WC_SUCCESS:
                raise KrcoreError(f"zero-copy READ failed: {wc.status}", code=wc.status)
            return zc["len"]
        length = min(msg["len"], user_buf.length)
        yield int(length * timing.MEMCPY_NS_PER_BYTE)
        payload = self.node.memory.read(
            self._buf_base + msg["slot"] * self.kernel_buf_bytes, length
        )
        self.node.memory.write(user_buf.addr, payload)
        self._release_slot(msg)
        return length

    def qpop_msgs(self, vqp, max_msgs=16, cpu_id=None):
        """Process: §4.4 qpop_msgs -- drain the bound port's messages into
        the VQP's user buffers and hand back (reply-VQP, completion) pairs.

        The reply VQP is connected with the piggybacked DCT metadata, so no
        additional network request is ever issued.  ``cpu_id`` selects the
        hybrid pool the reply VQPs virtualize from -- the calling thread's
        CPU, like the real per-CPU kernel handler (§4.2).
        """
        state = vqp.two_sided
        if state is None or state.bound_port is None:
            raise KrcoreError(f"VQP {vqp.id} is not bound; call qbind first")
        if cpu_id is None:
            cpu_id = vqp.cpu_id
        queue = self._port_queue(state.bound_port)
        results = []
        while len(queue) and len(results) < max_msgs and state.recv_queue:
            msg = queue.items.pop(0)
            user_buf = state.recv_queue.pop(0)
            byte_len = yield from self._land_message(vqp, msg, user_buf)
            header = msg["header"]
            reply_vqp = yield from self._reply_vqp(vqp, header, cpu_id)
            results.append(
                (
                    reply_vqp,
                    Completion(
                        user_buf.wr_id,
                        WC_SUCCESS,
                        OP_RECV,
                        byte_len=byte_len,
                        src=(header.get("src_gid"), header.get("src_vqp")),
                        header=header,
                    ),
                )
            )
        return results

    def wait_port_msg(self, vqp):
        """Event that fires when the bound port has (or gets) a message."""
        return self._port_queue(vqp.two_sided.bound_port).wait()

    def _reply_vqp(self, bound_vqp, header, cpu_id):
        key = (bound_vqp.two_sided.bound_port, header["src_gid"], header["src_vqp"])
        vqp = self._reply_vqps.get(key)
        if vqp is not None:
            return vqp
        # Piggybacked metadata primes the DCCache: the connect below never
        # queries the meta server.
        meta = header.get("src_dct_meta")
        if meta is not None:
            self.dc_cache.setdefault(header["src_gid"], tuple(meta))
        vqp = self.create_vqp(cpu_id=cpu_id)
        yield from vqp.connect(header["src_gid"])
        state = vqp.messaging()
        state.peer = (header["src_gid"], header["src_vqp"])
        state.reply_key = key
        self._reply_vqps[key] = vqp
        return vqp

    def migrate_vqp(self, vqp, new_cpu_id):
        """Process: re-virtualize a VQP onto another CPU's pool (§4.2:
        "In case of thread migrations, KRCORE also re-virtualizes QPs in
        the background with a transparent QP transfer protocol")."""
        pool = self.pool(new_cpu_id)
        if vqp.qp is not None:
            if vqp.remote_gid is not None and pool.has_rc(vqp.remote_gid):
                new_qp = pool.select_rc(vqp.remote_gid)
                yield from vqp.transfer_to(new_qp)
            else:
                meta = vqp.dct_meta
                if meta is None and vqp.remote_gid is not None:
                    meta = yield from self._dct_meta_for(new_cpu_id, vqp.remote_gid)
                yield from vqp.transfer_to(pool.select_dc(), new_dct_meta=meta)
        vqp.cpu_id = pool.cpu_id

    # ------------------------------------------------------ background RCQPs

    def note_traffic(self, gid, cpu_id, count=1):
        """Sample outgoing traffic; kick off background RC creation for
        frequently-contacted nodes (§4.3)."""
        if gid is None:
            return
        self._traffic[gid] = self._traffic.get(gid, 0) + count
        if not self.background_rc:
            return
        pool = self.pool(cpu_id)
        if (
            self._traffic[gid] >= self.rc_traffic_threshold
            and not pool.has_rc(gid)
            and (gid, pool.cpu_id) not in self._rc_creating
        ):
            self._rc_creating.add((gid, pool.cpu_id))
            self.sim.process(
                self._create_rc_background(gid, pool),
                name=f"krcore-rc-create@{self.node.gid}",
            )

    def establish_rc(self, gid, pool):
        """Process: full RC handshake to ``gid``'s daemon (the paper's old
        control path), wired for kernel receive and inserted in ``pool``.

        Used both for background RC promotion and as the degraded-mode
        fallback when the meta service is unreachable (a handshake needs no
        DCT metadata).  Returns the RTS queue pair."""
        if _trace.TRACER is not None:
            _trace.TRACER.begin(
                self.sim.now, self.track, "krcore.establish_rc",
                gid=gid,
            )
        send_cq = CompletionQueue(self.sim)
        qp = yield from rc_connect(self.context, send_cq, gid, port=KRCORE_RC_PORT)
        # Separate the recv CQ so the dispatcher never steals send
        # completions from poll_inner.
        qp.recv_cq = CompletionQueue(self.sim)
        for _ in range(8):
            self._post_kernel_buffer(qp.post_recv)
        self.sim.process(
            self._recv_dispatcher(qp.recv_cq, qp.post_recv),
            name=f"krcore-dispatch-rc@{self.node.gid}",
        )
        evicted = pool.insert_rc(gid, qp)
        if evicted is not None:
            self._retire_rc(*evicted, pool)
        if _trace.TRACER is not None:
            _trace.TRACER.end(
                self.sim.now, self.track, "krcore.establish_rc"
            )
        return qp

    def _create_rc_background(self, gid, pool):
        """Process: create + configure an RCQP to ``gid`` in the background
        (the control-path cost is off the application's critical path), then
        transparently transfer this CPU's VQPs onto it."""
        try:
            qp = yield from self.establish_rc(gid, pool)
            for vqp in list(self._connected_vqps.get(gid, ())):
                if vqp.cpu_id == pool.cpu_id and vqp.qp is not qp:
                    yield from vqp.transfer_to(qp)
        finally:
            self._rc_creating.discard((gid, pool.cpu_id))

    def _retire_rc(self, gid, qp, pool):
        """An LRU-evicted RCQP: move its VQPs back onto DC before dropping."""
        self.sim.process(self._retire_rc_proc(gid, qp, pool))

    def _retire_rc_proc(self, gid, qp, pool):
        for vqp in list(self._connected_vqps.get(gid, ())):
            if vqp.qp is qp:
                meta = yield from self._dct_meta_for(pool.cpu_id, gid)
                yield from vqp.transfer_to(pool.select_dc(), new_dct_meta=meta)
        self.node.rnic.unregister_qp(qp)
        if _check.CHECKER is not None:
            _check.CHECKER.rc_retired(qp)

    def _on_rc_accept(self, qp, client_gid):
        """The remote side of background RC creation: stock the accepted QP
        with kernel buffers and start dispatching its receives."""
        # Own both CQs: the daemon's shared accept CQ must not mix this
        # module's completions with other services' (LITE, apps).
        qp.send_cq = CompletionQueue(self.sim)
        qp.recv_cq = CompletionQueue(self.sim)
        for _ in range(8):
            self._post_kernel_buffer(qp.post_recv)
        self.sim.process(
            self._recv_dispatcher(qp.recv_cq, qp.post_recv),
            name=f"krcore-dispatch-acc@{self.node.gid}",
        )
        # The accepted QP is also useful for our own traffic back.
        pool = self.pool(_stable_key(client_gid) % len(self._pools))
        if not pool.has_rc(client_gid):
            evicted = pool.insert_rc(client_gid, qp)
            if evicted is not None:
                # Same as establish_rc: the LRU victim must migrate its
                # VQPs and leave the RNIC, or it leaks a registered QP.
                self._retire_rc(*evicted, pool)

    # -------------------------------------------------------------- liveness

    def invalidate_node(self, gid):
        """Drop all cached state about a dead node (§4.2: DCT metadata is
        invalidated only when the host is down)."""
        self.dc_cache.pop(gid, None)
        self.mr_store.invalidate(gid)
        for pool in self.built_pools():
            qp = pool.drop_rc(gid)
            if qp is not None:
                # An RCQP to a dead peer is useless; leaving it registered
                # would leak driver memory exactly like an unretired LRU
                # victim (the pool-qp-accounting invariant).
                self.node.rnic.unregister_qp(qp)
                if _check.CHECKER is not None:
                    _check.CHECKER.rc_retired(qp)
        if self._local_shard is not None:
            self._local_shard.retract_node(gid)

    # ------------------------------------------------------------- accounting

    def connection_cache_bytes(self):
        """Memory for connection caching: the QP pools plus the 12-byte DCT
        metadata entries (Fig 15a); an unbuilt pool's DCQPs count all the same."""
        built = self.built_pools()
        unbuilt_dc = (len(self._pools) - len(built)) * self.dc_per_cpu
        return (
            sum(pool.memory_bytes() for pool in built)
            + unbuilt_dc * timing.dc_qp_memory_bytes()
            + len(self.dc_cache) * timing.DCT_METADATA_BYTES
        )


def _stable_key(text):
    """A deterministic small hash (Python's hash() is salted per process)."""
    value = 0
    for ch in text.encode():
        value = (value * 131 + ch) % 1_000_000_007
    return value
