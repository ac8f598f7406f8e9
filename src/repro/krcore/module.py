"""The per-node KRCORE kernel module (§3.2 architecture).

Owns the per-CPU hybrid QP pools, the DCCache, ValidMR/MRStore, the VQP
table, the wr_id token table that Algorithm 2's dispatch relies on, the
meta-plane lookup path and the RC lifecycle.  Two-sided kernel messaging
-- the receive buffers, dispatchers, ports and control messages -- is its
collaborator :class:`~repro.krcore.messaging.KernelMessaging`,
``module.messaging``.
"""

import weakref

from repro import obs
from repro.cluster import timing
from repro.degrade import CircuitBreaker, Deadline
from repro.krcore.messaging import KernelMessaging
from repro.krcore.meta import (
    DCT_RETRY_TEXTS, MetaClient, MetaPlane, MetaServer, dct_key, mr_key,
)
from repro.krcore.mrstore import MrStore, ValidMr
from repro.krcore.pool import HybridQpPool
from repro.krcore.vqp import KrcoreError, Vqp
from repro.verbs.errors import DeadlineExceededError, MetaUnavailableError
from repro.verbs import (
    CompletionQueue, ConnectionManager, DctTarget, DriverContext, WorkRequest,
)
from repro.verbs.connection import rc_connect
from repro.verbs.types import (
    QPS_ERR,
    QPS_RTS,
    QPT_DC,
    WC_REM_ACCESS_ERR,
    WC_RETRY_EXC_ERR,
    WC_SUCCESS,
)

#: Port the background RC creator connects to on the remote node.
KRCORE_RC_PORT = 17


class _Token:
    """Decoded wr_id payload: the dispatch info Algorithm 2 encodes."""

    __slots__ = ("vqp", "covers", "entry", "event")

    def __init__(self, vqp, covers, entry, event):
        self.vqp = vqp
        self.covers = covers
        self.entry = entry
        self.event = event


class _VqpRef(weakref.ref):
    """An entry of the VQP id table: a weak reference that knows its id,
    so the one callback every entry shares can unlink it."""

    __slots__ = ("vqp_id",)


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
        degrade=None,
    ):
        self.node = node
        self.sim = node.sim
        #: Overload-protection policy (repro.degrade.DegradePolicy) or
        #: None -- the default, in which case every guard below is a
        #: single falsy check and the control path is unchanged.
        self.degrade = degrade
        self._meta_breakers = {}  # shard index -> CircuitBreaker
        #: The meta plane this module talks to.  A bare MetaServer is
        #: wrapped into a one-shard plane, so ``meta_server`` accepts both
        #: and the single-deployment control path is unchanged.
        self.meta_plane = MetaPlane.ensure(meta_server)
        #: The meta shard hosted on *this* node, if any (publication kernel
        #: messages are only legal on shard hosts).
        self.local_shard = node.services.get(MetaServer.SERVICE)
        self.context = DriverContext(node, kernel=True)
        self.background_rc = background_rc
        self.rc_traffic_threshold = rc_traffic_threshold

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
        self.dct_target = DctTarget(node, dc_key)
        self.dct_target.recv_cq = CompletionQueue(self.sim)
        if obs.OBSERVER is not None:
            obs.OBSERVER.on_dct_published(self)
        self.messaging = KernelMessaging(
            self, kernel_buf_bytes, kernel_buf_count, zero_copy, zero_copy_threshold
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
        self.meta_clients = {}  # (cpu, shard) -> MetaClient
        self.meta_plane.publish_dct(node.gid, *self.own_dct_meta)
        buf_region = self.messaging.buf_region
        self.meta_plane.publish_mr(
            node.gid, buf_region.rkey, buf_region.addr, buf_region.length
        )
        self.valid_mr.record(buf_region)
        # Prime the DCCache with every shard host so kernel messaging to
        # the meta plane never needs a bootstrap lookup.
        for shard in self.meta_plane.shards:
            meta_module = shard.node.services.get(self.SERVICE)
            if meta_module is not None:
                self.dc_cache.setdefault(shard.node.gid, meta_module.own_dct_meta)

        # --- the VQP tables; kernel control messages ---
        #: VQP id -> ``_VqpRef`` to the live VQP; connected ones in
        #: first-connect order.  A freed VQP's entry unlinks itself, so the
        #: table is walked through a snapshot (:meth:`live_vqps`).
        self.vqps_by_id = {}
        self._unlink_vqp = self._vqp_freed  # the callback every entry shares
        #: VQP id -> VQP whose id went on the wire: a peer may name it.
        self.published_vqps = {}
        self._next_vqp_id = 1
        self.messaging.serve_kernel_port()

        # --- background RC machinery ---
        self._traffic = {}  # gid -> send count since RC decision
        self._rc_creating = set()
        manager = node.services.get(ConnectionManager.SERVICE)
        if manager is None:
            manager = ConnectionManager(node, self.context)
        manager.listen(KRCORE_RC_PORT, self._on_rc_accept)

        self.stats_transfers = 0
        self.stats_meta_failovers = 0
        self.stats_rc_fallbacks = 0
        # Lease-churn accounting (MicroView pod churn): registrations and
        # retractions since boot; sampled per harvest cycle by the app.
        self.stats_mrs_registered = 0
        self.stats_mrs_retracted = 0
        self.wrid_tokens = {}  # wr_id -> _Token, until its completion is dispatched
        self._next_token = 1
        self._repairing = set()
        node.services[self.SERVICE] = self

    # ------------------------------------------------------------------ basics

    @property
    def own_dct_meta(self):
        return (self.dct_target.number, self.dct_target.key)

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
        client = self.meta_clients.get(key)
        if client is None:
            client = MetaClient(
                self.node, self.meta_plane.shards[shard], shard_index=shard
            )
            self.meta_clients[key] = client
        return client

    def create_vqp(self, cpu_id=0):
        """vqp_create (Algorithm 1): software queues only, physical QP
        assignment deferred to qconnect."""
        vqp_id = self._next_vqp_id
        self._next_vqp_id = vqp_id + 1
        vqp = Vqp(self, cpu_id, vqp_id)
        ref = _VqpRef(vqp, self._unlink_vqp)
        ref.vqp_id = vqp_id
        self.vqps_by_id[vqp_id] = ref
        return vqp

    def _vqp_freed(self, ref):
        # pop, not del: a snapshot can outlive the entry destroy_vqp removed.
        self.vqps_by_id.pop(ref.vqp_id, None)

    def vqp(self, vqp_id):
        """The live VQP with id ``vqp_id``, or None."""
        ref = self.vqps_by_id.get(vqp_id)
        return None if ref is None else ref()

    def live_vqps(self):
        """The live VQPs in table order (a snapshot)."""
        vqps = []
        for ref in list(self.vqps_by_id.values()):
            vqp = ref()
            if vqp is not None:
                vqps.append(vqp)
        return vqps

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
        del self.vqps_by_id[vqp.id]
        self.published_vqps.pop(vqp.id, None)
        if vqp.two_sided is not None:
            self.messaging.forget(vqp.two_sided)

    def indexed_vqps(self):
        """Every VQP a table reaches: by id, pinned, bound or replying (the audit)."""
        yield from self.live_vqps()
        yield from self.published_vqps.values()
        yield from self.messaging.bound.values()
        yield from self.messaging.reply_vqps.values()

    def connected_vqps(self, gid):
        """The live VQPs connected to ``gid``, in connect order (a snapshot)."""
        return [vqp for vqp in self.live_vqps() if vqp.remote_gid == gid]

    # ------------------------------------------------------------- MR handling

    def reg_mr(self, addr, length):
        """Process: register memory, record it in ValidMR, and publish the
        record to the meta server so remote nodes can validate against it."""
        yield timing.reg_mr_ns(length)
        region = self.node.memory.register(addr, length)
        self.valid_mr.record(region)
        self.stats_mrs_registered += 1
        if obs.OBSERVER is not None:
            obs.OBSERVER.on_mr_registered(self, region)
        self.sim.process(
            self.messaging.announce_mr(region), name=f"krcore-publish-mr@{self.node.gid}"
        )
        return region

    def boot_mr(self, addr, length):
        """Register memory at boot, at no cost: recorded in ValidMR and
        published to the meta plane at once -- the state :meth:`reg_mr`
        reaches once its publication lands.  Returns the region."""
        region = self.node.memory.register(addr, length)
        self.valid_mr.record(region)
        self.meta_plane.publish_mr(self.node.gid, region.rkey, addr, length)
        return region

    def dereg_mr(self, region):
        """Process: deregister -- but only free the MR after one lease
        period, so stale MRStore entries elsewhere can never hit freed
        memory (§4.2)."""
        self.valid_mr.forget(region)
        self.stats_mrs_retracted += 1
        if obs.OBSERVER is not None:
            obs.OBSERVER.on_mr_retracted(self, region, self.sim.now)
        yield from self.messaging.announce_mr(region, retract=True)
        self.sim.schedule(
            self.mr_store.lease_ns, lambda: self.node.memory.deregister(region)
        )

    # ---------------------------------------------------------- wr_id tokens

    def encode_wr_id(self, vqp, covers, entry=None, event=None):
        """Encode (VQP pointer, covered slot count) into a wr_id token
        (Algorithm 2 line 10/17)."""
        token = self._next_token
        self._next_token += 1
        self.wrid_tokens[token] = _Token(vqp, covers, entry, event)
        return token

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
        if completions and obs.OBSERVER is not None:
            for wc in completions:
                if wc.wr_id:
                    obs.OBSERVER.on_wr_dispatch(self, wc.wr_id)
        saw_error = False
        for wc in completions:
            if wc.status is not WC_SUCCESS:
                saw_error = True
            token = self.wrid_tokens.pop(wc.wr_id, None)
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
        if saw_error:
            self._start_repair(qp)
        return len(completions)

    def _start_repair(self, qp):
        """Spawn the background repair of a wrecked pool QP, once."""
        if qp.state is QPS_ERR and qp not in self._repairing:
            self._repairing.add(qp)
            self.sim.process(self._repair_qp(qp), name=f"krcore-repair@{self.node.gid}")

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

    def target_qp(self, cpu_id, gid, dct_meta=None):
        """Process: the physical QP that reaches ``gid`` from ``cpu_id``'s
        pool, and the DCT metadata it needs: the pooled RCQP and None, else
        the next DCQP and ``dct_meta`` -- when not given, the DCCache's, or
        the meta plane's on a miss."""
        pool = self.pool(cpu_id)
        if pool.has_rc(gid):
            return pool.select_rc(gid), None
        qp = pool.select_dc()
        if dct_meta is None:
            dct_meta = yield from self._dct_meta_for(cpu_id, gid)
        return qp, dct_meta

    def post_signaled(self, qp, wr, gid=None, dct_meta=None, cpu_ns=timing.POST_SEND_CPU_NS):
        """Process: post ``wr`` signaled on ``qp`` -- DC-addressed to
        ``gid`` when ``dct_meta`` is given -- after ``cpu_ns`` of posting
        CPU, and wait for its completion (any other VQP polling the same
        physical CQ may dispatch it)."""
        if dct_meta is not None:
            wr.dct_gid = gid
            wr.dct_number, wr.dct_key = dct_meta
        event = self.sim.event()
        wr.signaled = True
        wr.wr_id = self.encode_wr_id(None, 1, event=event)
        if cpu_ns:
            yield cpu_ns
        while qp.free_slots < 1:
            if self.poll_inner(qp) == 0:
                yield qp.send_cq.wait()
        qp.post_send(wr)
        while not event.triggered:
            if self.poll_inner(qp) == 0:
                yield qp.send_cq.wait()
        return event.value

    def _dct_meta_for(self, cpu_id, gid):
        meta = self.dc_cache.get(gid)
        if obs.OBSERVER is not None:
            obs.OBSERVER.on_dct_meta_miss() if meta is None else obs.OBSERVER.on_dct_meta_hit()
        if meta is None:
            meta = self.cache_dct(gid, (yield from self.lookup_dct_robust(cpu_id, gid)))
        return meta

    def cache_dct(self, gid, meta):
        """Fill the DCCache with a lookup's answer and return it; no record
        (None) fails the access REM_ACCESS."""
        if meta is None:
            raise KrcoreError(f"no DCT metadata for {gid}", code=WC_REM_ACCESS_ERR)
        if obs.OBSERVER is not None:
            obs.OBSERVER.on_dc_cache_insert(self, gid, meta)
        self.dc_cache[gid] = meta
        return meta

    def fence_qp(self, vqp, qp):
        """Process: the §4.6 fence -- a fake signaled request through the
        old physical QP; its completion implies all prior requests on that
        QP are complete (RC FIFO)."""
        gid = vqp.remote_gid
        if not self.node.fabric.has_node(gid):
            raise KrcoreError(f"{gid} is unreachable", code=WC_RETRY_EXC_ERR)
        peer_module = self.node.fabric.node(gid).services.get(self.SERVICE)
        if peer_module is None:
            raise KrcoreError(f"{gid} runs no KRCORE module", code=WC_RETRY_EXC_ERR)
        peer = peer_module.messaging
        fence = WorkRequest.read(
            self.messaging.buf_base,
            8,
            self.messaging.buf_region.lkey,
            peer.buf_base,
            peer.buf_region.rkey,
        )
        meta = None
        if qp.qp_type is QPT_DC:
            meta = vqp.dct_meta
            if meta is None:
                meta = yield from self._dct_meta_for(vqp.cpu_id, vqp.remote_gid)
        wc = yield from self.post_signaled(qp, fence, vqp.remote_gid, meta)
        if wc.status is not WC_SUCCESS:
            raise KrcoreError(f"transfer fence failed: {wc.status}", code=wc.status)

    def migrate_vqp(self, vqp, new_cpu_id):
        """Process: re-virtualize a VQP onto another CPU's pool (§4.2:
        "In case of thread migrations, KRCORE also re-virtualizes QPs in
        the background with a transparent QP transfer protocol")."""
        if vqp.qp is not None:
            qp, meta = yield from self.target_qp(new_cpu_id, vqp.remote_gid, vqp.dct_meta)
            yield from vqp.transfer_to(qp, new_dct_meta=meta)
        vqp.cpu_id = self.pool(new_cpu_id).cpu_id

    # ------------------------------------------------------ meta-plane lookups

    def op_deadline(self, deadline_ns=None):
        """A :class:`Deadline` ``deadline_ns`` from now for one control-path
        op, or None when the caller gave no budget."""
        if deadline_ns is None:
            return None
        return Deadline.after(self.sim, deadline_ns)

    def meta_breaker(self, shard):
        """The lazily-built circuit breaker guarding one meta shard."""
        breaker = self._meta_breakers.get(shard)
        if breaker is None:
            breaker = CircuitBreaker(self.sim, name=f"meta-shard{shard}@{self.node.gid}")
            self._meta_breakers[shard] = breaker
        return breaker

    def plane_lookup_dct(self, cpu_id, gid):
        """Process: one DCT lookup via the plane, failing over across the
        key's owner shards (primary first).  Raises
        :class:`MetaUnavailableError` only when *every* owner is dark."""
        return self._plane_lookup(cpu_id, dct_key(gid), None, MetaClient.lookup_dct, gid)

    def plane_lookup_mr(self, cpu_id, gid, rkey):
        """Process: one MR-record lookup via the plane, with failover."""
        return self._plane_lookup(
            cpu_id, mr_key(gid, rkey), None, MetaClient.lookup_mr, gid, rkey
        )

    def _plane_lookup(self, cpu_id, key, deadline, lookup, *args):
        """Process: ``lookup(client, *args)`` (a :class:`MetaClient` lookup
        method) against ``key``'s owner shards in turn."""
        owners = self.meta_plane.owner_indices(key)
        breakers = self.degrade is not None
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
                if obs.OBSERVER is not None:
                    obs.OBSERVER.on_meta_failover_probe(self.sim.now, self, shard)
            breaker = self.meta_breaker(shard) if breakers else None
            if breaker is not None and not breaker.allow():
                # Open breaker: fast-fail this shard without burning a
                # META_OUTAGE_PROBE on a dependency known to be sick.
                last_error = MetaUnavailableError(
                    f"meta shard {shard} breaker is {breaker.state}",
                    code=WC_RETRY_EXC_ERR,
                )
            else:
                started = self.sim.now
                try:
                    value = yield from lookup(
                        self.meta_client(cpu_id, shard), *args, deadline=deadline
                    )
                except DeadlineExceededError:
                    # The budget died inside this shard's fetch (queued at
                    # the client mutex, or a lagging reply).  No failover --
                    # the caller is out of time either way -- but the
                    # breaker learns the shard is slow, so the *next*
                    # caller skips it.
                    if breaker is not None:
                        breaker.record_failure()
                    raise
                except MetaUnavailableError as err:
                    if breaker is not None:
                        breaker.record_failure()
                    last_error = err
                else:
                    if breaker is not None:
                        breaker.record_success(self.sim.now - started)
                    return value
            if position + 1 < len(owners):
                self.stats_meta_failovers += 1
                if obs.OBSERVER is not None:
                    obs.OBSERVER.on_meta_failover()
        raise last_error

    def lookup_dct_robust(self, cpu_id, gid, deadline=None):
        """Process: DCT metadata lookup with :meth:`retry_meta`'s bounded
        retry; returns None for a *reachable* owner with no record (the
        node never booted or was retracted)."""
        return self.retry_meta(
            self._plane_lookup,
            (cpu_id, dct_key(gid), deadline, MetaClient.lookup_dct, gid),
            deadline, DCT_RETRY_TEXTS, gid,
        )

    def retry_meta(self, lookup, args, deadline, texts, *subject):
        """Process: ``lookup(*args)`` (a plane lookup) with bounded retry +
        exponential backoff (jitter seeded by the jitter key of ``texts``,
        formatted with this node and ``subject``, desynchronizes concurrent
        herds), each attempt failing over across the record's owner shards.
        Raises :class:`MetaUnavailableError` once the budget is spent, or
        :class:`DeadlineExceededError` as soon as the caller's remaining
        time cannot cover the next backoff sleep."""
        backoff = timing.KRCORE_BACKOFF_BASE_NS
        attempt = 0
        while True:
            try:
                return (yield from lookup(*args))
            except MetaUnavailableError as err:
                attempt += 1
                if attempt > timing.KRCORE_META_RETRIES:
                    raise
                jitter_text, what = texts
                jitter_key = jitter_text.format(self.node.gid, *subject)
                pause = backoff + timing.backoff_jitter_ns(backoff, jitter_key, attempt)
                if deadline is not None and deadline.remaining_ns(self.sim.now) <= pause:
                    raise DeadlineExceededError(
                        f"deadline cannot cover retry {attempt} backoff "
                        f"({pause} ns) for {what.format(self.node.gid, *subject)}",
                        code=WC_RETRY_EXC_ERR,
                    ) from err
                yield pause
                backoff = min(backoff * 2, timing.KRCORE_BACKOFF_MAX_NS)

    def revalidate_dct(self, cpu_id, gid, stale_meta=None):
        """Process: drop a suspect DCCache entry and re-fetch fresh DCT
        metadata (§4.2: metadata is invalidated when the host is down -- a
        restarted host publishes a new key under the same gid)."""
        if obs.OBSERVER is not None:
            obs.OBSERVER.on_dct_revalidate(self.sim.now, self, gid)
        cached = self.dc_cache.get(gid)
        if stale_meta is None or cached is None or cached == tuple(stale_meta):
            self.dc_cache.pop(gid, None)
        return (yield from self._dct_meta_for(cpu_id, gid))

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
        observer = obs.OBSERVER
        if observer is not None:
            observer.on_establish_rc(self.sim.now, self, gid)
        try:
            qp = yield from rc_connect(
                self.context, CompletionQueue(self.sim), gid, port=KRCORE_RC_PORT
            )
            self.messaging.arm_rc(qp)
            self._insert_rc(pool, gid, qp)
        finally:
            if observer is not None:
                observer.on_establish_rc_end(self.sim.now, self)
        return qp

    def _insert_rc(self, pool, gid, qp):
        """Pool ``qp`` as the RCQP to ``gid``.  The LRU victim it evicts must
        migrate its VQPs and leave the RNIC, or it leaks a registered QP."""
        evicted = pool.insert_rc(gid, qp)
        if evicted is not None:
            self.sim.process(self._retire_rc(*evicted, pool))

    def _create_rc_background(self, gid, pool):
        """Process: create + configure an RCQP to ``gid`` in the background
        (the control-path cost is off the application's critical path), then
        transparently transfer this CPU's VQPs onto it."""
        try:
            qp = yield from self.establish_rc(gid, pool)
            for vqp in self.connected_vqps(gid):
                if vqp.cpu_id == pool.cpu_id and vqp.qp is not qp:
                    yield from vqp.transfer_to(qp)
        finally:
            self._rc_creating.discard((gid, pool.cpu_id))

    def _retire_rc(self, gid, qp, pool):
        """Process: an LRU-evicted RCQP moves its VQPs back onto DC, then
        leaves the RNIC."""
        for vqp in self.connected_vqps(gid):
            if vqp.qp is qp:
                meta = yield from self._dct_meta_for(pool.cpu_id, gid)
                yield from vqp.transfer_to(pool.select_dc(), new_dct_meta=meta)
        self.node.rnic.unregister_qp(qp)
        if obs.OBSERVER is not None:
            obs.OBSERVER.on_rc_retired(qp)

    def _on_rc_accept(self, qp, client_gid):
        """The remote side of background RC creation: arm the accepted QP
        for kernel receive and pool it for our own traffic back."""
        # Own both CQs: the daemon's shared accept CQ must not mix this
        # module's completions with other services' (LITE, apps).
        qp.send_cq = CompletionQueue(self.sim)
        self.messaging.arm_rc(qp)
        pool = self.pool(_stable_key(client_gid) % len(self._pools))
        if not pool.has_rc(client_gid):
            self._insert_rc(pool, client_gid, qp)


def _stable_key(text):
    """A deterministic small hash (Python's hash() is salted per process)."""
    value = 0
    for ch in text.encode():
        value = (value * 131 + ch) % 1_000_000_007
    return value
