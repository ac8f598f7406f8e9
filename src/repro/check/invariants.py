"""The invariant registry: control-plane safety properties as hooks.

A :class:`Checker` subscribes through the observer seam
(``repro.obs.attached(checker=...)``); its hooks are the ``hook`` column
of :mod:`repro.obs.probes`.  Hooks are synchronous, never yield, and read
simulated time off the calling object's own clock, so an installed
checker observes a run without perturbing it.

One checker may watch many runs.  What it keys by gid or meta key is
kept per :class:`~repro.sim.Simulator` (a *world*), since gids and keys
repeat across clusters; it learns a world's modules from their boot
(``dct_published``) and the meta planes from those modules.  It holds
each simulator it saw, but the QPs, WRs, modules, breakers and gates it
watches only weakly or by value: it never keeps a run alive.
:meth:`Checker.finalize` audits what belongs to a drained simulator; a
run still holding events (stopped at ``until=``) gets only the laws
checked at the hook.

Invariants
----------

``pool-qp-accounting``
    Every RNIC-registered RCQP the pool ever managed is either still
    owned by a pool or was retired (unregistered from its RNIC).  An
    evicted/dropped QP left registered is a driver-memory leak -- the
    accept-path variant of this was a real bug fixed in PR 4.
``dccache-incarnation``
    Every DCCache insert sourced from the meta plane carries DCT
    metadata that some incarnation of the target node actually
    published: a cache entry must never outlive the *namespace* of node
    incarnations (cross-wired or corrupted metadata).
``mrstore-lease``
    MRStore never promotes a verdict past its lease: a fresh-lookup
    entry is stamped with the current epoch, and a degraded-mode stale
    accept keeps an epoch strictly in the past (re-stamping it -- the
    PR 4 bug -- would suppress revalidation after the meta plane
    recovers).
``mr-read-churn-window``
    No one-sided READ executes against a remote MR retracted more than
    one lease ago: ``dereg_mr`` defers the physical free by exactly one
    lease, so a READ landing later than ``retract_t + lease_ns`` would
    touch freed memory.  Fed by registration/retraction hooks in
    ``KrcoreModule`` and execution hooks on the verbs READ paths
    (including vectored READ_V segments).
``meta-replica-divergence`` / ``meta-lost-write``
    At quiescence, every live owner shard of a written meta key holds
    the last written value (convergence); a write visible on *no* live
    owner was lost across failover.
``wr-exactly-once``
    No signaled work-request completion is dispatched twice through one
    module's ``poll_inner`` (Algorithm 2's wr_id token table), and no
    token is lost at quiescence: one left in the table must have its
    completion waiting, unpolled, on the QP its VQP is on.  No
    completion, or one on a QP the VQP has left (a post that slipped
    behind a QP transfer's fence, §4.6), is a lost one.
``vqp-table-accounting``
    At quiescence no module table (by id, published pins, bound
    port, reply) still reaches a VQP that ``destroy_vqp`` dropped (a
    ``qconnect`` in flight across the destroy must fail, not re-index it).
``vqp-unreaped-completion``
    At quiescence no live VQP holds a dispatched (ready) completion in
    its software queue: an owner polls until it has every completion of
    what it posted, so one left behind was dispatched where its owner no
    longer looks.
``batch-exactly-once``
    Every WR of a doorbell-batched chain (``QueuePair.post_send_batch``)
    that the QP accepted completes exactly once: a mid-chain fault
    (RETRY_EXC) must neither drop its successors (they flush with
    FLUSH_ERR) nor complete any chain member twice.  Checked per
    physical WR at the ``_complete`` hook, with a quiescence sweep for
    chain members that never completed.
``rnic-busy-conservation``
    Busy intervals of one serialized RNIC engine (ops and stalls alike)
    never overlap: occupancy is conserved, so modelled throughput
    ceilings cannot be double-counted; at quiescence the inbound engine
    has served every op it admitted.
``breaker-state-sanity``
    Circuit breakers only walk the legal state machine (closed -> open
    -> half_open -> {closed, open}) and every reported transition
    departs from the state last observed -- a breaker that skips states
    or forks its own history is mis-wired.
``admission-no-drop`` / ``admission-accounting``
    An op the admission gate *admitted* is never subsequently shed
    (admission is a promise), and at quiescence every arrival settled
    exactly once: admitted + shed + rejected, with no waiter stranded
    in the queue.
"""

import weakref

__all__ = ["Checker", "Violation"]


class Violation:
    """One observed invariant violation."""

    __slots__ = ("invariant", "t", "detail")

    def __init__(self, invariant, t, detail):
        self.invariant = invariant
        self.t = int(t)
        self.detail = detail

    def __repr__(self):
        return f"Violation({self.invariant!r}, t={self.t}, {self.detail!r})"


def _watch(table, obj, *state):
    """``table``'s record of ``obj``, ``[weakref, *state]`` keyed by its
    id: a fresh one if the id last named another (dead) object."""
    record = table.get(id(obj))
    if record is None or record[0]() is not obj:
        record = table[id(obj)] = [weakref.ref(obj), *state]
    return record


class _World:
    """What the checker knows of one simulator's run, by gid and by key."""

    __slots__ = ("sim", "modules", "published_dct", "incarnations", "mr_retired", "meta_last")

    def __init__(self, sim):
        self.sim = sim
        self.modules = []  # [weakref(module), incarnation at boot]
        self.published_dct = {}  # gid -> {(dct_number, dct_key), ...}
        self.incarnations = {}  # gid -> latest incarnation seen
        self.mr_retired = {}  # (gid, rkey) -> (retract_t, lease_ns)
        self.meta_last = {}  # key bytes -> (last value or None, weakref(server))


class Checker:
    """Collects hook events and evaluates the invariant registry.

    Immediate invariants (lease stamps, duplicate dispatch, busy
    overlap, cache provenance) are checked at the hook; accounting
    invariants that need quiescence (pool ownership, replica
    convergence, token drain) run in :meth:`finalize`.
    """

    def __init__(self):
        self.violations = []
        #: Hook activity counters, name -> count.  Directed tests assert
        #: these are nonzero, so a silently disconnected hook fails.
        self.observed = {}
        self._worlds = {}  # Simulator -> _World
        # Keyed by the id of a live object, each record led by its weakref:
        self._rc_tracked = {}  # id(qp) -> [ref, gid, weakref(rnic at insert), state]
        self._dispatched = {}  # id(module) -> [ref, {wr_id, ...}]
        self._busy = {"command": {}, "inbound": {}}  # engine -> id(rnic) -> [ref, last end]
        self._gates = {}  # id(gate) -> [ref, {op_id: last event}]
        self._breakers = {}  # id(breaker) -> [ref, last_state]
        # id(wr) -> [ref, sim, qpn, gid, chain, index, wr_id, opcode, completions],
        # and the records of chain members that died before they completed.
        self._batch = {}
        self._lost_batch = []
        self._batch_chains = 0

    # ------------------------------------------------------------- reporting

    def _note(self, kind):
        self.observed[kind] = self.observed.get(kind, 0) + 1

    def _world(self, sim):
        world = self._worlds.get(sim)
        if world is None:
            world = self._worlds[sim] = _World(sim)
        return world

    def violate(self, invariant, t, detail):
        self.violations.append(Violation(invariant, t, detail))

    @property
    def ok(self):
        return not self.violations

    def summary(self):
        status = "PASS" if self.ok else f"FAIL({len(self.violations)})"
        hooks = sum(self.observed.values())
        return f"invariants={status} hook_events={hooks}"

    # ------------------------------------------------- krcore pool accounting

    def pool_rc_insert(self, pool, gid, qp, evicted):
        """An RCQP entered ``pool`` (establish_rc / _on_rc_accept),
        possibly LRU-evicting ``evicted = (gid, qp)``."""
        self._note("pool.insert")
        tracked = self._rc_tracked
        tracked[id(qp)] = [weakref.ref(qp), gid, weakref.ref(qp.node.rnic), "pooled"]
        if evicted is not None:
            egid, eqp = evicted
            _watch(tracked, eqp, egid, weakref.ref(eqp.node.rnic), None)[3] = "evicted"

    def rc_retired(self, qp):
        """A previously pooled RCQP finished retirement (unregistered)."""
        self._note("pool.retire")
        record = self._rc_tracked.get(id(qp))
        if record is not None and record[0]() is qp:
            record[3] = "retired"

    # -------------------------------------------------- DCCache incarnations

    def dct_published(self, module):
        """A node incarnation's module booted and published its DCT metadata."""
        self._note("dct.publish")
        world = self._world(module.sim)
        node = module.node
        world.modules.append([weakref.ref(module), node.incarnation])
        world.published_dct.setdefault(node.gid, set()).add(tuple(module.own_dct_meta))
        world.incarnations[node.gid] = node.incarnation

    def dc_cache_insert(self, module, gid, meta):
        """A DCCache insert sourced from the meta plane (authoritative
        lookups only -- piggybacked metadata is deliberately unhooked,
        an in-flight message from an older incarnation is legal)."""
        self._note("dccache.insert")
        world = self._world(module.sim)
        published = world.published_dct.get(gid)
        if published is not None and tuple(meta) not in published:
            self.violate(
                "dccache-incarnation",
                module.sim.now,
                f"{module.node.gid} cached DCT meta {tuple(meta)} for {gid}, "
                f"never published by any incarnation "
                f"(latest {world.incarnations.get(gid)})",
            )

    # --------------------------------------------------------- MRStore lease

    def mr_accept(self, store, gid, rkey, entry_epoch, now_epoch, stale):
        """MRStore cached a positive verdict for (gid, rkey)."""
        self._note("mrstore.accept")
        if entry_epoch > now_epoch:
            self.violate(
                "mrstore-lease",
                store.sim.now,
                f"{store.module.node.gid} cached ({gid}, rkey={rkey}) with "
                f"future epoch {entry_epoch} > {now_epoch}",
            )
        elif stale and entry_epoch >= now_epoch:
            self.violate(
                "mrstore-lease",
                store.sim.now,
                f"{store.module.node.gid} re-stamped a stale accept of "
                f"({gid}, rkey={rkey}) to the current epoch {now_epoch} -- "
                "suppresses revalidation after the meta plane recovers",
            )
        elif not stale and entry_epoch != now_epoch:
            self.violate(
                "mrstore-lease",
                store.sim.now,
                f"{store.module.node.gid} cached a fresh verdict for "
                f"({gid}, rkey={rkey}) at past epoch {entry_epoch} != {now_epoch}",
            )

    # ------------------------------------------------------- MR churn window

    def mr_registered(self, module, rkey):
        """``KrcoreModule.reg_mr`` registered ``rkey`` on ``module``'s node:
        the key is live again, so any earlier retraction record for it is
        obsolete."""
        self._note("mr.registered")
        self._world(module.sim).mr_retired.pop((module.node.gid, rkey), None)

    def mr_retracted(self, module, rkey, t):
        """``KrcoreModule.dereg_mr`` retracted ``rkey`` on ``module``'s
        node; the physical free lands one lease later."""
        self._note("mr.retracted")
        world = self._world(module.sim)
        world.mr_retired[module.node.gid, rkey] = (int(t), int(module.mr_store.lease_ns))

    def read_executed(self, sim, gid, rkey):
        """A one-sided READ's memory op executed against (gid, rkey)."""
        world = self._worlds.get(sim)
        record = None if world is None else world.mr_retired.get((gid, rkey))
        if record is None:
            return
        self._note("mr.read_after_retract")
        retract_t, lease_ns = record
        t = sim.now
        if t > retract_t + lease_ns:
            self.violate(
                "mr-read-churn-window",
                t,
                f"READ executed against ({gid}, rkey={rkey}) at t={t}, "
                f"{t - retract_t} ns after its retraction at "
                f"{retract_t} -- past the one-lease ({lease_ns} ns) "
                "deferred-free window",
            )

    # ------------------------------------------------------------ meta plane

    def meta_write(self, server, key, value):
        """A meta shard applied a write (``value is None`` == delete)."""
        self._note("meta.write")
        self._world(server.sim).meta_last[bytes(key)] = (value, weakref.ref(server))

    # ------------------------------------------------------- completion path

    def wr_dispatch(self, module, wr_id):
        """``poll_inner`` on ``module`` saw a completion for ``wr_id``."""
        self._note("wr.dispatch")
        seen = _watch(self._dispatched, module, set())[1]
        if wr_id in seen:
            self.violate(
                "wr-exactly-once",
                module.sim.now,
                f"{module.node.gid} dispatched wr_id {wr_id} twice",
            )
        else:
            seen.add(wr_id)

    def batch_posted(self, qp, wrs):
        """``post_send_batch`` accepted a doorbell-batched chain."""
        self._note("batch.posted")
        self._batch_chains += 1
        batch, sim, gid = self._batch, qp.sim, qp.node.gid
        for index, wr in enumerate(wrs):
            old = batch.get(id(wr))
            if old is not None and old[8] == 0:
                self._lost_batch.append(old)  # its WR died before it completed
            batch[id(wr)] = [weakref.ref(wr), sim, qp.qpn, gid, self._batch_chains, index,
                             wr.wr_id, wr.opcode.value, 0]

    def wr_completed(self, qp, wr, status):
        """``QueuePair._complete`` resolved ``wr`` (every WR, batched or
        not; unsignaled successes count -- they resolve without a CQE).
        Only chain members registered by :meth:`batch_posted` are
        tracked."""
        record = self._batch.get(id(wr))
        if record is None or record[0]() is not wr:
            return
        self._note("batch.complete")
        record[8] += 1
        if record[8] > 1:
            self.violate(
                "batch-exactly-once",
                qp.sim.now,
                f"qpn={qp.qpn} on {qp.node.gid}: chain {record[4]} WR "
                f"#{record[5]} (wr_id={wr.wr_id}) completed {record[8]} "
                f"times (last status {status.name})",
            )

    def rnic_busy(self, rnic, engine, start, end):
        """``rnic``'s serialized ``engine`` ("command" / "inbound") is
        occupied over [start, end], by an op or by a stall."""
        observed = self.observed  # _note inlined: one call per RNIC op
        observed["rnic.busy"] = observed.get("rnic.busy", 0) + 1
        ends = self._busy[engine]
        record = ends.get(id(rnic))
        if record is None or record[0]() is not rnic:
            record = ends[id(rnic)] = [weakref.ref(rnic), None]
        last_end = record[1]
        if last_end is not None and start < last_end:
            self.violate(
                "rnic-busy-conservation",
                rnic.sim.now,
                f"rnic@{rnic.node.gid} {engine} interval [{start}, {end}] "
                f"overlaps previous busy interval ending at {last_end}",
            )
            end = max(end, last_end)
        record[1] = end

    # ------------------------------------------------------ degrade breakers

    #: The circuit-breaker state machine (mirrors
    #: ``repro.degrade.BREAKER_TRANSITIONS``; duplicated here so the
    #: checker does not import the layer it is auditing).
    _BREAKER_LEGAL = frozenset(
        [
            ("closed", "open"),
            ("open", "half_open"),
            ("half_open", "closed"),
            ("half_open", "open"),
        ]
    )

    def breaker_transition(self, breaker, old, new, t):
        """A :class:`repro.degrade.CircuitBreaker` changed state."""
        self._note("breaker.transition")
        record = _watch(self._breakers, breaker, "closed")
        if old != record[1]:
            self.violate(
                "breaker-state-sanity",
                t,
                f"breaker {breaker.name!r} reports transition from {old!r} "
                f"but was last observed in {record[1]!r}",
            )
        if (old, new) not in self._BREAKER_LEGAL:
            self.violate(
                "breaker-state-sanity",
                t,
                f"breaker {breaker.name!r} made illegal transition "
                f"{old!r} -> {new!r}",
            )
        record[1] = new

    # ----------------------------------------------------- admission control

    #: Legal lifecycle steps for one admission op: (previous, event).
    #: ``None`` = first observation of the op_id.
    _ADMISSION_LEGAL = frozenset(
        [
            (None, "admitted"),
            (None, "queued"),
            (None, "rejected"),
            ("queued", "admitted"),
            ("queued", "shed"),
        ]
    )

    def admission_event(self, gate, op_id, event, t):
        """One step in an :class:`repro.degrade.AdmissionGate` op's life."""
        self._note(f"admission.{event}")
        steps = _watch(self._gates, gate, {})[1]
        prev = steps.get(op_id)
        if (prev, event) not in self._ADMISSION_LEGAL:
            name = (
                "admission-no-drop"
                if prev == "admitted"
                else "admission-accounting"
            )
            self.violate(
                name,
                t,
                f"gate {gate.name!r} op {op_id}: illegal lifecycle step "
                f"{prev!r} -> {event!r}",
            )
        steps[op_id] = event

    # --------------------------------------------------------------- finalize

    def finalize(self):
        """Run the quiescence laws over what belongs to a drained
        simulator; returns the violations."""
        for world in self._worlds.values():
            if world.sim.drained:
                self._finalize_world(world, world.sim.now)
        self._finalize_pools()
        self._finalize_rnics()
        self._finalize_admission()
        for record in [*self._lost_batch, *self._batch.values()]:
            _, sim, qpn, gid, chain_no, index, wr_id, opcode, completions = record
            if completions == 0 and sim.drained:
                self.violate(
                    "batch-exactly-once",
                    sim.now,
                    f"qpn={qpn} on {gid}: chain {chain_no} WR #{index} "
                    f"(wr_id={wr_id}, {opcode}) never completed "
                    "(dropped successor of a faulted chain?)",
                )
        return self.violations

    def _finalize_world(self, world, now):
        modules = [module for ref, incarnation in world.modules
                   if (module := ref()) is not None and module.node.incarnation == incarnation]
        planes = {id(module.meta_plane): module.meta_plane for module in modules}
        self._finalize_meta(world, planes.values(), now)
        for module in modules:
            lost = self._lost_tokens(module)
            if lost:
                self.violate(
                    "wr-exactly-once",
                    now,
                    f"{module.node.gid} lost the completion of wr_id token(s) {lost} "
                    "at quiescence: none waits on the QP its VQP is on",
                )
            unreaped = [vqp.id for vqp in module.live_vqps()
                        if any(entry.ready for entry in vqp.comp_queue)]
            if unreaped:
                self.violate(
                    "vqp-unreaped-completion",
                    now,
                    f"{module.node.gid}: live VQP(s) {unreaped} hold dispatched "
                    "completion(s) nobody reaped at quiescence",
                )
            stale = {vqp.id for vqp in module.indexed_vqps() if vqp.destroyed}
            if stale:
                self.violate(
                    "vqp-table-accounting",
                    now,
                    f"{module.node.gid} still indexes destroyed VQP(s) "
                    f"{sorted(stale)}",
                )

    @staticmethod
    def _lost_tokens(module):
        """``module``'s wr_id tokens whose completion waits nowhere: on no
        pool QP for a token naming no VQP, else not on the QP its VQP is
        on."""
        lost = []
        for wr_id, token in module.wrid_tokens.items():
            if token.vqp is None:
                qps = [qp for pool in module.built_pools() for qp in (*pool.dc, *pool.rc.values())]
            else:
                qps = [] if token.vqp.qp is None else [token.vqp.qp]
            if not any(qp.send_cq.holds(qp, wr_id) for qp in qps):
                lost.append(wr_id)
        return lost

    def _finalize_pools(self):
        for ref, gid, rnic_ref, state in self._rc_tracked.values():
            qp, rnic = ref(), rnic_ref()
            if qp is None or rnic is None or qp.node.rnic is not rnic:
                continue  # gone, or the node restarted: that RNIC no longer exists
            if not qp.sim.drained:
                continue
            now = qp.sim.now
            registered = rnic.qp(qp.qpn) is qp
            if state == "evicted" and registered:
                self.violate(
                    "pool-qp-accounting",
                    now,
                    f"RCQP qpn={qp.qpn} to {gid} was {state} from the pool on "
                    f"{qp.node.gid} but is still RNIC-registered (leak)",
                )
            elif state == "pooled" and not registered:
                self.violate(
                    "pool-qp-accounting",
                    now,
                    f"RCQP qpn={qp.qpn} to {gid} is pool-owned on "
                    f"{qp.node.gid} but not RNIC-registered",
                )

    def _finalize_rnics(self):
        """RNIC queues all drained (the inbound busy-until clock)."""
        for ref, _end in self._busy["inbound"].values():
            rnic = ref()
            if rnic is None or not rnic.sim.drained:
                continue
            now = rnic.sim.now
            unserved = rnic._inbound_admitted - rnic.stats_inbound_ops
            if unserved or rnic._inbound_free_at > rnic.sim.now:
                self.violate(
                    "rnic-busy-conservation",
                    now,
                    f"rnic@{rnic.node.gid} inbound engine busy until "
                    f"{rnic._inbound_free_at}, {unserved} op(s) unserved at quiescence",
                )

    def _finalize_admission(self):
        for ref, _steps in self._gates.values():
            gate = ref()
            if gate is None or not gate.sim.drained:
                continue
            now = gate.sim.now
            if gate.pending:
                self.violate(
                    "admission-accounting",
                    now,
                    f"gate {gate.name!r} still holds {gate.pending} queued "
                    "op(s) at quiescence (waiter neither admitted nor shed)",
                )
            settled = gate.stats_admitted + gate.stats_shed + gate.stats_rejected
            if gate.stats_arrivals != settled:
                self.violate(
                    "admission-accounting",
                    now,
                    f"gate {gate.name!r}: {gate.stats_arrivals} arrival(s) but "
                    f"{settled} settled (admitted={gate.stats_admitted} "
                    f"shed={gate.stats_shed} rejected={gate.stats_rejected})",
                )

    def _finalize_meta(self, world, planes, now):
        """Each write against the live owners of its key, in the plane whose
        shard applied it."""
        plane_of = {id(shard): plane for plane in planes for shard in plane.shards}
        for key, (expected, server_ref) in sorted(world.meta_last.items()):
            server = server_ref()
            plane = None if server is None else plane_of.get(id(server))
            if plane is None:
                continue
            owners = [shard for shard in plane.owners(key) if shard.node.alive]
            if not owners:
                continue
            actual = {shard.node.gid: shard.store.get_local(key) for shard in owners}
            values = list(actual.values())
            label = key.decode("latin-1")
            if all(value != expected for value in values):
                self.violate(
                    "meta-lost-write",
                    now,
                    f"meta key {label}: last write {expected!r} visible on no "
                    f"live owner ({actual!r})",
                )
            elif any(value != expected for value in values):
                self.violate(
                    "meta-replica-divergence",
                    now,
                    f"meta key {label}: owners diverge at quiescence "
                    f"({actual!r}, expected {expected!r})",
                )
