"""The invariant registry: control-plane safety properties as hooks.

A :class:`Checker` subscribes through the observer seam
(``repro.obs.attached(checker=...)``); its hooks are the ``hook`` column
of :mod:`repro.obs.probes`.  Hooks are synchronous, never yield, and read
simulated time off the calling object's own clock, so an installed
checker observes a run without perturbing it.

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
    token is left undispatched at quiescence.
``vqp-table-accounting``
    At quiescence no module table (by id, published pins, bound
    port, reply) still reaches a VQP that ``destroy_vqp`` dropped (a
    ``qconnect`` in flight across the destroy must fail, not re-index it).
``vqp-unreaped-completion``
    At quiescence no live VQP holds a dispatched (ready) completion in
    its software queue: an owner polls until it has every completion of
    what it posted, so one left behind was dispatched where its owner no
    longer looks (a post that slipped behind a QP transfer's fence, §4.6).
``batch-exactly-once``
    Every WR of a doorbell-batched chain (``QueuePair.post_send_batch``)
    completes exactly once: a mid-chain fault (RETRY_EXC) must neither
    drop its successors (they flush with FLUSH_ERR) nor complete any
    chain member twice.  Checked per physical WR at the ``_complete``
    hook, with a quiescence sweep for chain members that never
    completed.
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

Scenario-specific invariants are reported through :meth:`Checker.custom`.
"""

import hashlib
import json

__all__ = ["Checker", "Violation"]


class Violation:
    """One observed invariant violation."""

    __slots__ = ("invariant", "t", "detail")

    def __init__(self, invariant, t, detail):
        self.invariant = invariant
        self.t = int(t)
        self.detail = detail

    def to_dict(self):
        return {"invariant": self.invariant, "t": self.t, "detail": self.detail}

    def __repr__(self):
        return f"Violation({self.invariant!r}, t={self.t}, {self.detail!r})"


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
        #: The op history a scenario records for the linearizability pass
        #: (``repro.check.linearizability``): ``(key, Op)`` pairs in
        #: invocation order, an op's ``response`` None until it returns.
        self.history = []
        # pool accounting: id(qp) -> [qp, gid, rnic-at-insert, state]
        self._rc_tracked = {}
        # dccache provenance: gid -> {(dct_number, dct_key), ...}
        self._published_dct = {}
        self._incarnations = {}  # gid -> latest incarnation seen
        # meta writes: key(bytes) -> last value (None == deleted)
        self._meta_last = {}
        # wr dispatch: id(module) -> [module, set(wr_id)]
        self._wr_seen = {}
        # doorbell chains: id(wr) -> [wr, qp, chain_no, index, completions]
        self._batch_wrs = {}
        self._batch_chains = 0
        # rnic busy: (rnic, engine) -> last_end
        self._busy = {}
        # mr churn: (gid, rkey) -> (retract_t, lease_ns) for retracted MRs
        self._mr_retired = {}
        # degrade breakers: id(breaker) -> [breaker, last_state]
        self._breakers = {}
        # admission lifecycle: (id(gate), op_id) -> last event
        self._admission = {}
        # admission gates seen, for quiescence accounting: id -> gate
        self._gates = {}

    # ------------------------------------------------------------- reporting

    def _note(self, kind):
        self.observed[kind] = self.observed.get(kind, 0) + 1

    def violate(self, invariant, t, detail):
        self.violations.append(Violation(invariant, t, detail))

    def custom(self, invariant, t, detail):
        """Report a scenario-specific invariant violation."""
        self._note(f"custom.{invariant}")
        self.violate(invariant, t, detail)

    @property
    def ok(self):
        return not self.violations

    # ------------------------------------------------- krcore pool accounting

    def pool_rc_insert(self, pool, gid, qp, evicted):
        """An RCQP entered ``pool`` (establish_rc / _on_rc_accept),
        possibly LRU-evicting ``evicted = (gid, qp)``."""
        self._note("pool.insert")
        self._rc_tracked[id(qp)] = [qp, gid, qp.node.rnic, "pooled"]
        if evicted is not None:
            egid, eqp = evicted
            record = self._rc_tracked.get(id(eqp))
            if record is None:
                record = [eqp, egid, eqp.node.rnic, "evicted"]
                self._rc_tracked[id(eqp)] = record
            else:
                record[3] = "evicted"

    def rc_retired(self, qp):
        """A previously pooled RCQP finished retirement (unregistered)."""
        self._note("pool.retire")
        record = self._rc_tracked.get(id(qp))
        if record is not None:
            record[3] = "retired"

    # -------------------------------------------------- DCCache incarnations

    def dct_published(self, gid, incarnation, meta):
        """A node incarnation came up and published its DCT metadata."""
        self._note("dct.publish")
        self._published_dct.setdefault(gid, set()).add(tuple(meta))
        self._incarnations[gid] = incarnation

    def dc_cache_insert(self, module, gid, meta):
        """A DCCache insert sourced from the meta plane (authoritative
        lookups only -- piggybacked metadata is deliberately unhooked,
        an in-flight message from an older incarnation is legal)."""
        self._note("dccache.insert")
        published = self._published_dct.get(gid)
        if published is not None and tuple(meta) not in published:
            self.violate(
                "dccache-incarnation",
                module.sim.now,
                f"{module.node.gid} cached DCT meta {tuple(meta)} for {gid}, "
                f"never published by any incarnation "
                f"(latest {self._incarnations.get(gid)})",
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

    def mr_registered(self, gid, rkey, t):
        """``KrcoreModule.reg_mr`` registered (gid, rkey): the key is live
        again, so any earlier retraction record for it is obsolete."""
        self._note("mr.registered")
        self._mr_retired.pop((gid, rkey), None)

    def mr_retracted(self, gid, rkey, t, lease_ns):
        """``KrcoreModule.dereg_mr`` retracted (gid, rkey); the physical
        free lands one lease later."""
        self._note("mr.retracted")
        self._mr_retired[(gid, rkey)] = (int(t), int(lease_ns))

    def read_executed(self, gid, rkey, t):
        """A one-sided READ's memory op executed against (gid, rkey)."""
        record = self._mr_retired.get((gid, rkey))
        if record is None:
            return
        self._note("mr.read_after_retract")
        retract_t, lease_ns = record
        if t > retract_t + lease_ns:
            self.violate(
                "mr-read-churn-window",
                t,
                f"READ executed against ({gid}, rkey={rkey}) at t={int(t)}, "
                f"{int(t) - retract_t} ns after its retraction at "
                f"{retract_t} -- past the one-lease ({lease_ns} ns) "
                "deferred-free window",
            )

    # ------------------------------------------------------------ meta plane

    def meta_write(self, server, key, value):
        """A meta shard applied a write (``value is None`` == delete)."""
        self._note("meta.write")
        self._meta_last[bytes(key)] = value

    # ------------------------------------------------------- completion path

    def wr_dispatch(self, module, wr_id):
        """``poll_inner`` on ``module`` saw a completion for ``wr_id``."""
        self._note("wr.dispatch")
        record = self._wr_seen.get(id(module))
        if record is None:
            self._wr_seen[id(module)] = [module, {wr_id}]
            return
        seen = record[1]
        if wr_id in seen:
            self.violate(
                "wr-exactly-once",
                module.sim.now,
                f"{module.node.gid} dispatched wr_id {wr_id} twice",
            )
        else:
            seen.add(wr_id)

    def batch_posted(self, qp, wrs):
        """A doorbell-batched chain was posted via ``post_send_batch``."""
        self._note("batch.posted")
        self._batch_chains += 1
        chain_no = self._batch_chains
        for index, wr in enumerate(wrs):
            self._batch_wrs[id(wr)] = [wr, qp, chain_no, index, 0]

    def wr_completed(self, qp, wr, status):
        """``QueuePair._complete`` resolved ``wr`` (every WR, batched or
        not; unsignaled successes count -- they resolve without a CQE).
        Only chain members registered by :meth:`batch_posted` are
        tracked, so unbatched traffic leaves no trace in the digest."""
        record = self._batch_wrs.get(id(wr))
        if record is None:
            return
        self._note("batch.complete")
        record[4] += 1
        if record[4] > 1:
            self.violate(
                "batch-exactly-once",
                qp.sim.now,
                f"qpn={qp.qpn} on {qp.node.gid}: chain {record[2]} WR "
                f"#{record[3]} (wr_id={wr.wr_id}) completed {record[4]} "
                f"times (last status {status.name})",
            )

    def rnic_busy(self, rnic, engine, start, end):
        """``rnic``'s serialized ``engine`` ("command" / "inbound") is
        occupied over [start, end], by an op or by a stall."""
        self._note("rnic.busy")
        last_end = self._busy.get((rnic, engine))
        if last_end is not None and start < last_end:
            self.violate(
                "rnic-busy-conservation",
                rnic.sim.now,
                f"rnic@{rnic.node.gid} {engine} interval [{start}, {end}] "
                f"overlaps previous busy interval ending at {last_end}",
            )
            end = max(end, last_end)
        self._busy[rnic, engine] = int(end)

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
        record = self._breakers.get(id(breaker))
        if record is None:
            record = self._breakers[id(breaker)] = [breaker, "closed"]
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
        self._gates[id(gate)] = gate
        key = (id(gate), op_id)
        prev = self._admission.get(key)
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
        self._admission[key] = event

    # --------------------------------------------------------------- finalize

    def finalize(self, modules=(), plane=None, now=0):
        """Run the quiescence checks; call after the simulation drained."""
        modules = list(modules)
        self._finalize_pools(now)
        self._finalize_admission(now)
        self._finalize_rnics(now)
        if plane is not None:
            self._finalize_meta(plane, now)
        for module in modules:
            if module.wrid_tokens:
                self.violate(
                    "wr-exactly-once",
                    now,
                    f"{module.node.gid} left {len(module.wrid_tokens)} wr_id "
                    "token(s) undispatched at quiescence (lost completion)",
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
        for wr, qp, chain_no, index, completions in self._batch_wrs.values():
            if completions == 0:
                self.violate(
                    "batch-exactly-once",
                    now,
                    f"qpn={qp.qpn} on {qp.node.gid}: chain {chain_no} WR "
                    f"#{index} (wr_id={wr.wr_id}, {wr.opcode.value}) never "
                    "completed (dropped successor of a faulted chain?)",
                )
        return self.violations

    def _finalize_pools(self, now):
        for qp, gid, rnic, state in self._rc_tracked.values():
            if qp.node.rnic is not rnic:
                continue  # the node restarted; that RNIC no longer exists
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

    def _finalize_rnics(self, now):
        """RNIC queues all drained (the inbound busy-until clock)."""
        for rnic in {rnic: None for rnic, _engine in self._busy}:
            unserved = rnic._inbound_admitted - rnic.stats_inbound_ops
            if unserved or rnic._inbound_free_at > rnic.sim.now:
                self.violate(
                    "rnic-busy-conservation",
                    now,
                    f"rnic@{rnic.node.gid} inbound engine busy until "
                    f"{rnic._inbound_free_at}, {unserved} op(s) unserved at quiescence",
                )

    def _finalize_admission(self, now):
        for gate in self._gates.values():
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

    def _finalize_meta(self, plane, now):
        for key, expected in sorted(self._meta_last.items()):
            owners = [shard for shard in plane.owners(key) if shard.node.alive]
            if not owners:
                continue
            actual = {
                shard.node.gid: shard.store.get_local(key) for shard in owners
            }
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

    # ---------------------------------------------------------------- export

    def to_dict(self):
        return {
            "violations": [v.to_dict() for v in self.violations],
            "observed": {k: self.observed[k] for k in sorted(self.observed)},
        }

    def digest(self):
        """SHA-256 over the canonical JSON of violations + hook counts."""
        text = json.dumps(self.to_dict(), sort_keys=True)
        return hashlib.sha256(text.encode()).hexdigest()

    def summary(self):
        status = "PASS" if self.ok else f"FAIL({len(self.violations)})"
        hooks = sum(self.observed.values())
        return f"invariants={status} hook_events={hooks}"
