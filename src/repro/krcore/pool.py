"""The hybrid QP pool: static DCQPs plus on-the-fly RCQPs (§4.2).

The pool is divided per CPU to avoid lock contention; each VQP only
virtualizes QPs from its local CPU's pool.  DCQPs exist from module load
(``KrcoreModule.pool`` builds a CPU's share when it is first used); RCQPs
appear in the background for frequently-contacted nodes and are reclaimed
LRU when the pool overflows.
"""

from repro import obs
from repro.degrade import AdmissionGate


class HybridQpPool:
    """One CPU's share of the node's QP pool."""

    def __init__(self, sim, cpu_id, dc_qps, max_rc=32):
        self.sim = sim
        self.cpu_id = cpu_id
        self.dc = list(dc_qps)
        self.max_rc = max_rc
        self._dc_next = 0
        self.rc = {}  # gid -> QueuePair
        self._rc_last_use = {}  # gid -> sim time of last selection
        #: Admission gate guarding this CPU's share of the meta-lookup
        #: capacity (repro.degrade); None until a DegradePolicy asks for
        #: it, so the default pool pays nothing.
        self.admission = None

    def admission_gate(self, sim, policy):
        """The lazily-built qconnect admission gate for this CPU."""
        gate = self.admission
        if gate is None:
            gate = AdmissionGate(
                sim,
                rate_per_sec=policy.admission_rate_per_sec,
                burst=policy.admission_burst,
                max_pending=policy.admission_max_pending,
                name=f"qconnect-cpu{self.cpu_id}",
            )
            self.admission = gate
        return gate

    # -- selection (Algorithm 1, lines 8-11) -----------------------------------

    def has_rc(self, gid):
        return gid in self.rc

    def select_rc(self, gid):
        qp = self.rc[gid]
        self._rc_last_use[gid] = self.sim.now
        if obs.OBSERVER is not None:
            obs.OBSERVER.on_pool_rc_grab()
        return qp

    def select_dc(self):
        """Round-robin over the DC QPs: reconnections to different targets
        can then proceed concurrently (§4.2)."""
        if not self.dc:
            raise LookupError(f"cpu {self.cpu_id}: no DC QPs in the pool")
        qp = self.dc[self._dc_next % len(self.dc)]
        self._dc_next += 1
        if obs.OBSERVER is not None:
            obs.OBSERVER.on_pool_dc_grab()
        return qp

    # -- RC lifecycle ------------------------------------------------------------

    def insert_rc(self, gid, qp):
        """Add a background-created RCQP; LRU-evict beyond ``max_rc``.

        Returns the evicted (gid, qp) or None.
        """
        evicted = None
        if gid not in self.rc and len(self.rc) >= self.max_rc:
            victim = min(self._rc_last_use, key=self._rc_last_use.get)
            evicted = (victim, self.rc.pop(victim))
            del self._rc_last_use[victim]
        self.rc[gid] = qp
        self._rc_last_use[gid] = self.sim.now
        if obs.OBSERVER is not None:
            obs.OBSERVER.on_pool_rc_insert(self, gid, qp, evicted)
        return evicted
