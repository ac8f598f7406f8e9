"""Driver contexts and protection domains.

A :class:`DriverContext` is the per-process user-space driver state whose
initialization (open device, alloc PD, register memory) costs ~13.3 ms and
dominates the verbs control path (Fig 3b).  Kernel-space solutions (LITE,
KRCORE) share one pre-initialized context per node, which is why they skip
this cost (§2.3.2).
"""

from repro.cluster import timing
from repro.cluster.memory import AccessFlags
from repro.obs import trace as _trace
from repro.verbs.cq import CompletionQueue
from repro.verbs.errors import VerbsError
from repro.verbs.qp import QueuePair


class ProtectionDomain:
    """Scopes memory registrations to a context (ibv_pd)."""

    def __init__(self, context):
        self.context = context
        self.node = context.node
        self.regions = []

    def reg_mr(self, addr, length, access=None):
        """Process: register memory (cheap: ~1.4 us for 4 MB, §5.1)."""
        yield timing.reg_mr_ns(length)
        region = self.node.memory.register(
            addr, length, AccessFlags.ALL if access is None else access
        )
        self.regions.append(region)
        return region

    def dereg_mr(self, region):
        self.node.memory.deregister(region)
        if region in self.regions:
            self.regions.remove(region)


class DriverContext:
    """Per-process RDMA driver context (ibv_context + its setup costs)."""

    def __init__(self, node, kernel=False):
        self.node = node
        self.sim = node.sim
        #: Kernel contexts are initialized at module-load time, off the
        #: critical path; user contexts pay DRIVER_INIT_NS on first use.
        self._initialized = kernel
        self.kernel = kernel

    @property
    def initialized(self):
        return self._initialized

    def ensure_init(self):
        """Process: pay the one-time driver initialization if needed."""
        if not self._initialized:
            if _trace.TRACER is not None:
                _trace.TRACER.begin(
                    self.sim.now, f"verbs@{self.node.gid}", "driver_init"
                )
            yield timing.DRIVER_INIT_NS
            self._initialized = True
            if _trace.TRACER is not None:
                _trace.TRACER.end(
                    self.sim.now, f"verbs@{self.node.gid}", "driver_init"
                )

    def alloc_pd(self):
        if not self._initialized:
            raise VerbsError("driver context not initialized")
        return ProtectionDomain(self)

    def create_cq(self, depth=timing.CQ_DEPTH_DEFAULT, poll_mode="event"):
        """Process: create a completion queue (hardware queue allocation)."""
        if not self._initialized:
            raise VerbsError("driver context not initialized")
        if _trace.TRACER is not None:
            _trace.TRACER.begin(self.sim.now, f"verbs@{self.node.gid}", "create_cq")
        yield from self.node.rnic.command(timing.CREATE_CQ_HW_NS)
        yield timing.CREATE_CQ_NS - timing.CREATE_CQ_HW_NS
        if _trace.TRACER is not None:
            _trace.TRACER.end(self.sim.now, f"verbs@{self.node.gid}", "create_cq")
        return CompletionQueue(
            self.sim, depth=depth, poll_mode=poll_mode, rnic=self.node.rnic
        )

    def create_qp(self, qp_type, send_cq, recv_cq=None, sq_depth=timing.SQ_DEPTH_DEFAULT):
        """Process: create a QP; 87% of the time is the RNIC building the
        hardware queues (§2.3.1)."""
        if not self._initialized:
            raise VerbsError("driver context not initialized")
        if _trace.TRACER is not None:
            _trace.TRACER.begin(
                self.sim.now, f"verbs@{self.node.gid}", "create_qp",
                qp_type=qp_type.value,
            )
        yield from self.node.rnic.command(timing.CREATE_QP_HW_NS)
        yield timing.CREATE_QP_NS - timing.CREATE_QP_HW_NS
        if _trace.TRACER is not None:
            _trace.TRACER.end(self.sim.now, f"verbs@{self.node.gid}", "create_qp")
        return QueuePair(self.node, qp_type, send_cq, recv_cq=recv_cq, sq_depth=sq_depth)

    def create_qp_fast(
        self, qp_type, send_cq, recv_cq=None, sq_depth=timing.SQ_DEPTH_DEFAULT, qpn=None
    ):
        """Create a QP object without charging setup time.

        Only for boot-time construction (costs paid before the measured
        window) -- never on a simulated critical path.  ``qpn`` names a QPN
        reserved at boot (``Rnic.reserve_qpns``) for a QP built later.
        """
        return QueuePair(
            self.node, qp_type, send_cq, recv_cq=recv_cq, sq_depth=sq_depth, qpn=qpn
        )

    def modify_to_ready(self, qp, remote=None):
        """Process: INIT -> RTR -> RTS, charging the RNIC command processor."""
        if _trace.TRACER is not None:
            _trace.TRACER.begin(
                self.sim.now, f"verbs@{self.node.gid}", "configure", qpn=qp.qpn
            )
        yield from self.node.rnic.command(timing.MODIFY_RTR_NS)
        qp.to_init()
        qp.to_rtr(remote)
        yield from self.node.rnic.command(timing.MODIFY_RTS_NS)
        qp.to_rts()
        if _trace.TRACER is not None:
            _trace.TRACER.end(self.sim.now, f"verbs@{self.node.gid}", "configure")
