"""The RDMA NIC model.

Two serialized engines reproduce the two bottlenecks the paper measures:

* the **command processor** handles control-path work (building hardware
  queues for create_qp, configuring QPs to RTR/RTS).  Its occupancy per
  connection setup yields the ~712 QP/s server-side ceiling of Fig 8a.
* the **inbound engine** handles responder-side data-path work.  Its per-op
  occupancy yields the async peaks of Fig 10 (138M/s READ, 145M/s WRITE,
  lower for DCT).

Latency and occupancy are modelled separately: an op holds the engine for
its (few-ns) service time, then pays a fixed pipeline latency that does not
block other ops.
"""

from repro.check import hooks as _check
from repro.obs import metrics as _metrics
from repro.obs import trace as _trace
from repro.sim import Resource


class Rnic:
    """One ConnectX-4-like RNIC attached to a node."""

    def __init__(self, sim, node):
        self.sim = sim
        self.node = node
        self.command_processor = Resource(sim, capacity=1)
        self.inbound_engine = Resource(sim, capacity=1)
        self._qps = {}
        self._dct_targets = {}
        self._next_qpn = 1
        self._next_dctn = 1
        #: Fractional-ns remainder so sub-ns service times still add up to
        #: the right aggregate rate (sim time is integer ns).
        self._service_carry = 0.0
        #: Inbound ops served (benchmarks read this for unbiased rates).
        self.stats_inbound_ops = 0
        #: Admission bound on the command queue (repro.degrade): when
        #: this many ops already wait for the command processor, further
        #: control-path work is rejected instead of queued.  None (the
        #: default) keeps the queue unbounded.
        self.command_queue_limit = None
        #: Gray-failure window: until this timestamp both engines serve
        #: ``_degrade_factor`` times slower (alive, just sick); 0 = never.
        self._degraded_until = 0
        self._degrade_factor = 1.0
        self.stats_command_rejects = 0
        #: CPU nanoseconds burned by cores busy-polling CQs on this node
        #: (``CompletionQueue`` poll modes ``busy``/``adaptive``).  This is
        #: host CPU, not engine occupancy -- it never queues behind the
        #: command processor or inbound engine; it is what a dedicated
        #: polling core costs the node.
        self.stats_cq_poll_busy_ns = 0

    # -- registries -----------------------------------------------------------

    def register_qp(self, qp):
        qpn = self._next_qpn
        self._next_qpn += 1
        self._qps[qpn] = qp
        return qpn

    def unregister_qp(self, qp):
        self._qps.pop(qp.qpn, None)

    def qp(self, qpn):
        return self._qps.get(qpn)

    def create_dct_target(self, dc_key):
        """Create a DCT target (cheap: hardware context only, §3)."""
        number = self._next_dctn
        self._next_dctn += 1
        from repro.verbs.qp import DctTarget  # local import to avoid a cycle

        target = DctTarget(self.node, number, dc_key)
        self._dct_targets[number] = target
        return target

    def dct_target(self, number):
        return self._dct_targets.get(number)

    # -- engines ---------------------------------------------------------------

    def set_degraded(self, duration_ns, factor):
        """Gray failure: both engines run ``factor`` times slower for the
        next ``duration_ns`` (thermal throttling, firmware gone sick --
        the RNIC still answers, so nothing binary ever trips).
        Overlapping windows extend; the latest factor wins."""
        self._degraded_until = max(
            self._degraded_until, self.sim.now + int(duration_ns)
        )
        self._degrade_factor = float(factor)

    def account_cq_poll(self, spent_ns):
        """Charge ``spent_ns`` of host CPU burned spinning on a CQ."""
        self.stats_cq_poll_busy_ns += int(spent_ns)
        if _metrics.METRICS is not None:
            _metrics.METRICS.counter("rnic.cq_poll_busy_ns").inc(int(spent_ns))

    def command(self, service_ns):
        """Process: occupy the command processor for ``service_ns``."""
        limit = self.command_queue_limit
        if limit is not None and self.command_processor.queue_length >= limit:
            # Bounded command queue: reject before joining a line that
            # already guarantees a blown budget (EAGAIN, not a stall).
            self.stats_command_rejects += 1
            if _metrics.METRICS is not None:
                _metrics.METRICS.counter("rnic.command_rejects").inc()
            from repro.verbs.errors import OverloadRejectedError

            raise OverloadRejectedError(
                f"rnic@{self.node.gid}: command queue at its bound ({limit})"
            )
        if self._degraded_until and self.sim.now < self._degraded_until:
            service_ns = int(service_ns * self._degrade_factor)
        # Resource.serve inlined: this runs per control-path op and the
        # extra generator frame of ``yield from serve()`` is measurable.
        resource = self.command_processor
        grant = yield resource.acquire()
        start = self.sim.now
        if _trace.TRACER is not None:
            _trace.TRACER.begin(
                self.sim.now, f"rnic@{self.node.gid}", "rnic.command"
            )
        try:
            yield int(service_ns)
        finally:
            resource.release(grant)
            if _check.CHECKER is not None:
                _check.CHECKER.rnic_busy(
                    self, "command", resource, start, self.sim.now
                )
        if _trace.TRACER is not None:
            _trace.TRACER.end(self.sim.now, f"rnic@{self.node.gid}", "rnic.command")
        if _metrics.METRICS is not None:
            registry = _metrics.METRICS
            registry.counter("rnic.command_ops").inc()
            registry.counter("rnic.command_busy_ns").inc(int(service_ns))

    def stall(self, duration_ns, engine="command"):
        """Process: wedge one engine for ``duration_ns`` (fault injection).

        Models a firmware/command-engine hiccup: the engine finishes its
        current op, then sits occupied, so queued work (connection setups,
        QP repairs, inbound ops) backs up behind the stall and drains in
        FIFO order afterwards -- no work is lost.
        """
        resource = self.command_processor if engine == "command" else self.inbound_engine
        grant = yield resource.acquire()
        start = self.sim.now
        if _trace.TRACER is not None:
            _trace.TRACER.begin(
                self.sim.now, f"rnic@{self.node.gid}", "rnic.stall", engine=engine
            )
        try:
            yield int(duration_ns)
        finally:
            resource.release(grant)
            if _check.CHECKER is not None:
                _check.CHECKER.rnic_busy(
                    self, f"stall:{engine}", resource, start, self.sim.now
                )
        if _trace.TRACER is not None:
            _trace.TRACER.end(self.sim.now, f"rnic@{self.node.gid}", "rnic.stall")
        if _metrics.METRICS is not None:
            _metrics.METRICS.counter("rnic.stall_ns").inc(int(duration_ns))

    def inbound_hold_ns(self, service_ns):
        """Whole nanoseconds the inbound engine is held for an op arriving
        now with a (fractional) ``service_ns``: stretched inside a gray
        window, the sub-ns remainder carried so that aggregate throughput
        matches the configured rate exactly."""
        if self._degraded_until and self.sim.now < self._degraded_until:
            service_ns = service_ns * self._degrade_factor
        total = service_ns + self._service_carry
        whole = int(total)
        self._service_carry = total - whole
        return whole

    def inbound_served(self, start, held_ns):
        """Account one inbound op that held the engine over [start, now].

        With :meth:`inbound_hold_ns`, this is the whole of the responder
        model; :meth:`serve_inbound` and the READ/WRITE block inlined in
        ``QueuePair._flight`` differ only in how they wait.
        """
        if _check.CHECKER is not None:
            _check.CHECKER.rnic_busy(
                self, "inbound", self.inbound_engine, start, self.sim.now
            )
        if _trace.TRACER is not None:
            _trace.TRACER.end(self.sim.now, f"rnic@{self.node.gid}", "rnic.inbound")
        if _metrics.METRICS is not None:
            _metrics.METRICS.counter("rnic.inbound_busy_ns").inc(held_ns)
        self.stats_inbound_ops += 1

    def serve_inbound(self, service_ns):
        """Process: occupy the inbound engine for ``service_ns`` (fractional
        nanoseconds, see :meth:`inbound_hold_ns`)."""
        whole = self.inbound_hold_ns(service_ns)
        # Resource.serve inlined: this is the per-op responder hot path.
        resource = self.inbound_engine
        grant = resource.try_acquire()
        if grant is None:
            grant = yield resource.acquire()
        start = self.sim.now
        if _trace.TRACER is not None:
            _trace.TRACER.begin(
                self.sim.now, f"rnic@{self.node.gid}", "rnic.inbound"
            )
        try:
            yield whole
        finally:
            resource.release(grant)
        self.inbound_served(start, whole)
