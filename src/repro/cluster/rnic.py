"""The RDMA NIC model.

Two serialized engines reproduce the two bottlenecks the paper measures:

* the **command processor** handles control-path work (building hardware
  queues for create_qp, configuring QPs to RTR/RTS).  Its occupancy per
  connection setup yields the ~712 QP/s server-side ceiling of Fig 8a.
  A FIFO ``Resource`` (admission control reads its queue; not hot).
* the **inbound engine** handles responder-side data-path work.  Its per-op
  occupancy yields the async peaks of Fig 10 (138M/s READ, 145M/s WRITE,
  lower for DCT).  A busy-until clock, :meth:`Rnic.inbound_admit` (§17).

Latency and occupancy are modelled separately: an op holds the engine for
its (few-ns) service time, then pays a fixed pipeline latency that does not
block other ops.
"""

from collections import deque

from repro import obs
from repro.sim import Resource

ENGINES = ("command", "inbound")  #: what :meth:`Rnic.stall` can wedge


class Rnic:
    """One ConnectX-4-like RNIC attached to a node."""

    def __init__(self, sim, node):
        self.sim = sim
        self.node = node
        self.command_processor = Resource(sim, capacity=1)
        #: Inbound engine: busy until this instant (:meth:`inbound_admit`).
        self._inbound_free_at = 0
        #: Service ends of admitted ops not yet counted as served (monotone).
        self._inbound_ends = deque()
        self._inbound_admitted = 0
        self._qps = {}
        self._reserved = []  # one builder per reserved QPN block (reserve_qpns)
        self._dct_targets = {}
        self._next_qpn = 1
        self._next_dctn = 1
        #: Fractional-ns remainder so sub-ns service times still add up to
        #: the right aggregate rate (sim time is integer ns).
        self._service_carry = 0.0
        #: Gray-failure window: until this timestamp both engines serve
        #: ``_degrade_factor`` times slower (alive, just sick); 0 = never.
        self._degraded_until = 0
        self._degrade_factor = 1.0

    # -- registries -----------------------------------------------------------

    def reserve_qpns(self, count, build):
        """Set aside ``count`` consecutive QPNs (returns the first) for QPs
        this RNIC has from now on but whose objects appear on first use;
        ``build()`` builds, and so registers, those still missing."""
        base = self._next_qpn
        self._next_qpn += count
        self._reserved.append(build)
        return base

    def register_qp(self, qp, qpn=None):
        """Register ``qp`` under the next QPN, or under a reserved one."""
        if qpn is None:
            qpn = self._next_qpn
            self._next_qpn += 1
        self._qps[qpn] = qp
        return qpn

    def all_qps(self):
        """Every QP in QPN order, the reserved ones built if need be."""
        for build in self._reserved:
            build()
        return [self._qps[qpn] for qpn in sorted(self._qps)]

    def unregister_qp(self, qp):
        self._qps.pop(qp.qpn, None)

    def qp(self, qpn):
        return self._qps.get(qpn)

    def register_dct_target(self, target):
        """Register ``target`` under the next DCT number (returned)."""
        number = self._next_dctn
        self._next_dctn += 1
        self._dct_targets[number] = target
        return number

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

    def command(self, service_ns):
        """Process: occupy the command processor for ``service_ns``."""
        if self._degraded_until and self.sim.now < self._degraded_until:
            service_ns = int(service_ns * self._degrade_factor)
        # Resource.serve inlined: this runs per control-path op and the
        # extra generator frame of ``yield from serve()`` is measurable.
        resource = self.command_processor
        grant = yield resource.acquire()
        start = self.sim.now
        observer = obs.OBSERVER
        if observer is not None:
            observer.on_rnic_command(start, self)
        try:
            yield int(service_ns)
        finally:
            resource.release(grant)
            if observer is not None:
                observer.on_rnic_command_end(self.sim.now, self, start, int(service_ns))

    def stall(self, duration_ns, engine="command"):
        """Process: wedge one engine for ``duration_ns`` (fault injection).

        Models a firmware/command-engine hiccup: the engine finishes its
        current op, then sits occupied, so queued work (connection setups,
        QP repairs, inbound ops) backs up behind the stall and drains in
        FIFO order afterwards -- no work is lost.
        """
        if engine not in ENGINES:
            raise ValueError(f"unknown RNIC engine {engine!r}: expected one of {ENGINES}")
        duration_ns = int(duration_ns)
        grant = None
        if engine == "inbound":  # one more occupant of the busy-until clock
            start = max(self.sim.now, self._inbound_free_at)
            end = self._inbound_free_at = start + duration_ns
        else:
            grant = yield self.command_processor.acquire()
            start = self.sim.now
            end = start + duration_ns
        if obs.OBSERVER is not None:
            obs.OBSERVER.on_rnic_stall(start, end, self, engine)
        try:
            yield end - self.sim.now
        finally:
            if grant is not None:
                self.command_processor.release(grant)

    def inbound_admit(self, service_ns, opcode=None, hold_ns=None):
        """Admit one op arriving now; returns the ``(start, end)`` of its
        service.  The whole responder-occupancy model: the hold (stretched
        inside a gray window, the sub-ns rest carried so aggregate
        throughput matches the configured rate) is fixed on arrival and
        service is FIFO, so departure is arithmetic and nothing is scheduled.
        The re-serve of a duplicated request passes ``hold_ns``, the
        whole-ns hold of the original, not sized a second time.  One method,
        no helper call: every inbound op of every WR comes through here."""
        now = self.sim.now
        if hold_ns is None:
            if self._degraded_until and now < self._degraded_until:
                service_ns = service_ns * self._degrade_factor
            total = service_ns + self._service_carry
            hold_ns = int(total)
            self._service_carry = total - hold_ns
        start = self._inbound_free_at
        if start < now:
            start = now
        end = self._inbound_free_at = start + hold_ns
        ends = self._inbound_ends
        while ends and ends[0] < now:  # fold the served: the deque stays queue-sized
            ends.popleft()
        ends.append(end)
        self._inbound_admitted += 1
        if obs.OBSERVER is not None:
            obs.OBSERVER.on_rnic_inbound(start, end, self, opcode, hold_ns)
        return start, end

    @property
    def stats_inbound_ops(self):
        """Inbound ops served (benchmarks read this for unbiased rates): a
        view, the ops admitted whose service ended before this instant.
        One ending this very nanosecond is not in yet -- a reader's timer
        runs ahead of the service-end wake-up there used to be."""
        ends = self._inbound_ends
        now = self.sim.now
        while ends and ends[0] < now:
            ends.popleft()
        return self._inbound_admitted - len(ends)
