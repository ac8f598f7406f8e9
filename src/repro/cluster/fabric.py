"""The switched InfiniBand fabric connecting the cluster's nodes."""

from repro.cluster import timing
from repro.obs import metrics as _metrics


class LinkFault:
    """Degradation of one directed link (src gid -> dst gid).

    Packet-level decisions (drop, duplicate) are drawn from a private LCG
    seeded from the fault's identity, so a run is reproducible from the
    fault plan's seed alone.  Probabilities are fixed-point fractions of
    2**32 to keep the draw integer-only.
    """

    __slots__ = ("drop_per_2_32", "dup_per_2_32", "extra_ns", "latency_mult", "_lcg")

    SCALE = 1 << 32

    def __init__(self, drop_prob=0.0, dup_prob=0.0, extra_ns=0, seed=1,
                 latency_mult=1.0):
        self.drop_per_2_32 = min(int(drop_prob * self.SCALE), self.SCALE)
        self.dup_per_2_32 = min(int(dup_prob * self.SCALE), self.SCALE)
        self.extra_ns = int(extra_ns)
        #: Gray degradation: wire latency is scaled by this (a congested
        #: or renegotiated-down link -- slow but lossless), on top of any
        #: fixed ``extra_ns``.
        self.latency_mult = float(latency_mult)
        self._lcg = (seed * 2654435761) % (1 << 64) or 1

    def delay_ns(self, base_ns):
        """The degraded traversal time for a healthy latency of ``base_ns``."""
        if self.latency_mult != 1.0:
            base_ns = int(base_ns * self.latency_mult)
        return base_ns + self.extra_ns

    def _draw(self):
        self._lcg = (self._lcg * 6364136223846793005 + 1442695040888963407) % (1 << 64)
        return self._lcg >> 32

    def drops(self):
        """Decide (and consume one draw): is this packet lost?"""
        if not self.drop_per_2_32:
            return False
        return self._draw() < self.drop_per_2_32

    def duplicates(self):
        """Decide (and consume one draw): does this packet arrive twice?"""
        if not self.dup_per_2_32:
            return False
        return self._draw() < self.dup_per_2_32


class Fabric:
    """One 100 Gbps switch; every node is one hop from every other.

    The fabric routes by *gid* (the node's RDMA address).  It is purely a
    name service plus a latency model; packet delivery is performed by the
    RNIC processes themselves.  Fault injection hangs per-directed-link
    :class:`LinkFault` records here; the data path consults them only when
    at least one is installed, so the fault-free hot path is untouched.
    """

    def __init__(self, sim):
        self.sim = sim
        self._nodes = {}
        self._one_way_cache = {}
        #: (src_gid, dst_gid) -> LinkFault.  Empty in fault-free runs; the
        #: QP flight path guards every consultation on this dict's truth.
        self.link_faults = {}

    def attach(self, node):
        if node.gid in self._nodes:
            raise ValueError(f"duplicate gid {node.gid}")
        self._nodes[node.gid] = node

    def detach(self, node):
        """Remove ``node`` from routing.  Idempotent, and safe while
        deliveries are in flight: only the mapping that still points at
        *this* node object is removed, so a replacement node that re-used
        the gid (or a concurrent re-attach) is never knocked out."""
        if self._nodes.get(node.gid) is node:
            del self._nodes[node.gid]

    def node(self, gid):
        """Resolve a gid; raises KeyError for unknown/dead nodes."""
        return self._nodes[gid]

    def has_node(self, gid):
        return gid in self._nodes

    # -- fault injection -------------------------------------------------------

    def set_link_fault(self, src_gid, dst_gid, fault):
        """Install a :class:`LinkFault` on the directed link src -> dst."""
        self.link_faults[(src_gid, dst_gid)] = fault

    def clear_link_fault(self, src_gid, dst_gid):
        """Remove the fault on src -> dst (idempotent)."""
        self.link_faults.pop((src_gid, dst_gid), None)

    # -- latency model ---------------------------------------------------------

    def one_way_ns(self, nbytes):
        """Propagation + serialization for ``nbytes`` of payload one way.

        Memoized per size: called for every request and response, over a
        handful of distinct sizes per figure.
        """
        registry = _metrics.METRICS
        if registry is not None:
            registry.counter("fabric.hops").inc()
            registry.counter("fabric.bytes").inc(nbytes)
        cached = self._one_way_cache.get(nbytes)
        if cached is not None:
            return cached
        self._one_way_cache[nbytes] = result = timing.WIRE_ONE_WAY_NS + timing.wire_transfer_ns(nbytes)
        return result
