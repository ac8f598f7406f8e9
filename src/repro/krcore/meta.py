"""Meta servers: DCT metadata and MR records in DrTM-KV (§4.2, C#1).

Each node broadcasts its DCT metadata (12 bytes: DCT number + key) to the
meta servers at boot; every node pre-connects an RCQP per CPU to a nearby
meta server, so a metadata query is two one-sided READs (~4.5 us) that
never touch the meta server's CPU.

Beyond the paper's single deployment, :class:`MetaPlane` shards the meta
service horizontally: ``dct:``/``mr:`` keys are routed over N
:class:`MetaServer` shards by consistent hashing, every record is
replicated to the next distinct shard on the ring, and a reader whose
primary shard is dark fails over to the replica (and, when *every* owner
is unreachable, degrades to the RC-handshake fallback the single-server
code already had).  A one-shard plane is behaviourally identical to a
bare :class:`MetaServer`.
"""

import bisect
import hashlib
import struct

from repro.check import hooks as _check
from repro.cluster import timing
from repro.kvs import DrtmKvClient, DrtmKvServer, RecordTooLargeError, StoreFullError
from repro.kvs.layout import BUCKET_BYTES, Layout
from repro.obs import metrics as _metrics
from repro.obs import trace as _trace
from repro.sim import Resource
from repro.verbs import CompletionQueue, DriverContext
from repro.verbs.types import QPT_RC, WC_RETRY_EXC_ERR
from repro.verbs.errors import MetaUnavailableError, VerbsError

_DCT_VALUE = struct.Struct(">IQ")  # DCT number (4B) + DCT key (8B) = 12 B
_MR_VALUE = struct.Struct(">QQ")  # addr (8B) + length (8B)

#: The largest record -- header, key and value -- a meta shard accepts.  An
#: ``mr:<gid>:<rkey>`` record of a 10 000-node cluster is about 40 B; a
#: longer one is refused when it is published, so every client can read
#: every record into a scratch buffer of ``SCRATCH_BYTES``.
RECORD_MAX_BYTES = 64

#: A meta client's scratch buffer: one bucket or one record, whichever is
#: larger -- the most one READ of a lookup brings back.
SCRATCH_BYTES = max(BUCKET_BYTES, RECORD_MAX_BYTES)


def dct_key(gid):
    """The meta-plane key for a node's DCT metadata record."""
    return b"dct:" + gid.encode()


def mr_key(gid, rkey):
    """The meta-plane key for one published MR record."""
    return b"mr:%s:%d" % (gid.encode(), rkey)


def _ring_hash(data):
    """A deterministic, well-mixed 64-bit hash for ring placement.

    Python's ``hash()`` is salted per process, and a simple polynomial
    hash maps the near-identical strings used here ("meta-shard-i#v",
    "dct:nodeN") to contiguous runs -- which degenerates the ring into
    one arc per shard.  sha256 mixes properly and is seed-free."""
    if isinstance(data, str):
        data = data.encode()
    return int.from_bytes(hashlib.sha256(data).digest()[:8], "big")


class MetaServer:
    """A meta-server deployment on one node.

    Holds two logical tables in one DrTM-KV store: ``dct:<gid>`` -> DCT
    metadata, and ``mr:<gid>:<rkey>`` -> (addr, length) for ValidMR.
    """

    SERVICE = "krcore-meta"

    def __init__(self, node, bucket_count=4096, heap_bytes=1 << 20):
        self.node = node
        self.sim = node.sim
        self.store = DrtmKvServer(node, bucket_count=bucket_count, heap_bytes=heap_bytes)
        #: Simulated timestamp until which the service is in an outage
        #: window (fault injection); 0 means never.
        self._outage_until = 0
        #: Gray-failure window: until this timestamp every lookup pays
        #: ``_lag_extra_ns`` extra (alive but slow); 0 means never.
        self._lag_until = 0
        self._lag_extra_ns = 0
        self._plane = None  # this deployment as a one-shard plane (MetaPlane.ensure)
        #: DCT record bytes -> the one (number, key) tuple its readers share:
        #: every VQP connected to one target incarnation holds the same one.
        self.dct_metas = {}
        node.services[self.SERVICE] = self

    @property
    def catalog(self):
        return self.store.catalog

    # -- fault injection -------------------------------------------------------

    def set_outage(self, duration_ns, shard=None):
        """Take the meta service down for ``duration_ns`` from now.

        Models a hung/partitioned meta deployment: clients' lookups fail
        until the window passes, exercising their backoff and the RC
        fallback path.  Overlapping windows extend, never shorten.  A
        single deployment *is* shard 0, so ``shard`` may only be None
        or 0 here (the sharded plane routes other indices)."""
        if shard not in (None, 0):
            raise ValueError(f"single meta deployment has no shard {shard}")
        self._outage_until = max(self._outage_until, self.sim.now + int(duration_ns))

    def set_lag(self, duration_ns, extra_ns, shard=None):
        """Gray failure: the service stays up but every lookup served in
        the next ``duration_ns`` takes ``extra_ns`` longer.

        Unlike :meth:`set_outage` nothing ever *fails* -- which is
        exactly what makes lag the harder case: only latency-aware
        defenses (circuit breakers, deadlines) notice.  Overlapping
        windows extend; the latest ``extra_ns`` wins."""
        if shard not in (None, 0):
            raise ValueError(f"single meta deployment has no shard {shard}")
        self._lag_until = max(self._lag_until, self.sim.now + int(duration_ns))
        self._lag_extra_ns = int(extra_ns)

    @property
    def current_lag_ns(self):
        """Extra per-lookup latency right now (0 outside lag windows)."""
        if self._lag_until and self.sim.now < self._lag_until:
            return self._lag_extra_ns
        return 0

    @property
    def available(self):
        return self.node.alive and self.sim.now >= self._outage_until

    # -- boot-time broadcast targets -------------------------------------------

    def publish_dct(self, gid, dct_number, dct_key_value):
        self._put(dct_key(gid), _DCT_VALUE.pack(dct_number, dct_key_value))

    def publish_mr(self, gid, rkey, addr, length):
        self._put(mr_key(gid, rkey), _MR_VALUE.pack(addr, length))

    def _put(self, key, value):
        size = Layout.record_bytes_for(key, value)
        if size > RECORD_MAX_BYTES:
            raise RecordTooLargeError(
                f"meta record {key!r} is {size} B; a shard accepts {RECORD_MAX_BYTES} B"
            )
        if _check.CHECKER is not None:
            _check.CHECKER.meta_write(self, key, value)
        try:
            self.store.put(key, value)
        except StoreFullError as err:
            raise StoreFullError(
                f"meta table on {self.node.gid}: {err}; a deployment this large "
                "needs its records spread over more shards (meta_shards=N)"
            ) from err

    def retract_mr(self, gid, rkey):
        if _check.CHECKER is not None:
            _check.CHECKER.meta_write(self, mr_key(gid, rkey), None)
        self.store.delete(mr_key(gid, rkey))

    def retract_node(self, gid):
        """Drop a dead node's DCT metadata (§4.2: metadata is invalidated
        only when the host is down)."""
        if _check.CHECKER is not None:
            _check.CHECKER.meta_write(self, dct_key(gid), None)
        self.store.delete(dct_key(gid))


class MetaPlane:
    """A sharded meta plane: N :class:`MetaServer` shards on a hash ring.

    Keys are routed by consistent hashing over ``VNODES`` virtual points
    per shard; each key is owned by its primary shard plus the next
    ``replication - 1`` distinct shards clockwise on the ring.  Writes go
    to every owner, reads start at the primary and fail over down the
    owner list, so one dark shard costs one probe, not an outage.

    A one-shard plane routes every key to shard 0 with no replica, which
    keeps the single-deployment control path (and its timing) identical.
    """

    #: Virtual ring points per shard; enough for a reasonable key balance
    #: at the shard counts we care about (1-16).
    VNODES = 128

    def __init__(self, shards, replication=2):
        shards = list(shards)
        if not shards:
            raise ValueError("a meta plane needs at least one shard")
        self.shards = shards
        self.replication = max(1, min(int(replication), len(shards)))
        self._ring = []
        if len(shards) > 1:  # one shard owns every key: no ring
            for index in range(len(shards)):
                for vnode in range(self.VNODES):
                    self._ring.append((_ring_hash(f"meta-shard-{index}#{vnode}"), index))
            self._ring.sort()
        self._points = [point for point, _ in self._ring]
        self._owner_cache = {}

    @classmethod
    def ensure(cls, meta):
        """A bare :class:`MetaServer` as its one-shard plane (one per server)."""
        if isinstance(meta, MetaPlane):
            return meta
        if meta._plane is None:
            meta._plane = cls([meta], replication=1)
        return meta._plane

    def __len__(self):
        return len(self.shards)

    # -- routing ---------------------------------------------------------------

    def owner_indices(self, key):
        """Shard indices owning ``key``: primary first, then replicas."""
        if not self._ring:
            return [0]
        owners = self._owner_cache.get(key)
        if owners is not None:
            return owners
        start = bisect.bisect_right(self._points, _ring_hash(key))
        owners = []
        for step in range(len(self._ring)):
            index = self._ring[(start + step) % len(self._ring)][1]
            if index not in owners:
                owners.append(index)
                if len(owners) == self.replication:
                    break
        self._owner_cache[key] = owners
        return owners

    def primary_index(self, key):
        return self.owner_indices(key)[0]

    def owners(self, key):
        """The owning :class:`MetaServer` shards of ``key``, primary first."""
        return [self.shards[index] for index in self.owner_indices(key)]

    def owner_gids(self, key):
        """Distinct gids of the nodes hosting ``key``, primary first."""
        gids = []
        for shard in self.owners(key):
            if shard.node.gid not in gids:
                gids.append(shard.node.gid)
        return gids

    # -- write paths (boot broadcast, publication, failure detection) ----------

    def publish_dct(self, gid, dct_number, dct_key_value):
        for shard in self.owners(dct_key(gid)):
            shard.publish_dct(gid, dct_number, dct_key_value)

    def publish_mr(self, gid, rkey, addr, length):
        for shard in self.owners(mr_key(gid, rkey)):
            shard.publish_mr(gid, rkey, addr, length)

    def retract_mr(self, gid, rkey):
        for shard in self.owners(mr_key(gid, rkey)):
            shard.retract_mr(gid, rkey)

    def retract_node(self, gid):
        # Broadcast: a retraction is idempotent, and deleting everywhere
        # stays correct if the owner set ever changes between runs.
        for shard in self.shards:
            shard.retract_node(gid)

    # -- fault injection -------------------------------------------------------

    def set_outage(self, duration_ns, shard=None):
        """Dark one shard (``shard=index``) or the whole plane (None)."""
        if shard is None:
            for entry in self.shards:
                entry.set_outage(duration_ns)
        else:
            self.shards[shard].set_outage(duration_ns)

    def set_lag(self, duration_ns, extra_ns, shard=None):
        """Lag one shard (``shard=index``) or the whole plane (None)."""
        if shard is None:
            for entry in self.shards:
                entry.set_lag(duration_ns, extra_ns)
        else:
            self.shards[shard].set_lag(duration_ns, extra_ns)

    @property
    def available(self):
        """True iff every shard is serving (all owners reachable)."""
        return all(shard.available for shard in self.shards)


class MetaClient:
    """A node's per-CPU handle for querying one meta shard with RDMA READs.

    One RCQP (pre-connected at boot) plus a scratch buffer, guarded by a
    mutex because the DrTM-KV client supports one lookup at a time.
    """

    def __init__(self, node, meta_server, shard_index=0):
        self.node = node
        self.sim = node.sim
        self.meta_server = meta_server
        self.meta_node = meta_server.node
        self.shard_index = shard_index
        context = DriverContext(node, kernel=True)
        remote_context = DriverContext(self.meta_node, kernel=True)
        cq = CompletionQueue(self.sim)
        remote_cq = CompletionQueue(self.sim)
        # Boot-time pre-connection (§4.2): costs are paid before any
        # measured window, so wire the pair directly.
        self.qp = context.create_qp_fast(QPT_RC, cq, recv_cq=cq)
        peer = remote_context.create_qp_fast(QPT_RC, remote_cq, recv_cq=remote_cq)
        self.qp.to_init()
        self.qp.to_rtr((self.meta_node.gid, peer.qpn))
        self.qp.to_rts()
        peer.to_init()
        peer.to_rtr((node.gid, self.qp.qpn))
        peer.to_rts()
        scratch_addr = node.memory.alloc(SCRATCH_BYTES)
        scratch_region = node.memory.register(scratch_addr, SCRATCH_BYTES)
        self.kv = DrtmKvClient(
            meta_server.catalog, self.qp, scratch_addr, SCRATCH_BYTES, scratch_region.lkey
        )
        self._mutex = Resource(self.sim, capacity=1)

    def lookup_dct(self, gid, deadline=None):
        """Process: fetch (dct_number, dct_key) for ``gid``, or None."""
        value = yield from self._lookup(dct_key(gid), deadline)
        if value is None:
            return None
        metas = self.meta_server.dct_metas
        meta = metas.get(value)
        if meta is None:
            meta = metas[value] = _DCT_VALUE.unpack(value)
        return meta

    def lookup_mr(self, gid, rkey, deadline=None):
        """Process: fetch (addr, length) for a remote MR, or None."""
        value = yield from self._lookup(mr_key(gid, rkey), deadline)
        if value is None:
            return None
        addr, length = _MR_VALUE.unpack(value)
        return (addr, length)

    def _lookup(self, key, deadline=None):
        if _trace.TRACER is not None:
            _trace.TRACER.begin(
                self.sim.now, f"meta@{self.node.gid}", "meta.rpc",
                key=key.decode("latin-1"), shard=self.shard_index,
            )
        if _metrics.METRICS is not None:
            _metrics.METRICS.counter("krcore.meta_rpcs").inc()
            _metrics.METRICS.counter(
                f"krcore.meta.shard{self.shard_index}.rpcs"
            ).inc()
        value = None
        # The span must close on *every* exit -- a MetaUnavailableError
        # escaping with the begin un-ended would corrupt the nesting of
        # every later span on this track.
        try:
            grant = yield self._mutex.acquire()
            try:
                if deadline is not None:
                    # Checked *after* the mutex wait: a request whose
                    # budget died queueing must not burn two READs of
                    # shared lookup capacity on an answer nobody wants.
                    deadline.check(
                        self.sim.now,
                        f"queued for the meta client to {self.meta_node.gid}",
                    )
                if not self.meta_server.available:
                    # The service is in an outage window (or its host is
                    # down): the READ can only time out, so charge the full
                    # retransmission budget before reporting unavailability.
                    yield timing.META_OUTAGE_PROBE_NS
                    raise MetaUnavailableError(
                        f"meta server on {self.meta_node.gid} is unavailable",
                        code=WC_RETRY_EXC_ERR,
                    )
                lag = self.meta_server.current_lag_ns
                if lag:
                    # Gray failure: the shard answers, just slowly.
                    yield lag
                try:
                    value = yield from self.kv.lookup(key)
                except VerbsError as err:
                    # The host died mid-lookup: surface it as unavailability
                    # so callers can back off / degrade instead of crashing.
                    raise MetaUnavailableError(
                        f"meta lookup via {self.meta_node.gid} failed: {err}",
                        code=getattr(err, "code", None),
                    ) from err
            finally:
                self._mutex.release(grant)
        finally:
            if _trace.TRACER is not None:
                _trace.TRACER.end(
                    self.sim.now, f"meta@{self.node.gid}", "meta.rpc",
                    found=value is not None,
                )
        return value
