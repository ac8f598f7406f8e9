"""Interchangeable RDMA transports for the RACE client.

The paper implements its simplified RACE "atop of verbs, LITE and KRCORE,
respectively" (§5.3.1) -- the same application code driven through three
control/data planes:

* :class:`VerbsBackend`  -- user-space verbs: per-process driver init
  (~13.3 ms), one RC connection per storage node (~2 ms each, plus the
  server-side 712 QP/s ceiling), but full low-level access (doorbell
  batching).
* :class:`LiteBackend`   -- LITE's high-level kernel API: no driver init,
  cached connections, but only synchronous one-op-at-a-time calls
  (Issue #3: no RDMA-aware optimizations).
* :class:`KrcoreBackend` -- VQPs: microsecond connections *and* the
  low-level interface, so doorbell batching still works.
"""

from repro.cluster import timing
from repro.krcore import KrcoreLib
from repro.verbs import DriverContext, WorkRequest
from repro.verbs.types import OP_FETCH_ADD
from repro.verbs.connection import rc_connect
from repro.apps.race.hashing import RaceError


def register_storage(storage, krcore_module=None):
    """Process: register a storage region the way the deployment needs.

    With a KRCORE module, registration goes through reg_mr so the region
    is recorded in ValidMR and published to the meta server; otherwise a
    plain verbs registration.  Returns the region.
    """
    node = storage.node
    total = storage.heap_base + storage.heap_bytes - storage.base
    if krcore_module is not None:
        region = yield from krcore_module.reg_mr(storage.base, total)
    else:
        yield timing.reg_mr_ns(total)
        region = node.memory.register(storage.base, total)
    storage.region = region
    return region


class VerbsBackend:
    """User-space verbs: the baseline control plane."""

    supports_doorbell = True

    def __init__(self, node, qps_per_target=1, port=0):
        self.node = node
        self.sim = node.sim
        self.context = DriverContext(node)
        self.port = port
        self.qps_per_target = qps_per_target
        self.cq = None
        self._qps = {}  # gid -> [QueuePair]
        self._rr = 0

    def connect(self, gids):
        """Process: driver init + one (or more) RC connections per node."""
        yield from self.context.ensure_init()
        if self.cq is None:
            self.cq = yield from self.context.create_cq()
        for gid in gids:
            if gid in self._qps:
                continue
            qps = []
            for _ in range(self.qps_per_target):
                qp = yield from rc_connect(self.context, self.cq, gid, port=self.port)
                qps.append(qp)
            self._qps[gid] = qps

    def setup_buffer(self, nbytes):
        """Process: allocate + register a local scratch buffer."""
        addr = self.node.memory.alloc(nbytes)
        yield timing.reg_mr_ns(nbytes)
        region = self.node.memory.register(addr, nbytes)
        return addr, region.lkey

    def _qp(self, gid):
        qps = self._qps[gid]
        self._rr += 1
        return qps[self._rr % len(qps)]

    def _sync(self, gid, wr):
        qp = self._qp(gid)
        yield timing.POST_SEND_CPU_NS
        qp.post_send(wr)
        completions = yield from qp.send_cq.wait_poll()
        yield timing.POLL_CQ_CPU_NS
        if not completions[0].ok:
            raise RaceError(f"verbs op failed: {completions[0].status}")

    def read(self, gid, laddr, lkey, raddr, rkey, length):
        yield from self._sync(gid, WorkRequest.read(laddr, length, lkey, raddr, rkey))

    def write(self, gid, laddr, lkey, raddr, rkey, length):
        yield from self._sync(gid, WorkRequest.write(laddr, length, lkey, raddr, rkey))

    def cas(self, gid, laddr, lkey, raddr, rkey, compare, swap):
        yield from self._sync(gid, WorkRequest.cas(laddr, lkey, raddr, rkey, compare, swap))

    def fetch_add(self, gid, laddr, lkey, raddr, rkey, delta):
        wr = WorkRequest(
            OP_FETCH_ADD, laddr=laddr, length=8, lkey=lkey, raddr=raddr, rkey=rkey,
            compare=delta,
        )
        yield from self._sync(gid, wr)

    def read_batch(self, requests):
        """Process: doorbell-batch READs -- one WR chain (and one doorbell)
        per target QP via ``post_send_batch`` -- then wait for every
        completion."""
        chains = {}  # QueuePair -> WR chain, in first-use order
        for gid, laddr, lkey, raddr, rkey, length in requests:
            qp = self._qp(gid)
            chains.setdefault(qp, []).append(
                WorkRequest.read(laddr, length, lkey, raddr, rkey)
            )
        expected = 0
        for qp, wrs in chains.items():
            yield timing.doorbell_batch_cpu_ns(len(wrs))
            qp.post_send_batch(wrs)
            expected += len(wrs)
        seen = 0
        while seen < expected:
            completions = yield from self.cq.wait_poll(expected)
            for completion in completions:
                if not completion.ok:
                    raise RaceError(f"batched READ failed: {completion.status}")
            seen += len(completions)
        yield timing.POLL_CQ_CPU_NS


class LiteBackend:
    """LITE's high-level kernel API (synchronous only)."""

    supports_doorbell = False

    def __init__(self, node):
        module = node.services.get("lite")
        if module is None:
            raise RaceError(f"{node.gid} has no LITE module loaded")
        self.node = node
        self.module = module

    def connect(self, gids):
        """Process: warm LITE's kernel connection cache (~2 ms per miss)."""
        for gid in gids:
            yield from self.module.ensure_qp(gid)

    def setup_buffer(self, nbytes):
        addr = self.node.memory.alloc(nbytes)
        yield timing.reg_mr_ns(nbytes)
        region = self.node.memory.register(addr, nbytes)
        return addr, region.lkey

    def read(self, gid, laddr, lkey, raddr, rkey, length):
        yield from self.module.read(gid, laddr, lkey, raddr, rkey, length)

    def write(self, gid, laddr, lkey, raddr, rkey, length):
        yield from self.module.write(gid, laddr, lkey, raddr, rkey, length)

    def cas(self, gid, laddr, lkey, raddr, rkey, compare, swap):
        yield from self.module.cas(gid, laddr, lkey, raddr, rkey, compare, swap)

    def fetch_add(self, gid, laddr, lkey, raddr, rkey, delta):
        yield from self.module.fetch_add(gid, laddr, lkey, raddr, rkey, delta)

    def read_batch(self, requests):
        """Process: LITE's API has no doorbell batching -- serial reads."""
        for gid, laddr, lkey, raddr, rkey, length in requests:
            yield from self.module.read(gid, laddr, lkey, raddr, rkey, length)


class KrcoreBackend:
    """KRCORE VQPs: microsecond control plane, low-level data plane."""

    supports_doorbell = True

    def __init__(self, node, cpu_id=0):
        self.node = node
        self.lib = KrcoreLib(node, cpu_id=cpu_id)
        self._vqps = {}

    def connect(self, gids):
        """Process: qconnect to each storage node (us-scale, Fig 8a)."""
        for gid in gids:
            if gid in self._vqps:
                continue
            vqp = yield from self.lib.create_vqp()
            yield from self.lib.qconnect(vqp, gid)
            self._vqps[gid] = vqp

    def close(self):
        """Process: the worker exits -- destroy its VQPs (one syscall each)."""
        while self._vqps:
            _gid, vqp = self._vqps.popitem()
            yield from self.lib.destroy_vqp(vqp)

    def setup_buffer(self, nbytes):
        addr = self.node.memory.alloc(nbytes)
        region = yield from self.lib.reg_mr(addr, nbytes)
        return addr, region.lkey

    def read(self, gid, laddr, lkey, raddr, rkey, length):
        yield from self.lib.read_sync(self._vqps[gid], laddr, lkey, raddr, rkey, length)

    def write(self, gid, laddr, lkey, raddr, rkey, length):
        yield from self.lib.write_sync(self._vqps[gid], laddr, lkey, raddr, rkey, length)

    def cas(self, gid, laddr, lkey, raddr, rkey, compare, swap):
        wr = WorkRequest.cas(laddr, lkey, raddr, rkey, compare, swap)
        entry = yield from self.lib.post_send_and_wait(self._vqps[gid], wr)
        if not entry.ok:
            raise RaceError(f"KRCORE CAS failed: {entry.status}")

    def fetch_add(self, gid, laddr, lkey, raddr, rkey, delta):
        wr = WorkRequest(
            OP_FETCH_ADD, laddr=laddr, length=8, lkey=lkey, raddr=raddr, rkey=rkey,
            compare=delta,
        )
        entry = yield from self.lib.post_send_and_wait(self._vqps[gid], wr)
        if not entry.ok:
            raise RaceError(f"KRCORE FETCH_ADD failed: {entry.status}")

    def read_batch(self, requests):
        """Process: doorbell batching through the VQPs (one syscall per
        target batch -- the low-level optimization LITE cannot express)."""
        by_gid = {}
        for gid, laddr, lkey, raddr, rkey, length in requests:
            by_gid.setdefault(gid, []).append(
                WorkRequest.read(laddr, length, lkey, raddr, rkey)
            )
        for gid, wrs in by_gid.items():
            yield from self.lib.post_send_batch(self._vqps[gid], wrs)
        for gid, wrs in by_gid.items():
            vqp = self._vqps[gid]
            for _ in range(len(wrs)):
                entry = yield from vqp.wait_send_completion()
                if not entry.ok:
                    raise RaceError(f"batched READ failed: {entry.status}")
