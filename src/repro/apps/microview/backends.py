"""Interchangeable RDMA transports for the MicroView collector.

Same deal as the RACE backends (§5.3.1): one collector loop driven
through three control/data planes.  Every harvest method takes the
snapshot ``targets`` list (``(gid, raddr, rkey, length)`` per pod) and a
local scratch buffer, scatters the pod pages back-to-back into it, and
returns ``(bytes_ok, failed)`` -- under churn a READ can lose the race
with a retraction, and the collector wants the goodput, not an abort.

* :class:`VerbsBackend`  -- RC connections; serial, doorbell-batched,
  and vectored (READ_V) harvests.
* :class:`LiteBackend`   -- LITE's synchronous kernel API: every
  strategy degrades to the serial loop (Issue #3: no low-level access,
  so no doorbell chains and no gather WRs).
* :class:`KrcoreBackend` -- VQPs: all three strategies, with KRCORE's
  software pre-checks keeping a mid-harvest retraction from wrecking
  the shared physical QP.
"""

from repro.cluster import timing
from repro.krcore import KrcoreLib
from repro.verbs import DriverContext, WorkRequest
from repro.verbs.connection import rc_connect
from repro.verbs.errors import KrcoreError


class MicroViewError(Exception):
    """A harvest op failed outside the expected churn races."""


def _chunks(items, size):
    for start in range(0, len(items), size):
        yield items[start : start + size]


class VerbsBackend:
    """User-space verbs: the baseline control plane."""

    def __init__(self, node, port=0):
        self.node = node
        self.sim = node.sim
        self.context = DriverContext(node)
        self.port = port
        self.cq = None
        self._qps = {}  # gid -> QueuePair

    def connect(self, gids):
        """Process: driver init + one RC connection per worker."""
        yield from self.context.ensure_init()
        if self.cq is None:
            self.cq = yield from self.context.create_cq()
        for gid in gids:
            if gid not in self._qps:
                self._qps[gid] = yield from rc_connect(
                    self.context, self.cq, gid, port=self.port
                )

    def setup_buffer(self, nbytes):
        """Process: allocate + register the harvest scratch buffer."""
        addr = self.node.memory.alloc(nbytes)
        yield timing.reg_mr_ns(nbytes)
        region = self.node.memory.register(addr, nbytes)
        return addr, region.lkey

    def _sync(self, gid, wr):
        qp = self._qps[gid]
        yield timing.POST_SEND_CPU_NS
        qp.post_send(wr)
        completions = yield from qp.send_cq.wait_poll()
        yield timing.POLL_CQ_CPU_NS
        if not completions[0].ok:
            raise MicroViewError(f"verbs harvest READ failed: {completions[0].status}")

    def harvest_serial(self, targets, laddr, lkey):
        """Process: N small READs, one per pod."""
        offset = 0
        for gid, raddr, rkey, length in targets:
            yield from self._sync(
                gid, WorkRequest.read(laddr + offset, length, lkey, raddr, rkey)
            )
            offset += length
        return offset, 0

    def harvest_batched(self, targets, laddr, lkey):
        """Process: one doorbell-batched READ chain per worker QP."""
        chains = {}  # QueuePair -> WR chain, in first-use order
        offset = 0
        for gid, raddr, rkey, length in targets:
            chains.setdefault(self._qps[gid], []).append(
                WorkRequest.read(laddr + offset, length, lkey, raddr, rkey)
            )
            offset += length
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
                    raise MicroViewError(
                        f"batched harvest READ failed: {completion.status}"
                    )
            seen += len(completions)
        yield timing.POLL_CQ_CPU_NS
        return offset, 0

    def harvest_vectored(self, targets, laddr, lkey):
        """Process: gather READs -- one READ_V per MAX_VECTORED_SGES pods
        of one worker, scattering the pages into the scratch buffer."""
        by_gid = {}
        offset = 0
        for gid, raddr, rkey, length in targets:
            by_gid.setdefault(gid, []).append((offset, (raddr, rkey, length)))
            offset += length
        for gid, entries in by_gid.items():
            for chunk in _chunks(entries, timing.MAX_VECTORED_SGES):
                wr = WorkRequest.read_vectored(
                    laddr + chunk[0][0], lkey, [sge for _, sge in chunk]
                )
                yield from self._sync(gid, wr)
        return offset, 0


class LiteBackend:
    """LITE's high-level kernel API (synchronous one-op-at-a-time)."""

    def __init__(self, node):
        module = node.services.get("lite")
        if module is None:
            raise MicroViewError(f"{node.gid} has no LITE module loaded")
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

    def harvest_serial(self, targets, laddr, lkey):
        offset = 0
        for gid, raddr, rkey, length in targets:
            yield from self.module.read(gid, laddr + offset, lkey, raddr, rkey, length)
            offset += length
        return offset, 0

    # The kernel API exposes neither doorbell chains nor gather WRs, so
    # the "optimized" strategies are the serial loop in a trench coat.
    harvest_batched = harvest_serial
    harvest_vectored = harvest_serial


class KrcoreBackend:
    """KRCORE VQPs: microsecond control plane, low-level data plane."""

    def __init__(self, node, cpu_id=0):
        self.node = node
        self.lib = KrcoreLib(node, cpu_id=cpu_id)
        self._vqps = {}
        #: Harvest READs lost to churn races (failed validation or
        #: completion); the shared QP survives them all.
        self.stats_failed = 0

    def connect(self, gids):
        """Process: qconnect to each worker (us-scale, Fig 8a)."""
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

    def harvest_serial(self, targets, laddr, lkey):
        harvested = 0
        failed = 0
        offset = 0
        for gid, raddr, rkey, length in targets:
            try:
                yield from self.lib.read_sync(
                    self._vqps[gid], laddr + offset, lkey, raddr, rkey, length
                )
                harvested += length
            except KrcoreError:
                failed += 1
            offset += length
        self.stats_failed += failed
        return harvested, failed

    def harvest_batched(self, targets, laddr, lkey):
        """Process: doorbell batching through the VQPs.  Validation runs
        before anything is posted, so a churned-out pod fails its whole
        chain cleanly instead of wrecking the shared physical QP."""
        by_gid = {}
        offset = 0
        for gid, raddr, rkey, length in targets:
            by_gid.setdefault(gid, []).append(
                WorkRequest.read(laddr + offset, length, lkey, raddr, rkey)
            )
            offset += length
        harvested = 0
        failed = 0
        posted = []
        for gid, wrs in by_gid.items():
            try:
                yield from self.lib.post_send_batch(self._vqps[gid], wrs)
                posted.append((gid, wrs))
            except KrcoreError:
                failed += len(wrs)
        for gid, wrs in posted:
            vqp = self._vqps[gid]
            for wr in wrs:
                entry = yield from vqp.wait_send_completion()
                if entry.ok:
                    harvested += wr.length
                else:
                    failed += 1
        self.stats_failed += failed
        return harvested, failed

    def harvest_vectored(self, targets, laddr, lkey):
        """Process: gather READs through the VQPs -- every segment is
        pre-validated against the MRStore before the WR posts."""
        by_gid = {}
        offset = 0
        for gid, raddr, rkey, length in targets:
            by_gid.setdefault(gid, []).append((offset, (raddr, rkey, length)))
            offset += length
        harvested = 0
        failed = 0
        for gid, entries in by_gid.items():
            for chunk in _chunks(entries, timing.MAX_VECTORED_SGES):
                try:
                    yield from self.lib.read_vectored_sync(
                        self._vqps[gid],
                        laddr + chunk[0][0],
                        lkey,
                        [sge for _, sge in chunk],
                    )
                    harvested += sum(sge[2] for _, sge in chunk)
                except KrcoreError:
                    failed += len(chunk)
        self.stats_failed += failed
        return harvested, failed
