"""Interchangeable RDMA transports for the apps (§5.3.1).

The paper runs the same application code "atop of verbs, LITE and
KRCORE, respectively": RACE, the transaction client and the MicroView
collector all drive one of these three classes, one per stack:

* :class:`VerbsBackend`  -- user-space verbs: per-process driver init
  (~13.3 ms), one RC connection per storage node (~2 ms each, plus the
  server-side 712 QP/s ceiling), but full low-level access (doorbell
  batching, gather READs).
* :class:`LiteBackend`   -- LITE's high-level kernel API: no driver init,
  cached connections, but only synchronous one-op-at-a-time calls
  (Issue #3: no RDMA-aware optimizations).
* :class:`KrcoreBackend` -- VQPs: microsecond connections *and* the
  low-level interface, so doorbell batching still works.

``read_batch(requests)`` takes ``(gid, laddr, lkey, raddr, rkey,
length)`` tuples, posts one chain per target and reaps the completion
of every WR it posted before returning ``(bytes_ok, failed)``: a refused
post fails its whole chain, a bad completion fails one request.
"""

from repro.cluster import timing
from repro.krcore import KrcoreLib
from repro.verbs import DriverContext, WorkRequest
from repro.verbs.errors import KrcoreError, VerbsError
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


def _read_chains(requests):
    """``{gid: READ WR chain}`` over ``requests``, in first-use order."""
    chains = {}
    for gid, laddr, lkey, raddr, rkey, length in requests:
        chains.setdefault(gid, []).append(WorkRequest.read(laddr, length, lkey, raddr, rkey))
    return chains


def _fetch_add_wr(laddr, lkey, raddr, rkey, delta):
    return WorkRequest(
        OP_FETCH_ADD, laddr=laddr, length=8, lkey=lkey, raddr=raddr, rkey=rkey,
        compare=delta,
    )


def _krcore_failed(entry):
    raise RaceError(f"KRCORE {entry.opcode.name} failed: {entry.status}")


class VerbsBackend:
    """User-space verbs: the baseline control plane."""

    def __init__(self, node):
        self.node = node
        self.context = DriverContext(node)
        self.cq = None
        self._qps = {}  # gid -> QueuePair

    def connect(self, gids):
        """Process: driver init + one RC connection per node."""
        yield from self.context.ensure_init()
        if self.cq is None:
            self.cq = yield from self.context.create_cq()
        for gid in gids:
            if gid not in self._qps:
                self._qps[gid] = yield from rc_connect(self.context, self.cq, gid)

    def setup_buffer(self, nbytes):
        """Process: allocate + register a local scratch buffer."""
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
            raise RaceError(f"verbs op failed: {completions[0].status}")

    def read(self, gid, laddr, lkey, raddr, rkey, length):
        yield from self._sync(gid, WorkRequest.read(laddr, length, lkey, raddr, rkey))

    def read_vectored(self, gid, laddr, lkey, sges):
        yield from self._sync(gid, WorkRequest.read_vectored(laddr, lkey, sges))

    def write(self, gid, laddr, lkey, raddr, rkey, length):
        yield from self._sync(gid, WorkRequest.write(laddr, length, lkey, raddr, rkey))

    def cas(self, gid, laddr, lkey, raddr, rkey, compare, swap):
        yield from self._sync(gid, WorkRequest.cas(laddr, lkey, raddr, rkey, compare, swap))

    def fetch_add(self, gid, laddr, lkey, raddr, rkey, delta):
        yield from self._sync(gid, _fetch_add_wr(laddr, lkey, raddr, rkey, delta))

    def read_batch(self, requests):
        """Process: doorbell-batch READs -- one WR chain (and one doorbell)
        per target QP via ``post_send_batch`` -- then reap every posted
        WR's completion off the shared CQ."""
        failed = 0
        expected = 0
        for gid, wrs in _read_chains(requests).items():
            yield timing.doorbell_batch_cpu_ns(len(wrs))
            try:
                self._qps[gid].post_send_batch(wrs)
                expected += len(wrs)
            except VerbsError:
                failed += len(wrs)
        bytes_ok = 0
        seen = 0
        while seen < expected:
            completions = yield from self.cq.wait_poll(expected)
            for completion in completions:
                if completion.ok:
                    bytes_ok += completion.byte_len
                else:
                    failed += 1
            seen += len(completions)
        yield timing.POLL_CQ_CPU_NS
        return bytes_ok, failed


class LiteBackend:
    """LITE's high-level kernel API (synchronous only)."""

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

    setup_buffer = VerbsBackend.setup_buffer

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
        bytes_ok = 0
        failed = 0
        for gid, laddr, lkey, raddr, rkey, length in requests:
            try:
                yield from self.module.read(gid, laddr, lkey, raddr, rkey, length)
                bytes_ok += length
            except VerbsError:
                failed += 1
        return bytes_ok, failed


class KrcoreBackend:
    """KRCORE VQPs: microsecond control plane, low-level data plane."""

    def __init__(self, node, cpu_id=0):
        self.node = node
        self.lib = KrcoreLib(node, cpu_id=cpu_id)
        self.vqps = {}  # gid -> the connected VQP

    def connect(self, gids):
        """Process: qconnect to each storage node (us-scale, Fig 8a)."""
        for gid in gids:
            if gid in self.vqps:
                continue
            vqp = yield from self.lib.create_vqp()
            yield from self.lib.qconnect(vqp, gid)
            self.vqps[gid] = vqp

    def close(self):
        """Process: the worker exits -- destroy its VQPs (one syscall each)."""
        while self.vqps:
            _gid, vqp = self.vqps.popitem()
            yield from self.lib.destroy_vqp(vqp)

    def setup_buffer(self, nbytes):
        addr = self.node.memory.alloc(nbytes)
        region = yield from self.lib.reg_mr(addr, nbytes)
        return addr, region.lkey

    def read(self, gid, laddr, lkey, raddr, rkey, length):
        return self.lib.read_sync(self.vqps[gid], laddr, lkey, raddr, rkey, length)

    def read_vectored(self, gid, laddr, lkey, sges):
        return self.lib.read_vectored_sync(self.vqps[gid], laddr, lkey, sges)

    def write(self, gid, laddr, lkey, raddr, rkey, length):
        return self.lib.write_sync(self.vqps[gid], laddr, lkey, raddr, rkey, length)

    def cas(self, gid, laddr, lkey, raddr, rkey, compare, swap):
        wr = WorkRequest.cas(laddr, lkey, raddr, rkey, compare, swap)
        return self.lib.post_send_and_wait(self.vqps[gid], wr, _krcore_failed)

    def fetch_add(self, gid, laddr, lkey, raddr, rkey, delta):
        wr = _fetch_add_wr(laddr, lkey, raddr, rkey, delta)
        return self.lib.post_send_and_wait(self.vqps[gid], wr, _krcore_failed)

    def read_batch(self, requests):
        """Process: doorbell batching through the VQPs (one syscall per
        target chain -- the low-level optimization LITE cannot express).
        Validation runs before a chain posts, so a bad request fails its
        chain cleanly instead of wrecking the shared physical QP."""
        failed = 0
        posted = []  # (vqp, WRs whose completions count)
        for gid, wrs in _read_chains(requests).items():
            vqp = self.vqps[gid]
            queued = len(vqp.comp_queue)
            try:
                yield from self.lib.post_send_batch(vqp, wrs)
            except KrcoreError:
                failed += len(wrs)
                # A chain longer than the send queue posts in chunks: the
                # chunks out before the refused one are reaped, not counted.
                wrs = [None] * (len(vqp.comp_queue) - queued)
            posted.append((vqp, wrs))
        bytes_ok = 0
        for vqp, wrs in posted:
            for wr in wrs:
                entry = yield from vqp.wait_send_completion()
                if wr is None:
                    continue
                if entry.ok:
                    bytes_ok += wr.length
                else:
                    failed += 1
        return bytes_ok, failed
