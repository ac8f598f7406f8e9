"""Client side of DrTM-KV: lookups via one-sided RDMA READs.

A lookup costs two READs in the common case -- one for the home bucket,
one for the record -- and never touches the server's CPU.  This is the
query path KRCORE uses for DCT metadata (§4.2) and MR validation.
"""

from repro.cluster import timing
from repro.kvs.layout import BUCKET_BYTES, Layout, RecordTooLargeError, key_fingerprint
from repro.kvs.store import PROBE_WINDOW, TOMBSTONE_FP
from repro.verbs import WorkRequest
from repro.verbs.errors import VerbsError


class DrtmKvClient:
    """Reads a remote DrTM-KV through an RC QP connected to its node.

    One client object supports one lookup at a time (it owns a single
    scratch buffer); use one client per concurrent caller.
    """

    def __init__(self, catalog, qp, scratch_addr, scratch_len, scratch_lkey, charge_cpu=True):
        if scratch_len < BUCKET_BYTES:
            raise ValueError("scratch buffer smaller than one bucket")
        self.catalog = catalog
        self.qp = qp
        self.scratch_addr = scratch_addr
        self.scratch_len = scratch_len
        self.scratch_lkey = scratch_lkey
        self.charge_cpu = charge_cpu
        self.heap_addr = catalog.base_addr + catalog.bucket_count * BUCKET_BYTES
        self.stats_reads = 0

    def lookup(self, key):
        """Process: fetch ``key``'s value bytes, or None if absent."""
        fp = key_fingerprint(key)
        home = fp & (self.catalog.bucket_count - 1)
        for probe in range(PROBE_WINDOW):
            bucket_index = (home + probe) % self.catalog.bucket_count
            bucket_addr = self.catalog.base_addr + bucket_index * BUCKET_BYTES
            bucket = yield from self._read(bucket_addr, BUCKET_BYTES)
            has_empty = False
            for slot_fp, slot_off, slot_len in Layout.unpack_slots(bucket):
                if slot_fp == 0:
                    has_empty = True
                    continue
                if slot_fp == TOMBSTONE_FP or slot_fp != fp:
                    continue
                record = yield from self._read(self.heap_addr + slot_off, slot_len)
                record_key, record_value = Layout.unpack_record(record)
                if record_key == key:
                    return record_value
            if has_empty:
                return None
        return None

    def _read(self, raddr, length):
        if length > self.scratch_len:
            raise RecordTooLargeError(
                f"record of {length} bytes exceeds the {self.scratch_len} B scratch buffer"
            )
        if self.charge_cpu:
            yield timing.POST_SEND_CPU_NS
        self.qp.post_send(
            WorkRequest.read(
                self.scratch_addr, length, self.scratch_lkey, raddr, self.catalog.rkey
            )
        )
        completions = yield from self.qp.send_cq.wait_poll()
        if self.charge_cpu:
            yield timing.POLL_CQ_CPU_NS
        completion = completions[0]
        if not completion.ok:
            raise VerbsError(
                f"meta read failed: {completion.status}", code=completion.status
            )
        self.stats_reads += 1
        return self.qp.node.memory.read(self.scratch_addr, length)
