"""Client side of DrTM-KV: lookups via one-sided RDMA READs.

A lookup costs two READs in the common case -- one for the home bucket,
one for the record -- and never touches the server's CPU.  This is the
query path KRCORE uses for DCT metadata (§4.2) and MR validation.
"""

from repro.cluster import timing
from repro.kvs.layout import BUCKET_BYTES, SLOT, Layout, RecordTooLargeError, key_fingerprint
from repro.kvs.store import PROBE_WINDOW, TOMBSTONE_FP
from repro.verbs import WorkRequest
from repro.verbs.errors import VerbsError


class DrtmKvClient:
    """Reads a remote DrTM-KV through an RC QP connected to its node.

    One client object supports one lookup at a time (it owns a single
    scratch buffer); use one client per concurrent caller.
    """

    def __init__(self, catalog, qp, scratch_addr, scratch_len, scratch_lkey):
        if scratch_len < BUCKET_BYTES:
            raise ValueError("scratch buffer smaller than one bucket")
        self.catalog = catalog
        self.qp = qp
        self.scratch_addr = scratch_addr
        self.scratch_len = scratch_len
        self.scratch_lkey = scratch_lkey
        self.heap_addr = catalog.base_addr + catalog.bucket_count * BUCKET_BYTES
        self.stats_reads = 0

    def lookup(self, key):
        """Process: fetch ``key``'s value bytes, or None if absent.

        Every READ -- a bucket of the probe window, a record whose
        fingerprint matches -- is posted and reaped at one site, in this
        frame."""
        fp = key_fingerprint(key)
        catalog = self.catalog
        qp = self.qp
        cq = qp.send_cq
        home = fp & (catalog.bucket_count - 1)
        probe = 0
        slots = None  # the bucket being scanned: an iterator of its slots
        has_empty = False
        raddr, length = catalog.base_addr + home * BUCKET_BYTES, BUCKET_BYTES
        while True:
            if length > self.scratch_len:
                raise RecordTooLargeError(
                    f"record of {length} bytes exceeds the {self.scratch_len} B scratch buffer"
                )
            yield timing.POST_SEND_CPU_NS
            qp.post_send(
                WorkRequest.read(self.scratch_addr, length, self.scratch_lkey, raddr, catalog.rkey)
            )
            if cq.poll_mode == "event":  # CompletionQueue.wait_poll, in this frame
                completions = cq.poll()
                while not completions:
                    yield cq.wait()
                    completions = cq.poll()
            else:
                completions = yield from cq.wait_poll()
            yield timing.POLL_CQ_CPU_NS
            completion = completions[0]
            if not completion.ok:
                raise VerbsError(
                    f"meta read failed: {completion.status}", code=completion.status
                )
            self.stats_reads += 1
            data = qp.node.memory.read(self.scratch_addr, length)
            if slots is None:
                slots = SLOT.iter_unpack(data)
                has_empty = False
            else:
                record_key, record_value = Layout.unpack_record(data)
                if record_key == key:
                    return record_value
            # On through the bucket to the next slot that may hold the key.
            for slot_fp, slot_off, slot_len in slots:
                if slot_fp == 0:
                    has_empty = True
                elif slot_fp == fp and slot_fp != TOMBSTONE_FP:
                    raddr, length = self.heap_addr + slot_off, slot_len
                    break
            else:  # the bucket is done
                probe += 1
                if has_empty or probe == PROBE_WINDOW:
                    return None
                slots = None
                bucket_index = (home + probe) % catalog.bucket_count
                raddr, length = catalog.base_addr + bucket_index * BUCKET_BYTES, BUCKET_BYTES
