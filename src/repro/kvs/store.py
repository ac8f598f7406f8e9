"""Server side of DrTM-KV: owns the table, serves local puts/gets."""

from repro.kvs.layout import (
    BUCKET_BYTES,
    Layout,
    SLOTS_PER_BUCKET,
    StoreFullError,
    key_fingerprint,
)

#: How many buckets an insert (and thus a lookup) may probe past home.
PROBE_WINDOW = 8

#: Fingerprint marking a deleted slot.  A tombstone is reusable by inserts
#: but does not terminate a probe chain, so keys that overflowed past it
#: stay reachable.
TOMBSTONE_FP = (1 << 64) - 1


class Catalog:
    """What a remote client needs to know to READ the store: the region's
    rkey and the table geometry.  Broadcast at boot time (§3.2)."""

    __slots__ = ("gid", "rkey", "base_addr", "bucket_count")

    def __init__(self, gid, rkey, base_addr, bucket_count):
        self.gid = gid
        self.rkey = rkey
        self.base_addr = base_addr
        self.bucket_count = bucket_count


class DrtmKvServer:
    """A DrTM-KV instance living in one node's registered memory.

    Mutations are performed locally by the owning node (the paper's meta
    servers receive metadata broadcasts at node boot); reads can come in
    remotely via one-sided READs without involving this code at all.
    """

    def __init__(self, node, bucket_count=1024, heap_bytes=1 << 20):
        self.node = node
        base_addr = node.memory.alloc(bucket_count * BUCKET_BYTES + heap_bytes)
        self.layout = Layout(base_addr, bucket_count, heap_bytes)
        # Fresh DRAM reads as zeros: every fingerprint starts out empty.
        self.region = node.memory.register(base_addr, self.layout.total_bytes)
        self._heap_cursor = self.layout.heap_addr
        self.size = 0

    @property
    def catalog(self):
        return Catalog(
            self.node.gid, self.region.rkey, self.layout.base_addr, self.layout.bucket_count
        )

    # -- local operations -----------------------------------------------------

    def put(self, key, value):
        """Insert or update ``key`` (bytes) -> ``value`` (bytes)."""
        fp = key_fingerprint(key)
        offset, length = self._append_record(key, value)
        slot_bytes = Layout.pack_slot(fp, offset, length)
        home = self.layout.bucket_index(fp)
        free = None  # (bucket, slot) of the first reusable slot seen
        for probe in range(PROBE_WINDOW):
            bucket_index = (home + probe) % self.layout.bucket_count
            has_empty = False
            for slot_index, (slot_fp, slot_off, slot_len) in enumerate(self._slots(bucket_index)):
                if slot_fp == fp and self._record_key(slot_off, slot_len) == key:
                    self._write_slot(bucket_index, slot_index, slot_bytes)
                    return
                if slot_fp in (0, TOMBSTONE_FP) and free is None:
                    free = (bucket_index, slot_index)
                if slot_fp == 0:
                    has_empty = True
            if has_empty:
                break  # an empty slot terminates every probe chain
        if free is None:
            raise StoreFullError(
                f"no slot for key within {PROBE_WINDOW} buckets: {self.size} of "
                f"{self.layout.bucket_count * SLOTS_PER_BUCKET} slots are in use"
            )
        self._write_slot(free[0], free[1], slot_bytes)
        self.size += 1

    def get_local(self, key):
        """Local lookup (no network); returns value bytes or None."""
        fp = key_fingerprint(key)
        home = self.layout.bucket_index(fp)
        for probe in range(PROBE_WINDOW):
            bucket_index = (home + probe) % self.layout.bucket_count
            has_empty = False
            for slot_fp, slot_off, slot_len in self._slots(bucket_index):
                if slot_fp == 0:
                    has_empty = True
                    continue
                if slot_fp == fp:
                    record = self.node.memory.read(self.layout.heap_addr + slot_off, slot_len)
                    record_key, record_value = Layout.unpack_record(record)
                    if record_key == key:
                        return record_value
            if has_empty:
                return None
        return None

    def delete(self, key):
        """Remove ``key``; returns True if it was present."""
        fp = key_fingerprint(key)
        home = self.layout.bucket_index(fp)
        tombstone = Layout.pack_slot(TOMBSTONE_FP, 0, 0)
        for probe in range(PROBE_WINDOW):
            bucket_index = (home + probe) % self.layout.bucket_count
            has_empty = False
            for slot_index, (slot_fp, slot_off, slot_len) in enumerate(self._slots(bucket_index)):
                if slot_fp == 0:
                    has_empty = True
                    continue
                if slot_fp == fp and self._record_key(slot_off, slot_len) == key:
                    self._write_slot(bucket_index, slot_index, tombstone)
                    self.size -= 1
                    return True
            if has_empty:
                return False
        return False

    # -- internals --------------------------------------------------------------

    def _slots(self, bucket_index):
        bucket = self.node.memory.read(self.layout.bucket_addr(bucket_index), BUCKET_BYTES)
        return Layout.unpack_slots(bucket)

    def _write_slot(self, bucket_index, slot_index, slot_bytes):
        self.node.memory.write(self.layout.slot_addr(bucket_index, slot_index), slot_bytes)

    def _record_key(self, offset, length):
        record = self.node.memory.read(self.layout.heap_addr + offset, length)
        return Layout.unpack_record(record)[0]

    def _append_record(self, key, value):
        record = Layout.pack_record(key, value)
        end = self.layout.heap_addr + self.layout.heap_bytes
        if self._heap_cursor + len(record) > end:
            raise StoreFullError("record heap exhausted")
        self.node.memory.write(self._heap_cursor, record)
        offset = self._heap_cursor - self.layout.heap_addr
        self._heap_cursor += len(record)
        return offset, len(record)
