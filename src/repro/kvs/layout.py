"""On-memory layout of the DrTM-KV hash table.

The table is a closed-addressing hash table with fixed-size buckets,
followed by a bump-allocated record heap, all inside one registered
region so remote clients can READ any of it:

* bucket: SLOTS_PER_BUCKET slots of 16 bytes each;
* slot:   fingerprint (8B) | record offset (4B) | record length (4B);
* record: key length (2B) | value length (2B) | key bytes | value bytes.

A zero fingerprint marks an empty slot.  When a bucket fills up,
insertion probes linearly to the following bucket, and lookups mirror
that rule (probe further only if the bucket has no free slot).
"""

import hashlib
import struct

SLOT_BYTES = 16
SLOTS_PER_BUCKET = 4
BUCKET_BYTES = SLOT_BYTES * SLOTS_PER_BUCKET
RECORD_HEADER = struct.Struct(">HH")
SLOT = struct.Struct(">QII")


class StoreFullError(Exception):
    """No free slot within the probe window, or the record heap is full."""


class RecordTooLargeError(ValueError):
    """A record longer than its reader can take.  A sizing error, not an
    outage: nothing retries it, and no transport failure wraps it."""


def key_fingerprint(key):
    """A stable non-zero 8-byte fingerprint of ``key`` (bytes)."""
    digest = hashlib.blake2b(key, digest_size=8).digest()
    fp = int.from_bytes(digest, "big")
    return fp or 1  # zero marks an empty slot


class Layout:
    """Address arithmetic for a table of ``bucket_count`` buckets."""

    def __init__(self, base_addr, bucket_count, heap_bytes):
        if bucket_count & (bucket_count - 1):
            raise ValueError("bucket_count must be a power of two")
        self.base_addr = base_addr
        self.bucket_count = bucket_count
        self.table_bytes = bucket_count * BUCKET_BYTES
        self.heap_addr = base_addr + self.table_bytes
        self.heap_bytes = heap_bytes

    @property
    def total_bytes(self):
        return self.table_bytes + self.heap_bytes

    def bucket_index(self, fingerprint):
        return fingerprint & (self.bucket_count - 1)

    def bucket_addr(self, index):
        return self.base_addr + (index % self.bucket_count) * BUCKET_BYTES

    def slot_addr(self, bucket_index, slot_index):
        return self.bucket_addr(bucket_index) + slot_index * SLOT_BYTES

    @staticmethod
    def pack_slot(fingerprint, offset, length):
        return SLOT.pack(fingerprint, offset, length)

    @staticmethod
    def unpack_slots(bucket_bytes):
        """Iterate (fingerprint, offset, length) over the slots of one
        bucket (exactly ``BUCKET_BYTES`` long)."""
        return SLOT.iter_unpack(bucket_bytes)

    @staticmethod
    def pack_record(key, value):
        return RECORD_HEADER.pack(len(key), len(value)) + key + value

    @staticmethod
    def unpack_record(record_bytes):
        klen, vlen = RECORD_HEADER.unpack_from(record_bytes)
        start = RECORD_HEADER.size
        return record_bytes[start : start + klen], record_bytes[start + klen : start + klen + vlen]

    @staticmethod
    def record_bytes_for(key, value):
        return RECORD_HEADER.size + len(key) + len(value)
