"""Storage-node side of the RACE-style hash table.

Memory layout (one registered region, fully READ/WRITE/CAS-able remotely):

    +0                meta page: the block allocator cursor (8 B, FETCH_ADD'ed
                      remotely by writers)
    +META_BYTES       bucket array: num_buckets x 64 B, 8 slots of 8 B each
    +...              block heap: bump-allocated key/value blocks

A slot packs everything a reader needs into one CAS-able word:

    fp (12 bits) | klen (8 bits) | vlen (12 bits) | offset (32 bits)

A block is ``klen(2B) | key | value`` so readers can verify the key after
the (fingerprint-guided) block READ.
"""

import hashlib
import struct

META_BYTES = 64
BUCKET_BYTES = 64
SLOT_BYTES = 8
SLOTS_PER_BUCKET = BUCKET_BYTES // SLOT_BYTES
PROBE_WINDOW = 4

_BLOCK_HDR = struct.Struct(">H")

MAX_KLEN = (1 << 8) - 1
MAX_VLEN = (1 << 12) - 1
MAX_OFFSET = (1 << 32) - 1


class RaceError(Exception):
    """A RACE operation failed (table full, oversized entry, ...)."""


def fingerprint(key):
    """Stable hash of ``key``: (fp12, bucket_spread) both derived from one
    digest.  fp12 is non-zero (zero marks an empty slot)."""
    digest = hashlib.blake2b(key, digest_size=8).digest()
    value = int.from_bytes(digest, "big")
    fp12 = (value >> 44) & 0xFFF
    return (fp12 or 1), value & 0xFFFFFFFFF


def pack_slot(fp12, klen, vlen, offset):
    if klen > MAX_KLEN:
        raise RaceError(f"key of {klen}B exceeds the {MAX_KLEN}B slot limit")
    if vlen > MAX_VLEN:
        raise RaceError(f"value of {vlen}B exceeds the {MAX_VLEN}B slot limit")
    if offset > MAX_OFFSET:
        raise RaceError("block offset exceeds 32 bits")
    return (fp12 << 52) | (klen << 44) | (vlen << 32) | offset


def unpack_slot(word):
    """Returns (fp12, klen, vlen, offset)."""
    return ((word >> 52) & 0xFFF, (word >> 44) & 0xFF, (word >> 32) & 0xFFF, word & 0xFFFFFFFF)


def pack_block(key, value):
    return _BLOCK_HDR.pack(len(key)) + key + value


def unpack_block(block, klen, vlen):
    (stored_klen,) = _BLOCK_HDR.unpack_from(block)
    if stored_klen != klen:
        raise RaceError("corrupt block: slot/header key length mismatch")
    start = _BLOCK_HDR.size
    return block[start : start + klen], block[start + klen : start + klen + vlen]


def block_bytes(key, value):
    return _BLOCK_HDR.size + len(key) + len(value)


class Catalog:
    """Everything a computing node needs to drive one storage node."""

    __slots__ = ("gid", "rkey", "alloc_addr", "bucket_base", "num_buckets", "heap_base", "heap_bytes")

    def __init__(self, gid, rkey, alloc_addr, bucket_base, num_buckets, heap_base, heap_bytes):
        self.gid = gid
        self.rkey = rkey
        self.alloc_addr = alloc_addr
        self.bucket_base = bucket_base
        self.num_buckets = num_buckets
        self.heap_base = heap_base
        self.heap_bytes = heap_bytes

    def bucket_addr(self, index):
        return self.bucket_base + (index % self.num_buckets) * BUCKET_BYTES


class RaceStorage:
    """A passive storage node hosting one RACE table."""

    def __init__(self, node, num_buckets=4096, heap_bytes=1 << 20, register=True):
        if num_buckets & (num_buckets - 1):
            raise RaceError("num_buckets must be a power of two")
        self.node = node
        self.num_buckets = num_buckets
        self.heap_bytes = heap_bytes
        total = META_BYTES + num_buckets * BUCKET_BYTES + heap_bytes
        self.base = node.memory.alloc(total)
        self.region = node.memory.register(self.base, total) if register else None

    @property
    def alloc_addr(self):
        return self.base

    @property
    def bucket_base(self):
        return self.base + META_BYTES

    @property
    def heap_base(self):
        return self.bucket_base + self.num_buckets * BUCKET_BYTES

    def catalog(self, rkey=None):
        return Catalog(
            self.node.gid,
            self.region.rkey if rkey is None else rkey,
            self.alloc_addr,
            self.bucket_base,
            self.num_buckets,
            self.heap_base,
            self.heap_bytes,
        )

    # -- local (load-phase / test) helpers -------------------------------------

    def load(self, key, value):
        """Insert locally, without the network (the bulk load phase)."""
        fp12, spread = fingerprint(key)
        offset = self._alloc_local(block_bytes(key, value))
        self.node.memory.write(self.heap_base + offset, pack_block(key, value))
        new_slot = pack_slot(fp12, len(key), len(value), offset)
        home = spread % self.num_buckets
        for probe in range(PROBE_WINDOW):
            bucket = (home + probe) % self.num_buckets
            for slot_index in range(SLOTS_PER_BUCKET):
                addr = self.bucket_base + bucket * BUCKET_BYTES + slot_index * SLOT_BYTES
                word = int.from_bytes(self.node.memory.read(addr, 8), "big")
                if word == 0:
                    self.node.memory.write(addr, new_slot.to_bytes(8, "big"))
                    return
                fp, klen, vlen, off = unpack_slot(word)
                if fp == fp12:
                    block = self.node.memory.read(self.heap_base + off, block_bytes(b"x" * klen, b"y" * vlen))
                    stored_key, _ = unpack_block(block, klen, vlen)
                    if stored_key == key:
                        self.node.memory.write(addr, new_slot.to_bytes(8, "big"))
                        return
        raise RaceError(f"no free slot within {PROBE_WINDOW} buckets")

    def get_local(self, key):
        """Local lookup (tests); returns value bytes or None."""
        fp12, spread = fingerprint(key)
        home = spread % self.num_buckets
        for probe in range(PROBE_WINDOW):
            bucket = (home + probe) % self.num_buckets
            for slot_index in range(SLOTS_PER_BUCKET):
                addr = self.bucket_base + bucket * BUCKET_BYTES + slot_index * SLOT_BYTES
                word = int.from_bytes(self.node.memory.read(addr, 8), "big")
                if word == 0:
                    continue
                fp, klen, vlen, off = unpack_slot(word)
                if fp != fp12:
                    continue
                block = self.node.memory.read(self.heap_base + off, _BLOCK_HDR.size + klen + vlen)
                stored_key, stored_value = unpack_block(block, klen, vlen)
                if stored_key == key:
                    return stored_value
        return None

    def _alloc_local(self, nbytes):
        cursor = int.from_bytes(self.node.memory.read(self.alloc_addr, 8), "big")
        if cursor + nbytes > self.heap_bytes:
            raise RaceError("block heap exhausted")
        self.node.memory.write(self.alloc_addr, (cursor + nbytes).to_bytes(8, "big"))
        return cursor
