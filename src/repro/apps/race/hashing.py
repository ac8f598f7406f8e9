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
_BUCKET_WORDS = struct.Struct(f">{SLOTS_PER_BUCKET}Q")
_EMPTY_WINDOW = bytes(BUCKET_BYTES * PROBE_WINDOW)

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


def scan_bucket(bucket, fp12):
    """Decode a 64 B bucket image for ``fp12``: ``(matches, empty)``, the
    ``(slot index, word)`` of every slot whose fingerprint is ``fp12`` in
    slot order, and the index of the first empty slot (None if full)."""
    words = _BUCKET_WORDS.unpack(bucket)
    matches = []
    empty = None
    for index in range(SLOTS_PER_BUCKET):
        word = words[index]
        if word == 0:
            if empty is None:
                empty = index
        elif word >> 52 == fp12:
            matches.append((index, word))
    return matches, empty


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
        self.base = self.alloc_addr = node.memory.alloc(total)
        self.bucket_base = self.base + META_BYTES
        self.heap_base = self.bucket_base + num_buckets * BUCKET_BYTES
        self.region = node.memory.register(self.base, total) if register else None

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
        """Insert or update locally, without the network (the bulk load
        phase): the key's own slot if it has one, else the first hole."""
        fp12, spread = fingerprint(key)
        offset = self._alloc_local(block_bytes(key, value))
        self.node.memory.write(self.heap_base + offset, pack_block(key, value))
        new_slot = pack_slot(fp12, len(key), len(value), offset)
        slot_addr, empty_at, _ = self._find_local(fp12, key, spread % self.num_buckets)
        if slot_addr is None:
            if empty_at is None:
                raise RaceError(f"no free slot within {PROBE_WINDOW} buckets")
            slot_addr = empty_at
        self.node.memory.write(slot_addr, new_slot.to_bytes(8, "big"))

    def get_local(self, key):
        """Local lookup (tests); returns value bytes or None."""
        fp12, spread = fingerprint(key)
        return self._find_local(fp12, key, spread % self.num_buckets)[2]

    def _find_local(self, fp12, key, home):
        """``RaceClient._find`` over local memory: ``(slot_addr, word,
        value)`` of the slot holding ``key``, else ``(None, first empty
        slot or None, None)``."""
        # The bulk load meets mostly empty windows (its cost is the set-up
        # time of every RACE run): one read of the window, and no decode
        # when it is all holes.
        memory = self.node.memory
        if home + PROBE_WINDOW <= self.num_buckets:
            window = memory.read(self.bucket_base + home * BUCKET_BYTES, PROBE_WINDOW * BUCKET_BYTES)
        else:
            window = b"".join(memory.read(self._bucket_addr(home + probe), BUCKET_BYTES)
                              for probe in range(PROBE_WINDOW))
        if window == _EMPTY_WINDOW:
            return None, self.bucket_base + home * BUCKET_BYTES, None
        empty_at = None
        for probe in range(PROBE_WINDOW):
            bucket = window[probe * BUCKET_BYTES : (probe + 1) * BUCKET_BYTES]
            matches, empty = scan_bucket(bucket, fp12)
            for index, word in matches:
                _, klen, vlen, offset = unpack_slot(word)
                block = memory.read(self.heap_base + offset, _BLOCK_HDR.size + klen + vlen)
                stored_key, value = unpack_block(block, klen, vlen)
                if stored_key == key:
                    return self._bucket_addr(home + probe) + index * SLOT_BYTES, word, value
            if empty_at is None and empty is not None:
                empty_at = self._bucket_addr(home + probe) + empty * SLOT_BYTES
        return None, empty_at, None

    def _bucket_addr(self, index):
        return self.bucket_base + (index % self.num_buckets) * BUCKET_BYTES

    def _alloc_local(self, nbytes):
        cursor = int.from_bytes(self.node.memory.read(self.alloc_addr, 8), "big")
        if cursor + nbytes > self.heap_bytes:
            raise RaceError("block heap exhausted")
        self.node.memory.write(self.alloc_addr, (cursor + nbytes).to_bytes(8, "big"))
        return cursor
