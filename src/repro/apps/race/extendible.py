"""Extendible RACE hashing: one-sided-friendly online resizing.

The real RACE's headline feature is *lock-free remote resizing*: when a
subtable fills up, a computing node splits it purely with one-sided verbs
(allocate a new subtable remotely, move slots, repoint directory entries
with CAS) while other clients keep operating.  The simplified table in
:mod:`repro.apps.race.hashing` pre-sizes everything (all the paper's own
experiments need); this module implements the resizable variant.

Layout (one registered region):

    meta page:    block-heap cursor (8B) | subtable cursor (8B)
    directory:    2^MAX_DEPTH entries of 8B: subtable_index:32 | local_depth:16
                  -- *flattened*: every entry is always valid, entries that
                  share a subtable are replicas, so readers never need the
                  global depth (RACE's client-cached directory trick)
    subtables:    MAX_SUBTABLES x (BUCKETS_PER_SUBTABLE x 64B buckets)
    block heap:   key/value blocks (shared by all subtables; splits move
                  slots, never blocks)

Directory selection uses the *low* MAX_DEPTH bits of the key's spread;
bucket selection inside a subtable uses the bits above them, so a split
redistributes by one more directory bit, never by bucket position.

Concurrency: splits race safely through CAS -- a loser simply wasted one
subtable allocation and retries; readers holding a stale cached directory
miss, refresh it once, and retry (the "stale read" path RACE describes).
"""

import struct

from repro.apps.race.hashing import (
    BUCKET_BYTES,
    RaceError,
    SLOTS_PER_BUCKET,
    SLOT_BYTES,
    block_bytes,
    fingerprint,
    pack_block,
    pack_slot,
    unpack_block,
    unpack_slot,
)

MAX_DEPTH = 8
MAX_SUBTABLES = 1 << MAX_DEPTH
DIR_ENTRIES = 1 << MAX_DEPTH
DIR_ENTRY = struct.Struct(">Q")
META_BYTES = 64

#: Buckets per subtable (power of two).
BUCKETS_PER_SUBTABLE = 8

#: How many buckets an insert may probe inside one subtable before it
#: decides the subtable is full and splits it.
PROBE_WINDOW = 2


def pack_dir_entry(subtable_index, local_depth):
    return (subtable_index << 16) | local_depth


def unpack_dir_entry(word):
    return word >> 16, word & 0xFFFF


class ExtendibleCatalog:
    """What a client needs: geometry + the region's rkey."""

    __slots__ = (
        "gid", "rkey", "alloc_addr", "subtable_cursor_addr", "dir_addr",
        "subtable_base", "heap_base", "heap_bytes",
    )

    def __init__(self, storage, rkey):
        self.gid = storage.node.gid
        self.rkey = rkey
        self.alloc_addr = storage.base
        self.subtable_cursor_addr = storage.base + 8
        self.dir_addr = storage.base + META_BYTES
        self.subtable_base = self.dir_addr + DIR_ENTRIES * 8
        self.heap_base = storage.heap_base
        self.heap_bytes = storage.heap_bytes

    def subtable_addr(self, index):
        return self.subtable_base + index * BUCKETS_PER_SUBTABLE * BUCKET_BYTES

    def bucket_addr(self, subtable_index, bucket_index):
        return self.subtable_addr(subtable_index) + (
            bucket_index % BUCKETS_PER_SUBTABLE
        ) * BUCKET_BYTES


class ExtendibleRaceStorage:
    """The passive storage side: lays out the region (fresh DRAM is zeroed)."""

    def __init__(self, node, initial_depth=1, heap_bytes=1 << 20):
        if initial_depth > MAX_DEPTH:
            raise RaceError(f"initial depth {initial_depth} exceeds {MAX_DEPTH}")
        self.node = node
        self.heap_bytes = heap_bytes
        table_bytes = MAX_SUBTABLES * BUCKETS_PER_SUBTABLE * BUCKET_BYTES
        total = META_BYTES + DIR_ENTRIES * 8 + table_bytes + heap_bytes
        self.base = node.memory.alloc(total)
        self.heap_base = self.base + META_BYTES + DIR_ENTRIES * 8 + table_bytes
        # Initial subtables: 2^initial_depth, directory fully replicated.
        initial = 1 << initial_depth
        self.node.memory.write(self.base + 8, initial.to_bytes(8, "big"))
        for entry_index in range(DIR_ENTRIES):
            subtable = entry_index % initial
            word = pack_dir_entry(subtable, initial_depth)
            node.memory.write(
                self.base + META_BYTES + entry_index * 8, DIR_ENTRY.pack(word)
            )
        self.region = node.memory.register(self.base, total)

    def catalog(self, rkey=None):
        return ExtendibleCatalog(
            self, self.region.rkey if rkey is None else rkey
        )

    # -- local test helpers ------------------------------------------------------

    def dir_entry_local(self, index):
        word = int.from_bytes(
            self.node.memory.read(self.base + META_BYTES + index * 8, 8), "big"
        )
        return unpack_dir_entry(word)

    def subtable_count_local(self):
        return int.from_bytes(self.node.memory.read(self.base + 8, 8), "big")


class ExtendibleRaceClient:
    """A computing worker driving the extendible table with one-sided ops."""

    def __init__(self, backend, catalog):
        self.backend = backend
        self.node = backend.node
        self.catalog = catalog
        self.scratch_addr = None
        self.scratch_lkey = None
        self._dir = None  # cached directory: list of (subtable, depth)
        self.stats_splits = 0
        self.stats_dir_refreshes = 0

    # ------------------------------------------------------------- lifecycle

    #: Scratch layout (offsets): 0 directory image (2 KB), 4096 outgoing
    #: block, 8184 atomic result, 8192 bucket+block reads (<= ~4.5 KB),
    #: 16384 split block reads, 20480 whole-subtable image (512 B).
    _SCRATCH_BYTES = 24576

    def setup(self):
        yield from self.backend.connect([self.catalog.gid])
        self.scratch_addr, self.scratch_lkey = yield from self.backend.setup_buffer(
            self._SCRATCH_BYTES
        )
        yield from self._refresh_directory()

    def _refresh_directory(self):
        """One big READ of the (flattened) directory."""
        yield from self.backend.read(
            self.catalog.gid, self.scratch_addr, self.scratch_lkey,
            self.catalog.dir_addr, self.catalog.rkey, DIR_ENTRIES * 8,
        )
        raw = self.node.memory.read(self.scratch_addr, DIR_ENTRIES * 8)
        self._dir = [
            unpack_dir_entry(DIR_ENTRY.unpack_from(raw, i * 8)[0])
            for i in range(DIR_ENTRIES)
        ]
        self.stats_dir_refreshes += 1

    # ------------------------------------------------------------------ keys

    @staticmethod
    def _locate(key):
        fp12, spread = fingerprint(key)
        dir_index = spread & (DIR_ENTRIES - 1)
        bucket_index = (spread >> MAX_DEPTH) % BUCKETS_PER_SUBTABLE
        return fp12, spread, dir_index, bucket_index

    # ------------------------------------------------------------------- GET

    def get(self, key, _retried=False):
        fp12, spread, dir_index, bucket_index = self._locate(key)
        subtable, _depth = self._dir[dir_index]
        value = yield from self._get_in_subtable(key, fp12, subtable, bucket_index)
        if value is None and not _retried:
            # A concurrent split may have moved the slot: refresh + retry.
            yield from self._refresh_directory()
            value = yield from self.get(key, _retried=True)
        return value

    def _get_in_subtable(self, key, fp12, subtable, bucket_index):
        scratch = self.scratch_addr + 8192
        for probe in range(PROBE_WINDOW):
            bucket_addr = self.catalog.bucket_addr(subtable, bucket_index + probe)
            yield from self.backend.read(
                self.catalog.gid, scratch, self.scratch_lkey,
                bucket_addr, self.catalog.rkey, BUCKET_BYTES,
            )
            bucket = self.node.memory.read(scratch, BUCKET_BYTES)
            for slot_index in range(SLOTS_PER_BUCKET):
                word = int.from_bytes(
                    bucket[slot_index * SLOT_BYTES : (slot_index + 1) * SLOT_BYTES], "big"
                )
                if word == 0:
                    continue
                fp, klen, vlen, offset = unpack_slot(word)
                if fp != fp12:
                    continue
                length = 2 + klen + vlen
                yield from self.backend.read(
                    self.catalog.gid, scratch + BUCKET_BYTES, self.scratch_lkey,
                    self.catalog.heap_base + offset, self.catalog.rkey, length,
                )
                block = self.node.memory.read(scratch + BUCKET_BYTES, length)
                stored_key, stored_value = unpack_block(block, klen, vlen)
                if stored_key == key:
                    return stored_value
        return None

    # ------------------------------------------------------------------- PUT

    #: Retry budget for inserts.  Retries are triggered both by genuine
    #: splits (bounded by MAX_DEPTH) and by benign races with concurrent
    #: writers/splitters (stale directory, lost slot CAS), so the budget
    #: is far above the split bound.
    _MAX_PUT_ATTEMPTS = 64

    def put(self, key, value, _attempts=0):
        if _attempts > self._MAX_PUT_ATTEMPTS:
            raise RaceError(f"insert of {key!r} kept failing (table full?)")
        fp12, spread, dir_index, bucket_index = self._locate(key)
        subtable, depth = self._dir[dir_index]
        # Write the block first (its offset goes into the slot).
        offset = yield from self._alloc_and_write_block(key, value)
        new_slot = pack_slot(fp12, len(key), len(value), offset)
        installed = yield from self._install(
            key, fp12, subtable, bucket_index, new_slot
        )
        if installed == "ok":
            return
        if installed == "retry":
            yield from self._refresh_directory()
            yield from self.put(key, value, _attempts=_attempts + 1)
            return
        # "full": split this subtable by one more directory bit, then retry.
        yield from self._split(dir_index, subtable, depth)
        yield from self.put(key, value, _attempts=_attempts + 1)

    def _alloc_and_write_block(self, key, value):
        scratch = self.scratch_addr + 8192 - 8
        size = block_bytes(key, value)
        yield from self.backend.fetch_add(
            self.catalog.gid, scratch, self.scratch_lkey,
            self.catalog.alloc_addr, self.catalog.rkey, size,
        )
        offset = int.from_bytes(self.node.memory.read(scratch, 8), "big")
        if offset + size > self.catalog.heap_bytes:
            raise RaceError("block heap exhausted")
        block_scratch = self.scratch_addr + 4096
        self.node.memory.write(block_scratch, pack_block(key, value))
        yield from self.backend.write(
            self.catalog.gid, block_scratch, self.scratch_lkey,
            self.catalog.heap_base + offset, self.catalog.rkey, size,
        )
        return offset

    def _install(self, key, fp12, subtable, bucket_index, new_slot):
        """Try to place ``new_slot``; returns 'ok', 'full', or 'retry'."""
        scratch = self.scratch_addr + 8192
        stale_seen = False
        for probe in range(PROBE_WINDOW):
            bucket_addr = self.catalog.bucket_addr(subtable, bucket_index + probe)
            yield from self.backend.read(
                self.catalog.gid, scratch, self.scratch_lkey,
                bucket_addr, self.catalog.rkey, BUCKET_BYTES,
            )
            bucket = self.node.memory.read(scratch, BUCKET_BYTES)
            empty_at = None
            for slot_index in range(SLOTS_PER_BUCKET):
                word = int.from_bytes(
                    bucket[slot_index * SLOT_BYTES : (slot_index + 1) * SLOT_BYTES], "big"
                )
                if word == 0:
                    if empty_at is None:
                        empty_at = bucket_addr + slot_index * SLOT_BYTES
                    continue
                fp, klen, vlen, offset = unpack_slot(word)
                if fp != fp12:
                    continue
                length = 2 + klen + vlen
                yield from self.backend.read(
                    self.catalog.gid, scratch + BUCKET_BYTES, self.scratch_lkey,
                    self.catalog.heap_base + offset, self.catalog.rkey, length,
                )
                block = self.node.memory.read(scratch + BUCKET_BYTES, length)
                stored_key, _ = unpack_block(block, klen, vlen)
                if stored_key == key:
                    won = yield from self._cas(
                        bucket_addr + slot_index * SLOT_BYTES, word, new_slot
                    )
                    return "ok" if won else "retry"
            if empty_at is not None:
                won = yield from self._cas(empty_at, 0, new_slot)
                if won:
                    return "ok"
                stale_seen = True
        return "retry" if stale_seen else "full"

    def _cas(self, slot_addr, expected, new_word):
        scratch = self.scratch_addr + 8192 - 8
        yield from self.backend.cas(
            self.catalog.gid, scratch, self.scratch_lkey,
            slot_addr, self.catalog.rkey, expected, new_word,
        )
        old = int.from_bytes(self.node.memory.read(scratch, 8), "big")
        return old == expected

    # ------------------------------------------------------------------ SPLIT

    def _split(self, dir_index, subtable, depth):
        """Split ``subtable`` by directory bit ``depth`` (RACE's remote,
        lock-free resize, §5.3.1 context)."""
        if depth >= MAX_DEPTH:
            raise RaceError("cannot split: directory depth exhausted")
        scratch = self.scratch_addr + 8192 - 8
        # 1. Allocate a fresh subtable index remotely.
        yield from self.backend.fetch_add(
            self.catalog.gid, scratch, self.scratch_lkey,
            self.catalog.subtable_cursor_addr, self.catalog.rkey, 1,
        )
        new_subtable = int.from_bytes(self.node.memory.read(scratch, 8), "big")
        if new_subtable >= MAX_SUBTABLES:
            raise RaceError("out of subtables")
        # 2. Claim the split: repoint the *new-half* directory replicas.
        #    The pattern with bit `depth` set moves to the new subtable.
        old_entry = pack_dir_entry(subtable, depth)
        new_entry_new = pack_dir_entry(new_subtable, depth + 1)
        new_entry_old = pack_dir_entry(subtable, depth + 1)
        pattern = dir_index & ((1 << depth) - 1)
        claimed = False
        for entry_index in range(DIR_ENTRIES):
            if entry_index & ((1 << depth) - 1) != pattern:
                continue
            moves = bool(entry_index & (1 << depth))
            target = new_entry_new if moves else new_entry_old
            won = yield from self._cas(
                self.catalog.dir_addr + entry_index * 8, old_entry, target
            )
            if not claimed and not won:
                # Another client split (or deepened) this subtable first:
                # abandon ours (the allocated subtable index is wasted).
                yield from self._refresh_directory()
                return
            claimed = True
        # 3. Move slots whose spread has bit `depth` set into the new
        #    subtable (blocks stay put; only 8B slots move).
        buckets_scratch = self.scratch_addr + 20480
        yield from self.backend.read(
            self.catalog.gid, buckets_scratch, self.scratch_lkey,
            self.catalog.subtable_addr(subtable), self.catalog.rkey,
            BUCKETS_PER_SUBTABLE * BUCKET_BYTES,
        )
        raw = self.node.memory.read(
            buckets_scratch, BUCKETS_PER_SUBTABLE * BUCKET_BYTES
        )
        for bucket_index in range(BUCKETS_PER_SUBTABLE):
            for slot_index in range(SLOTS_PER_BUCKET):
                base = bucket_index * BUCKET_BYTES + slot_index * SLOT_BYTES
                word = int.from_bytes(raw[base : base + SLOT_BYTES], "big")
                if word == 0:
                    continue
                fp, klen, vlen, offset = unpack_slot(word)
                length = 2 + klen + vlen
                yield from self.backend.read(
                    self.catalog.gid, self.scratch_addr + 16384, self.scratch_lkey,
                    self.catalog.heap_base + offset, self.catalog.rkey, length,
                )
                block = self.node.memory.read(self.scratch_addr + 16384, length)
                stored_key, _value = unpack_block(block, klen, vlen)
                _fp, spread = fingerprint(stored_key)
                if not spread & (1 << depth):
                    continue  # stays in the old subtable
                # Install in the new subtable, then clear the old slot.
                target_bucket = (spread >> MAX_DEPTH) % BUCKETS_PER_SUBTABLE
                placed = False
                for probe in range(PROBE_WINDOW):
                    for new_slot_index in range(SLOTS_PER_BUCKET):
                        slot_addr = (
                            self.catalog.bucket_addr(new_subtable, target_bucket + probe)
                            + new_slot_index * SLOT_BYTES
                        )
                        won = yield from self._cas(slot_addr, 0, word)
                        if won:
                            placed = True
                            break
                    if placed:
                        break
                if not placed:
                    raise RaceError("split target subtable overflowed")
                old_addr = (
                    self.catalog.bucket_addr(subtable, bucket_index)
                    + slot_index * SLOT_BYTES
                )
                yield from self._cas(old_addr, word, 0)
        self.stats_splits += 1
        yield from self._refresh_directory()
