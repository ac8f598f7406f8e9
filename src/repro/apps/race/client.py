"""The computing-node side of RACE: one-sided GET/PUT over any backend."""

from repro.apps.race.hashing import (
    BUCKET_BYTES,
    PROBE_WINDOW,
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

#: Scratch layout: one bucket image, one block image, one atomic result,
#: then per-key slices for doorbell-batched GETs.
_SCRATCH_BUCKET = 0
_SCRATCH_BLOCK = 64
_SCRATCH_ATOMIC = 8192 - 8
_SCRATCH_BYTES = 8192

#: Per-key slice for batched GETs: bucket image + worst-case block.
_BATCH_SLICE = 64 + 2 + 255 + 4095

#: Bounded CAS retries under slot contention.
_MAX_RETRIES = 8


class RaceClient:
    """A RACE computing worker: GETs cost two READs, PUTs cost one remote
    allocation (FETCH_ADD) + one WRITE + one CAS."""

    def __init__(self, backend, catalogs):
        if not catalogs:
            raise RaceError("need at least one storage catalog")
        self.backend = backend
        self.node = backend.node
        self.catalogs = list(catalogs)
        self.scratch_addr = None
        self.scratch_lkey = None

    # -------------------------------------------------------------- lifecycle

    def setup(self, max_batch=64):
        """Process: connect to every storage node + register scratch.

        This is the worker bootstrap whose cost Fig 16 compares across
        backends.  ``max_batch`` sizes the scratch for get_batch.
        """
        yield from self.backend.connect([catalog.gid for catalog in self.catalogs])
        self.max_batch = max_batch
        self.scratch_addr, self.scratch_lkey = yield from self.backend.setup_buffer(
            _SCRATCH_BYTES + max_batch * _BATCH_SLICE
        )
        self._batch_base = self.scratch_addr + _SCRATCH_BYTES

    def _catalog_for(self, spread):
        return self.catalogs[(spread >> 20) % len(self.catalogs)]

    # ------------------------------------------------------------------- GET

    def get(self, key):
        """Process: fetch ``key``'s value (bytes) or None."""
        fp12, spread = fingerprint(key)
        catalog = self._catalog_for(spread)
        home = spread % catalog.num_buckets
        scratch = self.scratch_addr
        for probe in range(PROBE_WINDOW):
            bucket_addr = catalog.bucket_addr(home + probe)
            yield from self.backend.read(
                catalog.gid, scratch + _SCRATCH_BUCKET, self.scratch_lkey,
                bucket_addr, catalog.rkey, BUCKET_BYTES,
            )
            bucket = self.node.memory.read(scratch + _SCRATCH_BUCKET, BUCKET_BYTES)
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
                    catalog.gid, scratch + _SCRATCH_BLOCK, self.scratch_lkey,
                    catalog.heap_base + offset, catalog.rkey, length,
                )
                block = self.node.memory.read(scratch + _SCRATCH_BLOCK, length)
                stored_key, stored_value = unpack_block(block, klen, vlen)
                if stored_key == key:
                    return stored_value
        return None

    def get_batch(self, keys):
        """Process: doorbell-batched GETs -- one READ round for all the
        buckets, then one for all the candidate blocks (the RDMA-aware
        optimization that gives KRCORE its Fig 16 edge over LITE)."""
        if len(keys) > self.max_batch:
            raise RaceError(f"batch of {len(keys)} exceeds max_batch={self.max_batch}")
        plans = []
        for index, key in enumerate(keys):
            fp12, spread = fingerprint(key)
            catalog = self._catalog_for(spread)
            plans.append((key, fp12, catalog, spread % catalog.num_buckets))
        # Round 1: every home bucket.
        base = self._batch_base
        requests = []
        for index, (key, fp12, catalog, home) in enumerate(plans):
            requests.append(
                (
                    catalog.gid,
                    base + index * _BATCH_SLICE,
                    self.scratch_lkey,
                    catalog.bucket_addr(home),
                    catalog.rkey,
                    BUCKET_BYTES,
                )
            )
        yield from self._read_batch(requests)
        # Round 2: the matching blocks.
        block_requests = []
        pending = []
        for index, (key, fp12, catalog, home) in enumerate(plans):
            slice_addr = base + index * _BATCH_SLICE
            bucket = self.node.memory.read(slice_addr, BUCKET_BYTES)
            hit = None
            for slot_index in range(SLOTS_PER_BUCKET):
                word = int.from_bytes(
                    bucket[slot_index * SLOT_BYTES : (slot_index + 1) * SLOT_BYTES], "big"
                )
                if word == 0:
                    continue
                fp, klen, vlen, offset = unpack_slot(word)
                if fp == fp12:
                    hit = (klen, vlen, offset)
                    break
            if hit is None:
                pending.append((key, None, None))
                continue
            klen, vlen, offset = hit
            length = 2 + klen + vlen
            block_addr = slice_addr + BUCKET_BYTES
            block_requests.append(
                (catalog.gid, block_addr, self.scratch_lkey,
                 catalog.heap_base + offset, catalog.rkey, length)
            )
            pending.append((key, block_addr, (klen, vlen)))
        if block_requests:
            yield from self._read_batch(block_requests)
        results = {}
        for key, block_addr, shape in pending:
            if block_addr is None:
                results[key] = None
                continue
            klen, vlen = shape
            block = self.node.memory.read(block_addr, 2 + klen + vlen)
            stored_key, stored_value = unpack_block(block, klen, vlen)
            results[key] = stored_value if stored_key == key else None
        return results

    def _read_batch(self, requests):
        _bytes_ok, failed = yield from self.backend.read_batch(requests)
        if failed:
            raise RaceError(f"{failed} of {len(requests)} batched READs failed")

    # ------------------------------------------------------------------- PUT

    def put(self, key, value):
        """Process: insert/update via remote alloc + WRITE + slot CAS."""
        fp12, spread = fingerprint(key)
        catalog = self._catalog_for(spread)
        scratch = self.scratch_addr
        # 1. Allocate a block remotely (FETCH_ADD on the heap cursor).
        size = block_bytes(key, value)
        yield from self.backend.fetch_add(
            catalog.gid, scratch + _SCRATCH_ATOMIC, self.scratch_lkey,
            catalog.alloc_addr, catalog.rkey, size,
        )
        offset = int.from_bytes(self.node.memory.read(scratch + _SCRATCH_ATOMIC, 8), "big")
        if offset + size > catalog.heap_bytes:
            raise RaceError("storage block heap exhausted")
        # 2. Write the block.
        self.node.memory.write(scratch + _SCRATCH_BLOCK, pack_block(key, value))
        yield from self.backend.write(
            catalog.gid, scratch + _SCRATCH_BLOCK, self.scratch_lkey,
            catalog.heap_base + offset, catalog.rkey, size,
        )
        new_slot = pack_slot(fp12, len(key), len(value), offset)
        # 3. Install the slot with CAS (update in place if the key exists).
        home = spread % catalog.num_buckets
        for _ in range(_MAX_RETRIES):
            installed = yield from self._try_install(catalog, fp12, key, home, new_slot)
            if installed:
                return
        raise RaceError(f"slot CAS kept failing for {key!r}")

    def _try_install(self, catalog, fp12, key, home, new_slot):
        scratch = self.scratch_addr
        for probe in range(PROBE_WINDOW):
            bucket_addr = catalog.bucket_addr(home + probe)
            yield from self.backend.read(
                catalog.gid, scratch + _SCRATCH_BUCKET, self.scratch_lkey,
                bucket_addr, catalog.rkey, BUCKET_BYTES,
            )
            bucket = self.node.memory.read(scratch + _SCRATCH_BUCKET, BUCKET_BYTES)
            empty_at = None
            for slot_index in range(SLOTS_PER_BUCKET):
                word = int.from_bytes(
                    bucket[slot_index * SLOT_BYTES : (slot_index + 1) * SLOT_BYTES], "big"
                )
                if word == 0:
                    if empty_at is None:
                        empty_at = (bucket_addr + slot_index * SLOT_BYTES, 0)
                    continue
                fp, klen, vlen, offset = unpack_slot(word)
                if fp != fp12:
                    continue
                length = 2 + klen + vlen
                yield from self.backend.read(
                    catalog.gid, scratch + _SCRATCH_BLOCK, self.scratch_lkey,
                    catalog.heap_base + offset, catalog.rkey, length,
                )
                block = self.node.memory.read(scratch + _SCRATCH_BLOCK, length)
                stored_key, _ = unpack_block(block, klen, vlen)
                if stored_key == key:
                    # Update in place: CAS old slot word -> new.
                    won = yield from self._cas_slot(
                        catalog, bucket_addr + slot_index * SLOT_BYTES, word, new_slot
                    )
                    return won
            if empty_at is not None:
                slot_addr, expected = empty_at
                won = yield from self._cas_slot(catalog, slot_addr, expected, new_slot)
                if won:
                    return True
                return False  # lost the race: re-read and retry
        raise RaceError(f"no free slot within {PROBE_WINDOW} buckets")

    # ---------------------------------------------------------------- DELETE

    def delete(self, key):
        """Process: remove ``key`` by CAS-ing its slot to zero.

        Safe with linear probing because lookups always scan the full
        probe window (they never early-stop on an empty slot).  Returns
        True if the key was present.
        """
        fp12, spread = fingerprint(key)
        catalog = self._catalog_for(spread)
        scratch = self.scratch_addr
        home = spread % catalog.num_buckets
        for _ in range(_MAX_RETRIES):
            for probe in range(PROBE_WINDOW):
                bucket_addr = catalog.bucket_addr(home + probe)
                yield from self.backend.read(
                    catalog.gid, scratch + _SCRATCH_BUCKET, self.scratch_lkey,
                    bucket_addr, catalog.rkey, BUCKET_BYTES,
                )
                bucket = self.node.memory.read(scratch + _SCRATCH_BUCKET, BUCKET_BYTES)
                for slot_index in range(SLOTS_PER_BUCKET):
                    word = int.from_bytes(
                        bucket[slot_index * SLOT_BYTES : (slot_index + 1) * SLOT_BYTES],
                        "big",
                    )
                    if word == 0:
                        continue
                    fp, klen, vlen, offset = unpack_slot(word)
                    if fp != fp12:
                        continue
                    length = 2 + klen + vlen
                    yield from self.backend.read(
                        catalog.gid, scratch + _SCRATCH_BLOCK, self.scratch_lkey,
                        catalog.heap_base + offset, catalog.rkey, length,
                    )
                    block = self.node.memory.read(scratch + _SCRATCH_BLOCK, length)
                    stored_key, _ = unpack_block(block, klen, vlen)
                    if stored_key != key:
                        continue
                    won = yield from self._cas_slot(
                        catalog, bucket_addr + slot_index * SLOT_BYTES, word, 0
                    )
                    if won:
                        return True
                    break  # slot changed under us: retry the whole scan
                else:
                    continue
                break
            else:
                return False  # full window scanned, key absent
        raise RaceError(f"delete kept losing CAS races for {key!r}")

    def _cas_slot(self, catalog, slot_addr, expected, new_slot):
        scratch = self.scratch_addr
        yield from self.backend.cas(
            catalog.gid, scratch + _SCRATCH_ATOMIC, self.scratch_lkey,
            slot_addr, catalog.rkey, expected, new_slot,
        )
        old = int.from_bytes(self.node.memory.read(scratch + _SCRATCH_ATOMIC, 8), "big")
        return old == expected
