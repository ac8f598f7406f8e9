"""The computing-node side of RACE: one-sided GET/PUT over any backend."""

from repro.apps.race.hashing import (
    BUCKET_BYTES,
    PROBE_WINDOW,
    RaceError,
    SLOT_BYTES,
    block_bytes,
    fingerprint,
    pack_block,
    pack_slot,
    scan_bucket,
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

    # ------------------------------------------------------------------ scan

    def _find(self, catalog, fp12, key, home):
        """Process: scan ``key``'s whole probe window -- a delete leaves
        holes, so no empty slot ends a chain.  Returns ``(slot_addr, word,
        value)`` of the slot holding ``key``, else ``(None, first empty
        slot or None, None)``."""
        backend = self.backend
        memory = self.node.memory
        lkey = self.scratch_lkey
        bucket_scratch = self.scratch_addr + _SCRATCH_BUCKET
        block_scratch = self.scratch_addr + _SCRATCH_BLOCK
        empty_at = None
        for probe in range(PROBE_WINDOW):
            bucket_addr = catalog.bucket_addr(home + probe)
            yield from backend.read(
                catalog.gid, bucket_scratch, lkey, bucket_addr, catalog.rkey, BUCKET_BYTES
            )
            matches, empty = scan_bucket(memory.read(bucket_scratch, BUCKET_BYTES), fp12)
            for index, word in matches:
                _, klen, vlen, offset = unpack_slot(word)
                length = 2 + klen + vlen
                yield from backend.read(
                    catalog.gid, block_scratch, lkey,
                    catalog.heap_base + offset, catalog.rkey, length,
                )
                stored_key, value = unpack_block(memory.read(block_scratch, length), klen, vlen)
                if stored_key == key:
                    return bucket_addr + index * SLOT_BYTES, word, value
            if empty_at is None and empty is not None:
                empty_at = bucket_addr + empty * SLOT_BYTES
        return None, empty_at, None

    # ------------------------------------------------------------------- GET

    def get(self, key):
        """Process: fetch ``key``'s value (bytes) or None."""
        fp12, spread = fingerprint(key)
        catalog = self._catalog_for(spread)
        found = yield from self._find(catalog, fp12, key, spread % catalog.num_buckets)
        return found[2]

    def get_batch(self, keys):
        """Process: doorbell-batched GETs -- one READ round for all the
        home buckets, then one for each key's first candidate block (the
        RDMA-aware optimization that gives KRCORE its Fig 16 edge over
        LITE).  A key the two rounds leave unresolved -- a miss, a key
        past its home bucket, a fingerprint twin -- goes through the scan."""
        if len(keys) > self.max_batch:
            raise RaceError(f"batch of {len(keys)} exceeds max_batch={self.max_batch}")
        plans = []
        requests = []
        for index, key in enumerate(keys):
            fp12, spread = fingerprint(key)
            catalog = self._catalog_for(spread)
            home = spread % catalog.num_buckets
            slice_addr = self._batch_base + index * _BATCH_SLICE
            plans.append((key, fp12, catalog, home, slice_addr))
            requests.append((catalog.gid, slice_addr, self.scratch_lkey,
                             catalog.bucket_addr(home), catalog.rkey, BUCKET_BYTES))
        # Round 1: every home bucket.
        yield from self._read_batch(requests)
        # Round 2: each key's first fingerprint match.
        requests = []
        candidates = []
        for key, fp12, catalog, home, slice_addr in plans:
            matches, _ = scan_bucket(self.node.memory.read(slice_addr, BUCKET_BYTES), fp12)
            if not matches:
                continue
            _, klen, vlen, offset = unpack_slot(matches[0][1])
            block_addr = slice_addr + BUCKET_BYTES
            requests.append((catalog.gid, block_addr, self.scratch_lkey,
                             catalog.heap_base + offset, catalog.rkey, 2 + klen + vlen))
            candidates.append((key, block_addr, klen, vlen))
        if requests:
            yield from self._read_batch(requests)
        results = {}
        for key, block_addr, klen, vlen in candidates:
            block = self.node.memory.read(block_addr, 2 + klen + vlen)
            stored_key, stored_value = unpack_block(block, klen, vlen)
            if stored_key == key:
                results[key] = stored_value
        for key, fp12, catalog, home, _ in plans:
            if key not in results:
                found = yield from self._find(catalog, fp12, key, home)
                results[key] = found[2]
        return results

    def _read_batch(self, requests):
        _bytes_ok, failed = yield from self.backend.read_batch(requests)
        if failed:
            raise RaceError(f"{failed} of {len(requests)} batched READs failed")

    # ------------------------------------------------------------------- PUT

    def put(self, key, value):
        """Process: insert/update via remote alloc + WRITE + slot CAS into
        the key's own slot, else the first hole of its window."""
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
        # 3. Install the slot with CAS; a lost CAS re-scans.
        home = spread % catalog.num_buckets
        for _ in range(_MAX_RETRIES):
            slot_addr, word, _ = yield from self._find(catalog, fp12, key, home)
            if slot_addr is None:
                if word is None:
                    raise RaceError(f"no free slot within {PROBE_WINDOW} buckets")
                slot_addr, word = word, 0
            won = yield from self._cas_slot(catalog, slot_addr, word, new_slot)
            if won:
                return
        raise RaceError(f"slot CAS kept failing for {key!r}")

    # ---------------------------------------------------------------- DELETE

    def delete(self, key):
        """Process: remove ``key`` by CAS-ing its slot to zero; a lost CAS
        re-scans.  Returns True if the key was present."""
        fp12, spread = fingerprint(key)
        catalog = self._catalog_for(spread)
        home = spread % catalog.num_buckets
        for _ in range(_MAX_RETRIES):
            slot_addr, word, _ = yield from self._find(catalog, fp12, key, home)
            if slot_addr is None:
                return False
            won = yield from self._cas_slot(catalog, slot_addr, word, 0)
            if won:
                return True
        raise RaceError(f"delete kept losing CAS races for {key!r}")

    def _cas_slot(self, catalog, slot_addr, expected, new_slot):
        scratch = self.scratch_addr
        yield from self.backend.cas(
            catalog.gid, scratch + _SCRATCH_ATOMIC, self.scratch_lkey,
            slot_addr, catalog.rkey, expected, new_slot,
        )
        old = int.from_bytes(self.node.memory.read(scratch + _SCRATCH_ATOMIC, 8), "big")
        return old == expected
