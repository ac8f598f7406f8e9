"""Computing-node side: FaRM-style OCC transactions over any backend."""

from repro.apps.txn.storage import (
    HEADER_BYTES, LOCK_BIT, RECORD_BYTES, TxnError, VALUE_BYTES, VERSION_MASK,
)


class TxnAborted(Exception):
    """The transaction lost a conflict (lock or validation failure)."""


class TxnClient:
    """Executes transactions against a set of storage-node catalogs.

    Records are addressed globally: record ``n`` lives on storage node
    ``n % len(catalogs)`` at local id ``n // len(catalogs)``.
    """

    def __init__(self, backend, catalogs):
        if not catalogs:
            raise TxnError("need at least one storage catalog")
        self.backend = backend
        self.node = backend.node
        self.catalogs = list(catalogs)
        self.scratch_addr = None
        self.scratch_lkey = None
        self.stats_aborts = 0

    def setup(self):
        """Process: connect + register scratch (the elastic-worker cost)."""
        yield from self.backend.connect([catalog.gid for catalog in self.catalogs])
        self.scratch_addr, self.scratch_lkey = yield from self.backend.setup_buffer(
            4096 + RECORD_BYTES * 64
        )

    def begin(self):
        return Transaction(self)

    def _place(self, record_id):
        catalog = self.catalogs[record_id % len(self.catalogs)]
        local_id = record_id // len(self.catalogs)
        if local_id >= catalog.num_records:
            raise TxnError(f"record {record_id} out of range")
        return catalog, local_id

    def run(self, work, max_retries=16):
        """Process: run ``work(txn)`` (a generator) with commit retries.

        Returns the committed transaction's return value.
        """
        for _attempt in range(max_retries):
            txn = self.begin()
            try:
                result = yield from work(txn)
                yield from txn.commit()
                return result
            except TxnAborted:
                continue  # conflict during execution or commit: retry
        raise TxnAborted(f"transaction kept aborting after {max_retries} attempts")


class Transaction:
    """One OCC transaction: read-set versions, buffered writes."""

    def __init__(self, client):
        self.client = client
        self._read_versions = {}  # record_id -> version observed
        self._writes = {}  # record_id -> value bytes
        self._next_scratch = 64

    # ------------------------------------------------------------- execution

    def read(self, record_id):
        """Process: read a record (returns its value bytes).

        Reads-your-writes; a locked record aborts immediately (FaRM reads
        ignore locks only with more machinery than Fig 1 needs).
        """
        if record_id in self._writes:
            return self._writes[record_id]
        catalog, local_id = self.client._place(record_id)
        scratch = self.client.scratch_addr + self._scratch_slot()
        yield from self.client.backend.read(
            catalog.gid, scratch, self.client.scratch_lkey,
            catalog.header_addr(local_id), catalog.rkey, RECORD_BYTES,
        )
        header = int.from_bytes(self.client.node.memory.read(scratch, 8), "big")
        if header & LOCK_BIT:
            self.client.stats_aborts += 1
            raise TxnAborted(f"record {record_id} is locked")
        version = header & VERSION_MASK
        previous = self._read_versions.get(record_id)
        if previous is not None and previous != version:
            self.client.stats_aborts += 1
            raise TxnAborted(f"record {record_id} changed mid-transaction")
        self._read_versions[record_id] = version
        value = self.client.node.memory.read(
            scratch + HEADER_BYTES, VALUE_BYTES
        )
        return value

    def write(self, record_id, value):
        """Buffer a write (installed at commit)."""
        catalog, _local = self.client._place(record_id)
        if len(value) > VALUE_BYTES:
            raise TxnError(f"value of {len(value)}B exceeds {VALUE_BYTES}B records")
        self._writes[record_id] = value

    def _observe_version(self, record_id):
        """Process: READ just the header; abort if locked."""
        client = self.client
        catalog, local_id = client._place(record_id)
        scratch = client.scratch_addr + 8
        yield from client.backend.read(
            catalog.gid, scratch, client.scratch_lkey,
            catalog.header_addr(local_id), catalog.rkey, HEADER_BYTES,
        )
        header = int.from_bytes(client.node.memory.read(scratch, 8), "big")
        if header & LOCK_BIT:
            raise TxnAborted(f"record {record_id} is locked")
        version = header & VERSION_MASK
        self._read_versions[record_id] = version
        return version

    def _scratch_slot(self):
        slot = self._next_scratch
        self._next_scratch += RECORD_BYTES
        if self._next_scratch > 4096 + RECORD_BYTES * 60:
            self._next_scratch = 64  # reuse (read data already consumed)
        return slot

    # ---------------------------------------------------------------- commit

    def commit(self):
        """Process: FaRM's lock -> validate -> install -> unlock."""
        client = self.client
        if not self._writes:
            return  # read-only: validation happened at read time
        atomic_scratch = client.scratch_addr
        locked = []  # (record_id, old_header)
        try:
            # 1. Lock the write set (deterministic order avoids deadlock
            #    even though CAS locks never block).
            for record_id in sorted(self._writes):
                catalog, local_id = client._place(record_id)
                expected_version = self._read_versions.get(record_id)
                if expected_version is None:
                    # Blind write: observe the current version first.
                    expected_version = yield from self._observe_version(record_id)
                old_header = expected_version
                new_header = expected_version | LOCK_BIT
                yield from client.backend.cas(
                    catalog.gid, atomic_scratch, client.scratch_lkey,
                    catalog.header_addr(local_id), catalog.rkey,
                    old_header, new_header,
                )
                seen = int.from_bytes(client.node.memory.read(atomic_scratch, 8), "big")
                if seen != old_header:
                    raise TxnAborted(f"lock on record {record_id} lost")
                locked.append((record_id, old_header))
            # 2. Validate the read set (records not in the write set).
            for record_id, version in self._read_versions.items():
                if record_id in self._writes:
                    continue
                catalog, local_id = client._place(record_id)
                yield from client.backend.read(
                    catalog.gid, atomic_scratch + 8, client.scratch_lkey,
                    catalog.header_addr(local_id), catalog.rkey, HEADER_BYTES,
                )
                header = int.from_bytes(
                    client.node.memory.read(atomic_scratch + 8, 8), "big"
                )
                if header != version:  # changed or locked by someone else
                    raise TxnAborted(f"validation failed on record {record_id}")
            # 3. Install values, then release locks with bumped versions.
            for record_id, old_header in locked:
                catalog, local_id = client._place(record_id)
                value = self._writes[record_id].ljust(VALUE_BYTES, b"\x00")
                client.node.memory.write(atomic_scratch + 16, value)
                yield from client.backend.write(
                    catalog.gid, atomic_scratch + 16, client.scratch_lkey,
                    catalog.value_addr(local_id), catalog.rkey, VALUE_BYTES,
                )
                new_version = ((old_header & VERSION_MASK) + 1) & VERSION_MASK
                client.node.memory.write(
                    atomic_scratch + 16, new_version.to_bytes(8, "big")
                )
                yield from client.backend.write(
                    catalog.gid, atomic_scratch + 16, client.scratch_lkey,
                    catalog.header_addr(local_id), catalog.rkey, HEADER_BYTES,
                )
        except TxnAborted:
            self.client.stats_aborts += 1
            # Roll back any locks we hold (values untouched before step 3).
            for record_id, old_header in locked:
                catalog, local_id = client._place(record_id)
                yield from client.backend.cas(
                    catalog.gid, atomic_scratch, client.scratch_lkey,
                    catalog.header_addr(local_id), catalog.rkey,
                    old_header | LOCK_BIT, old_header,
                )
            raise
