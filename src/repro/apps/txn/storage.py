"""Storage-node side: a fixed table of versioned, lockable records.

Record layout (header is one CAS-able 64-bit word):

    header:  lock (bit 63) | version (bits 0..62)
    value:   ``VALUE_BYTES`` of payload

Records live in one registered region so computing nodes can READ /
WRITE / CAS them directly.
"""

LOCK_BIT = 1 << 63
VERSION_MASK = LOCK_BIT - 1

HEADER_BYTES = 8
VALUE_BYTES = 16
RECORD_BYTES = HEADER_BYTES + VALUE_BYTES


class TxnError(Exception):
    """Misuse of the transaction substrate (bad record id, oversize...)."""


class TxnCatalog:
    """Geometry a computing node needs to drive one storage node."""

    __slots__ = ("gid", "rkey", "base_addr", "num_records")

    def __init__(self, gid, rkey, base_addr, num_records):
        self.gid = gid
        self.rkey = rkey
        self.base_addr = base_addr
        self.num_records = num_records

    def header_addr(self, record_id):
        return self.base_addr + record_id * RECORD_BYTES

    def value_addr(self, record_id):
        return self.header_addr(record_id) + HEADER_BYTES


class TxnStorage:
    """A passive storage node hosting ``num_records`` fixed-size records."""

    def __init__(self, node, num_records=1024, register=True):
        self.node = node
        self.num_records = num_records
        total = num_records * RECORD_BYTES
        self.base = node.memory.alloc(total)
        self.region = node.memory.register(self.base, total) if register else None

    def catalog(self, rkey=None):
        return TxnCatalog(
            self.node.gid,
            self.region.rkey if rkey is None else rkey,
            self.base,
            self.num_records,
        )

    # -- local helpers (load phase / assertions) -------------------------------

    def load(self, record_id, value):
        """Initialize a record locally (version stays, lock cleared)."""
        catalog = self.catalog(rkey=0)
        if len(value) > VALUE_BYTES:
            raise TxnError(f"value of {len(value)}B exceeds {VALUE_BYTES}B records")
        self.node.memory.write(catalog.value_addr(record_id), value.ljust(VALUE_BYTES, b"\x00"))

    def read_local(self, record_id):
        """(version, locked, value) as stored right now."""
        catalog = self.catalog(rkey=0)
        header = int.from_bytes(self.node.memory.read(catalog.header_addr(record_id), 8), "big")
        value = self.node.memory.read(catalog.value_addr(record_id), VALUE_BYTES)
        return header & VERSION_MASK, bool(header & LOCK_BIT), value
