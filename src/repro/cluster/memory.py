"""Per-node physical memory and RDMA memory regions.

Memory content is real (backed by ``bytearray`` pages): one-sided
READ/WRITE move actual bytes so the KVS, zero-copy protocol, and
applications can be tested for byte-exact behaviour, not just timing.

Backing pages are allocated lazily on first touch.  A simulated cluster
creates hundreds of multi-megabyte address spaces per figure and most of
each is never written, so eager ``bytearray(size)`` zero-fill used to
dominate cluster construction (~4s across 180 nodes in fig10 setup
alone).  Never-written addresses still read as zeros, exactly like the
eager bytearray did.
"""

_PAGE_SHIFT = 12  # 4 KiB pages: a touched 64 B slot should not cost 64 KiB
_PAGE_SIZE = 1 << _PAGE_SHIFT
_PAGE_MASK = _PAGE_SIZE - 1


class MemoryError_(Exception):
    """Invalid memory access: bad key, out-of-bounds, or missing permission."""


class AccessFlags:
    """RDMA access permission bits (subset of ibv_access_flags)."""

    LOCAL_WRITE = 1
    REMOTE_READ = 2
    REMOTE_WRITE = 4
    REMOTE_ATOMIC = 8

    ALL = LOCAL_WRITE | REMOTE_READ | REMOTE_WRITE | REMOTE_ATOMIC


class MemoryRegion:
    """A registered region: address range + lkey/rkey + permissions."""

    __slots__ = ("memory", "addr", "length", "lkey", "rkey", "access", "valid")

    def __init__(self, memory, addr, length, lkey, rkey, access):
        self.memory = memory
        self.addr = addr
        self.length = length
        self.lkey = lkey
        self.rkey = rkey
        self.access = access
        self.valid = True

    def __repr__(self):
        return (
            f"MemoryRegion(addr={self.addr:#x}, length={self.length}, "
            f"lkey={self.lkey}, rkey={self.rkey})"
        )


class PhysicalMemory:
    """A node's DRAM plus its table of registered regions."""

    def __init__(self, size=16 << 20):
        self.size = size
        self._pages = {}  # page index -> bytearray(_PAGE_SIZE), on first touch
        self._next_key = 1
        self._regions_by_lkey = {}
        self._regions_by_rkey = {}
        self._alloc_cursor = 0

    # -- allocation (bump allocator; regions are long-lived in our workloads)

    def alloc(self, nbytes):
        """Reserve ``nbytes`` and return its start address.  It reads as
        zeros -- no address is handed out twice, untouched pages are zero --
        so clear nothing: a zero-fill write materializes every page.

        A buffer of a page or more starts on a page boundary, as an RDMA
        buffer from ``posix_memalign`` does, so small allocations before it
        (a meta client's one-bucket scratch) do not split each of its pages
        across two: a page-sized write stays one page copy."""
        align = _PAGE_SIZE if nbytes >= _PAGE_SIZE else 64
        start = -(-self._alloc_cursor // align) * align
        if start + nbytes > self.size:
            raise MemoryError_(
                f"out of simulated memory: need {nbytes} at {start}, size {self.size}"
            )
        self._alloc_cursor = start + nbytes
        return start

    # -- registration ---------------------------------------------------------

    def register(self, addr, length, access=AccessFlags.ALL):
        """Register ``[addr, addr+length)`` and return the MemoryRegion."""
        if addr < 0 or length <= 0 or addr + length > self.size:
            raise MemoryError_(f"cannot register [{addr}, {addr + length}) of {self.size}")
        lkey = self._next_key
        rkey = self._next_key + 1
        self._next_key += 2
        region = MemoryRegion(self, addr, length, lkey, rkey, access)
        self._regions_by_lkey[lkey] = region
        self._regions_by_rkey[rkey] = region
        return region

    def deregister(self, region):
        region.valid = False
        self._regions_by_lkey.pop(region.lkey, None)
        self._regions_by_rkey.pop(region.rkey, None)

    # -- checked access (what the RNIC does using its cached MR state) --------

    # The two checks run on every WR hop: the bounds test is inline, not a call.

    def check_remote(self, rkey, addr, length, write):
        """Validate a remote access; raise MemoryError_ on any violation."""
        region = self._regions_by_rkey.get(rkey)
        if region is None or not region.valid:
            raise MemoryError_(f"unknown rkey {rkey}")
        base = region.addr
        if addr < base or addr + length > base + region.length:
            raise MemoryError_(
                f"access [{addr}, {addr + length}) outside region "
                f"[{region.addr}, {region.addr + region.length})"
            )
        needed = AccessFlags.REMOTE_WRITE if write else AccessFlags.REMOTE_READ
        if not region.access & needed:
            raise MemoryError_(f"rkey {rkey} lacks {'write' if write else 'read'} permission")
        return region

    def check_local(self, lkey, addr, length):
        """Validate a local SGE; raise MemoryError_ on any violation."""
        region = self._regions_by_lkey.get(lkey)
        if region is None or not region.valid:
            raise MemoryError_(f"unknown lkey {lkey}")
        base = region.addr
        if addr < base or addr + length > base + region.length:
            raise MemoryError_(
                f"sge [{addr}, {addr + length}) outside region "
                f"[{region.addr}, {region.addr + region.length})"
            )
        return region

    # -- raw data movement -----------------------------------------------------

    def read(self, addr, length):
        if addr < 0 or addr + length > self.size:
            raise MemoryError_(f"raw read [{addr}, {addr + length}) out of bounds")
        if length <= 0:
            return b""
        first = addr >> _PAGE_SHIFT
        last = (addr + length - 1) >> _PAGE_SHIFT
        if first == last:
            page = self._pages.get(first)
            if page is None:
                return bytes(length)
            offset = addr & _PAGE_MASK
            return bytes(page[offset : offset + length])
        parts = []
        cursor = addr
        remaining = length
        while remaining:
            offset = cursor & _PAGE_MASK
            chunk = min(_PAGE_SIZE - offset, remaining)
            page = self._pages.get(cursor >> _PAGE_SHIFT)
            if page is None:
                parts.append(b"\x00" * chunk)
            else:
                parts.append(bytes(page[offset : offset + chunk]))
            cursor += chunk
            remaining -= chunk
        return b"".join(parts)

    def write(self, addr, payload):
        length = len(payload)
        if addr < 0 or addr + length > self.size:
            raise MemoryError_(f"raw write [{addr}, {addr + length}) out of bounds")
        if length == 0:
            return
        pages = self._pages
        first = addr >> _PAGE_SHIFT
        last = (addr + length - 1) >> _PAGE_SHIFT
        if first == last:
            page = pages.get(first)
            if page is None:
                page = pages[first] = bytearray(_PAGE_SIZE)
            offset = addr & _PAGE_MASK
            page[offset : offset + length] = payload
            return
        view = memoryview(payload)
        cursor = addr
        consumed = 0
        while consumed < length:
            index = cursor >> _PAGE_SHIFT
            offset = cursor & _PAGE_MASK
            chunk = min(_PAGE_SIZE - offset, length - consumed)
            page = pages.get(index)
            if page is None:
                page = pages[index] = bytearray(_PAGE_SIZE)
            page[offset : offset + chunk] = view[consumed : consumed + chunk]
            cursor += chunk
            consumed += chunk
