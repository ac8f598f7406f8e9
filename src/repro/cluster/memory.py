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

A page has one of two tiers.  A page whose writes all end within its first
half is *sparse*: it holds a bytearray only as long as its highest written
byte, and reads past that length are zeros (most pages a workload touches
take one KV slot, tag or 8-64 B READ landing).  The first write that ends
past the half promotes it to a *full* 4 KiB page, copying what it held.
So a page never costs the host more than twice its highest written byte,
and dense traffic reads and writes full pages exactly as before.
"""

_PAGE_SHIFT = 12  # 4 KiB pages: a touched 64 B slot should not cost 64 KiB
_PAGE_SIZE = 1 << _PAGE_SHIFT
_PAGE_MASK = _PAGE_SIZE - 1
#: A sparse page grows up to here; a write ending past it promotes the page,
#: so host bytes per page stay at most 2x the highest byte written.
_HALF_PAGE = _PAGE_SIZE >> 1


class MemoryError_(Exception):
    """Invalid memory access: bad key or out-of-bounds."""


class MemoryRegion:
    """A registered region: address range + lkey/rkey.  Every region
    allows local and remote read, write and atomics (``ibv_access_flags``
    all set), as every caller registers it."""

    __slots__ = ("memory", "addr", "length", "lkey", "rkey", "valid")

    def __init__(self, memory, addr, length, lkey, rkey):
        self.memory = memory
        self.addr = addr
        self.length = length
        self.lkey = lkey
        self.rkey = rkey
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
        self._pages = {}  # page index -> bytearray(_PAGE_SIZE): the full pages
        self._sparse = {}  # page index -> bytearray of its written prefix
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

    def register(self, addr, length):
        """Register ``[addr, addr+length)`` and return the MemoryRegion."""
        if addr < 0 or length <= 0 or addr + length > self.size:
            raise MemoryError_(f"cannot register [{addr}, {addr + length}) of {self.size}")
        lkey = self._next_key
        rkey = self._next_key + 1
        self._next_key += 2
        region = MemoryRegion(self, addr, length, lkey, rkey)
        self._regions_by_lkey[lkey] = region
        self._regions_by_rkey[rkey] = region
        return region

    def deregister(self, region):
        region.valid = False
        self._regions_by_lkey.pop(region.lkey, None)
        self._regions_by_rkey.pop(region.rkey, None)

    # -- checked access (what the RNIC does using its cached MR state) --------

    # The two checks run on every WR hop: the bounds test is inline, not a call.

    def check_remote(self, rkey, addr, length):
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
            offset = addr & _PAGE_MASK
            if page is not None:
                return bytes(page[offset : offset + length])
            page = self._sparse.get(first)
            if page is None:
                return bytes(length)
            data = page[offset : offset + length]
            if len(data) < length:  # past the written prefix: zeros
                data += bytes(length - len(data))
            return bytes(data)
        pages, sparse = self._pages, self._sparse
        parts = []
        cursor = addr
        remaining = length
        while remaining:
            index = cursor >> _PAGE_SHIFT
            offset = cursor & _PAGE_MASK
            chunk = min(_PAGE_SIZE - offset, remaining)
            page = pages.get(index)
            if page is None:
                page = sparse.get(index, b"")
                data = page[offset : offset + chunk]
                parts.append(bytes(data) + bytes(chunk - len(data)))
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
            offset = addr & _PAGE_MASK
            if page is None:
                end = offset + length
                sparse = self._sparse
                held = sparse.get(first)
                if end <= _HALF_PAGE:
                    if held is None:
                        held = sparse[first] = bytearray(end)
                    elif len(held) < offset:
                        held += bytes(offset - len(held))
                    held[offset:end] = payload
                    return
                page = pages[first] = bytearray(_PAGE_SIZE)
                if held is not None:  # promotion: keep what the page held
                    page[: len(held)] = held
                    del sparse[first]
            page[offset : offset + length] = payload
            return
        sparse = self._sparse
        view = memoryview(payload)
        cursor = addr
        consumed = 0
        while consumed < length:
            index = cursor >> _PAGE_SHIFT
            offset = cursor & _PAGE_MASK
            chunk = min(_PAGE_SIZE - offset, length - consumed)
            end = offset + chunk
            page = pages.get(index)
            if page is None:
                held = sparse.get(index)
                if end <= _HALF_PAGE:  # only a last chunk, which starts at 0
                    if held is None:
                        sparse[index] = bytearray(view[consumed : consumed + chunk])
                    else:
                        held[:end] = view[consumed : consumed + chunk]
                    break
                page = pages[index] = bytearray(_PAGE_SIZE)
                if held is not None:
                    page[: len(held)] = held
                    del sparse[index]
            page[offset:end] = view[consumed : consumed + chunk]
            cursor += chunk
            consumed += chunk
