"""Tests for lazily-paged PhysicalMemory backing store.

The byte-level semantics are covered by ``test_cluster_memory.py``
(unchanged from the seed, by design); these tests pin the properties the
lazy page table adds: untouched memory costs nothing, reads of
never-written ranges are zeros, a page written only within its first half
holds just its written prefix (a sparse page) until a write past the half
promotes it to a full page, and writes spanning page boundaries and tiers
stay byte-exact against a flat reference model.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.memory import _HALF_PAGE, _PAGE_SIZE, PhysicalMemory


def _resident(memory):
    """Bytes of backing store held, full and sparse pages together."""
    return sum(len(page) for page in memory._pages.values()) + sum(
        len(page) for page in memory._sparse.values()
    )


def test_fresh_memory_has_no_resident_pages():
    memory = PhysicalMemory(size=16 << 20)
    assert _resident(memory) == 0


def test_untouched_ranges_read_as_zeros():
    memory = PhysicalMemory(size=4 << 20)
    assert memory.read(0, 64) == bytes(64)
    assert memory.read((4 << 20) - 10, 10) == bytes(10)
    # Reads do not materialize pages.
    assert _resident(memory) == 0


def test_write_materializes_only_touched_pages():
    memory = PhysicalMemory(size=16 << 20)
    memory.write(0, b"x")
    assert _resident(memory) == 1
    memory.write(5 * _PAGE_SIZE + 7, b"y" * 10)
    assert _resident(memory) == 1 + 17
    # Rewriting inside a page's held prefix allocates nothing new.
    memory.write(0, b"z")
    assert _resident(memory) == 1 + 17
    # Writing past it grows the page to the new highest byte only.
    memory.write(3, b"z" * 100)
    assert _resident(memory) == 103 + 17
    assert memory._pages == {}


def test_a_16_byte_write_holds_16_bytes():
    memory = PhysicalMemory(size=1 << 20)
    memory.write(3 * _PAGE_SIZE, b"t" * 16)
    assert _resident(memory) == 16
    assert memory.read(3 * _PAGE_SIZE, 16) == b"t" * 16


def test_a_write_past_the_half_promotes_the_page_and_keeps_its_bytes():
    memory = PhysicalMemory(size=1 << 20)
    memory.write(100, b"a" * 16)
    memory.write(_HALF_PAGE - 8, b"b" * 8)  # ends exactly at the half: stays sparse
    assert (list(memory._sparse), memory._pages) == ([0], {})
    memory.write(_HALF_PAGE, b"c")  # ends one byte past it
    assert (memory._sparse, list(memory._pages)) == ({}, [0])
    assert _resident(memory) == _PAGE_SIZE
    assert memory.read(100, 16) == b"a" * 16
    assert memory.read(_HALF_PAGE - 8, 9) == b"b" * 8 + b"c"
    assert memory.read(0, 100) == bytes(100)


def test_a_read_past_a_sparse_pages_end_returns_zeros():
    memory = PhysicalMemory(size=1 << 20)
    memory.write(64, b"k" * 8)
    assert memory.read(68, 20) == b"k" * 4 + bytes(16)
    assert memory.read(72, 8) == bytes(8)
    assert memory.read(1000, _PAGE_SIZE - 1000) == bytes(_PAGE_SIZE - 1000)
    # The same through the multi-page path.
    assert memory.read(60, _PAGE_SIZE) == bytes(4) + b"k" * 8 + bytes(_PAGE_SIZE - 12)
    assert _resident(memory) == 72


def test_a_multi_page_write_spans_a_sparse_and_a_full_page():
    memory = PhysicalMemory(size=1 << 20)
    memory.write(16, b"s" * 16)  # page 0: sparse
    memory.write(_PAGE_SIZE + 3000, b"f" * 16)  # page 1: full
    memory.write(2 * _PAGE_SIZE, b"e" * 1000)  # page 2: sparse, 1000 B
    memory.write(_PAGE_SIZE - 50, b"w" * (_PAGE_SIZE + 100))  # pages 0..2
    assert (list(memory._sparse), sorted(memory._pages)) == ([2], [0, 1])
    # Page 0 was promoted by its first chunk; page 2 only had its first
    # 50 bytes overwritten, so it still holds 1000.
    assert _resident(memory) == 2 * _PAGE_SIZE + 1000
    assert memory.read(16, 16) == b"s" * 16
    assert memory.read(_PAGE_SIZE - 50, _PAGE_SIZE + 100) == b"w" * (_PAGE_SIZE + 100)
    assert memory.read(2 * _PAGE_SIZE + 50, 951) == b"e" * 950 + bytes(1)


def test_page_straddling_write_reads_back_exactly():
    memory = PhysicalMemory(size=4 * _PAGE_SIZE)
    payload = bytes(range(256)) * 4  # 1 KiB, non-trivial pattern
    addr = _PAGE_SIZE - 100  # straddles the first page boundary
    memory.write(addr, payload)
    assert memory.read(addr, len(payload)) == payload
    # The zero gap before the write is preserved.
    assert memory.read(addr - 50, 50) == bytes(50)


def test_multi_page_spanning_write():
    memory = PhysicalMemory(size=8 * _PAGE_SIZE)
    payload = b"\xab" * (2 * _PAGE_SIZE + 123)
    memory.write(_PAGE_SIZE - 1, payload)
    assert memory.read(_PAGE_SIZE - 1, len(payload)) == payload
    # Pages 0..2 full; page 3 holds the 122 bytes the write left in it.
    assert sorted(memory._pages) == [0, 1, 2]
    assert _resident(memory) == 3 * _PAGE_SIZE + 122


@settings(max_examples=150, deadline=None)
@given(
    writes=st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=3 * _PAGE_SIZE),
            st.one_of(st.binary(min_size=0, max_size=300), st.binary(max_size=2 * _PAGE_SIZE)),
        ),
        max_size=10,
    ),
    read_addr=st.integers(min_value=0, max_value=3 * _PAGE_SIZE),
    read_len=st.integers(min_value=0, max_value=2 * _PAGE_SIZE),
)
def test_lazy_memory_matches_flat_bytearray(writes, read_addr, read_len):
    """Byte-exact against a flat model, and each page in the tier its
    writes put it in: sparse holding exactly its highest written byte while
    every write to it ended within the half, else full."""
    size = 5 * _PAGE_SIZE + 1024
    memory = PhysicalMemory(size=size)
    flat = bytearray(size)
    highest = {}  # page index -> highest end of a write within the page
    for addr, payload in writes:
        memory.write(addr, payload)
        flat[addr : addr + len(payload)] = payload
        for byte in (addr, addr + len(payload) - 1) if payload else ():
            index = byte // _PAGE_SIZE
            end = min(addr + len(payload), (index + 1) * _PAGE_SIZE) - index * _PAGE_SIZE
            highest[index] = max(highest.get(index, 0), end)
        for index in range(addr // _PAGE_SIZE + 1, (addr + len(payload)) // _PAGE_SIZE):
            highest[index] = _PAGE_SIZE  # a page the write crossed whole
    assert memory.read(read_addr, read_len) == bytes(flat[read_addr : read_addr + read_len])
    assert {index: len(page) for index, page in memory._sparse.items()} == {
        index: end for index, end in highest.items() if end <= _HALF_PAGE
    }
    assert sorted(memory._pages) == sorted(
        index for index, end in highest.items() if end > _HALF_PAGE
    )


# ---------------------------------------------------------------------------
# Freshly allocated memory is zeroed: empty tables cost no page
# ---------------------------------------------------------------------------


def test_alloc_never_hands_an_address_out_twice_so_it_reads_as_zeros():
    memory = PhysicalMemory(size=1 << 20)
    first = memory.alloc(1000)
    memory.write(first, b"\xff" * 1000)
    second = memory.alloc(5000)
    assert second >= first + 1000
    assert memory.read(second, 5000) == bytes(5000)


def test_empty_tables_materialize_no_page_and_lookups_miss():
    """The table builders do not zero-fill what ``alloc`` returns (a
    4096-bucket meta table would write 64 pages of zeros per ``MetaServer``)."""
    from repro.apps.race import RaceStorage
    from repro.apps.txn.storage import VALUE_BYTES, TxnStorage
    from repro.cluster import Cluster
    from repro.krcore import MetaServer
    from repro.kvs import DrtmKvServer
    from repro.sim import Simulator

    nodes = Cluster(Simulator(), num_nodes=4, memory_size=64 << 20).nodes
    kv = DrtmKvServer(nodes[0], bucket_count=4096)
    assert kv.get_local(b"dct:node7") is None and kv.delete(b"dct:node7") is False
    race = RaceStorage(nodes[1], num_buckets=4096)
    assert race.get_local(b"missing") is None
    txn = TxnStorage(nodes[2], num_records=1024)
    assert txn.read_local(1023) == (0, False, bytes(VALUE_BYTES))
    meta = MetaServer(nodes[3])
    assert meta.store.get_local(b"dct:node7") is None
    assert [_resident(node.memory) for node in nodes] == [0, 0, 0, 0]
