"""Tests for lazily-paged PhysicalMemory backing store.

The byte-level semantics are covered by ``test_cluster_memory.py``
(unchanged from the seed, by design); these tests pin the properties the
lazy page table adds: untouched memory costs nothing, reads of
never-written ranges are zeros, and writes spanning page boundaries stay
byte-exact against a flat reference model.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.memory import _PAGE_SIZE, PhysicalMemory


def test_fresh_memory_has_no_resident_pages():
    memory = PhysicalMemory(size=16 << 20)
    assert memory.resident_bytes == 0


def test_untouched_ranges_read_as_zeros():
    memory = PhysicalMemory(size=4 << 20)
    assert memory.read(0, 64) == bytes(64)
    assert memory.read((4 << 20) - 10, 10) == bytes(10)
    # Reads do not materialize pages.
    assert memory.resident_bytes == 0


def test_write_materializes_only_touched_pages():
    memory = PhysicalMemory(size=16 << 20)
    memory.write(0, b"x")
    assert memory.resident_bytes == _PAGE_SIZE
    memory.write(5 * _PAGE_SIZE + 7, b"y" * 10)
    assert memory.resident_bytes == 2 * _PAGE_SIZE
    # Rewriting a resident page allocates nothing new.
    memory.write(3, b"z" * 100)
    assert memory.resident_bytes == 2 * _PAGE_SIZE


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
    assert memory.resident_bytes == 4 * _PAGE_SIZE  # pages 0..3 touched


@settings(max_examples=100, deadline=None)
@given(
    writes=st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=3 * _PAGE_SIZE),
            st.binary(min_size=0, max_size=300),
        ),
        max_size=10,
    ),
    read_addr=st.integers(min_value=0, max_value=3 * _PAGE_SIZE),
    read_len=st.integers(min_value=0, max_value=600),
)
def test_lazy_memory_matches_flat_bytearray(writes, read_addr, read_len):
    size = 3 * _PAGE_SIZE + 1024
    memory = PhysicalMemory(size=size)
    flat = bytearray(size)
    for addr, payload in writes:
        memory.write(addr, payload)
        flat[addr : addr + len(payload)] = payload
    assert memory.read(read_addr, read_len) == bytes(flat[read_addr : read_addr + read_len])


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
    """The four table builders used to zero-fill what ``alloc`` returned (a
    4096-bucket meta table wrote 64 pages of zeros per ``MetaServer``)."""
    from repro.apps.race import RaceStorage
    from repro.apps.race.extendible import DIR_ENTRIES, META_BYTES, ExtendibleRaceStorage
    from repro.apps.txn.storage import TxnStorage
    from repro.cluster import Cluster
    from repro.krcore import MetaServer
    from repro.kvs import DrtmKvServer
    from repro.sim import Simulator

    nodes = Cluster(Simulator(), num_nodes=5, memory_size=64 << 20).nodes
    kv = DrtmKvServer(nodes[0], bucket_count=4096)
    assert kv.get_local(b"dct:node7") is None and kv.delete(b"dct:node7") is False
    race = RaceStorage(nodes[1], num_buckets=4096)
    assert race.get_local(b"missing") is None
    txn = TxnStorage(nodes[2], num_records=1024)
    assert txn.read_local(1023) == (0, False, bytes(64))
    meta = MetaServer(nodes[3])
    assert meta.store.get_local(b"dct:node7") is None
    assert [node.memory.resident_bytes for node in nodes[:4]] == [0, 0, 0, 0]

    # The extendible table writes its subtable count and directory, and
    # nothing of the subtables behind them.
    ExtendibleRaceStorage(nodes[4])
    directory_pages = -(-(META_BYTES + DIR_ENTRIES * 8) // _PAGE_SIZE)
    assert nodes[4].memory.resident_bytes == directory_pages * _PAGE_SIZE
