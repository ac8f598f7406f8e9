"""Tests for physical memory and memory regions."""

import pytest

from repro.cluster import AccessFlags, MemoryError_, PhysicalMemory


@pytest.fixture
def memory():
    return PhysicalMemory(size=1 << 16)


def test_alloc_is_aligned_and_monotonic(memory):
    first = memory.alloc(100)
    second = memory.alloc(100)
    assert first % 64 == 0
    assert second % 64 == 0
    assert second >= first + 100


def test_alloc_of_a_page_or_more_starts_on_a_page_boundary(memory):
    memory.alloc(64)  # e.g. a meta client's one-bucket scratch buffer
    page = memory.alloc(4096)
    after = memory.alloc(64)
    assert page % 4096 == 0 and after == page + 4096
    memory.write(page, b"\x01" * 4096)
    assert len(memory._pages) == 1  # one page copy, not two halves


def test_alloc_out_of_memory(memory):
    with pytest.raises(MemoryError_):
        memory.alloc((1 << 16) + 1)


def test_register_and_lookup(memory):
    region = memory.register(0, 4096)
    assert memory.region_by_rkey(region.rkey) is region
    assert memory.region_by_lkey(region.lkey) is region
    assert region.lkey != region.rkey


def test_register_out_of_bounds(memory):
    with pytest.raises(MemoryError_):
        memory.register(1 << 16, 10)
    with pytest.raises(MemoryError_):
        memory.register(0, 0)


def test_deregister_invalidates(memory):
    region = memory.register(0, 4096)
    memory.deregister(region)
    assert not region.valid
    assert memory.region_by_rkey(region.rkey) is None
    with pytest.raises(MemoryError_):
        memory.check_remote(region.rkey, 0, 8, write=False)


def test_check_remote_validates_bounds(memory):
    region = memory.register(64, 128)
    assert memory.check_remote(region.rkey, 64, 128, write=False) is region
    with pytest.raises(MemoryError_):
        memory.check_remote(region.rkey, 60, 8, write=False)
    with pytest.raises(MemoryError_):
        memory.check_remote(region.rkey, 64, 129, write=False)


def test_check_remote_validates_permissions(memory):
    region = memory.register(0, 64, access=AccessFlags.REMOTE_READ)
    memory.check_remote(region.rkey, 0, 8, write=False)
    with pytest.raises(MemoryError_):
        memory.check_remote(region.rkey, 0, 8, write=True)


def test_check_local_validates(memory):
    region = memory.register(0, 64)
    assert memory.check_local(region.lkey, 0, 64) is region
    with pytest.raises(MemoryError_):
        memory.check_local(region.lkey + 99, 0, 8)
    with pytest.raises(MemoryError_):
        memory.check_local(region.lkey, 32, 64)


def test_data_roundtrip(memory):
    memory.write(128, b"hello rdma")
    assert memory.read(128, 10) == b"hello rdma"


def test_raw_access_bounds(memory):
    with pytest.raises(MemoryError_):
        memory.read((1 << 16) - 4, 8)
    with pytest.raises(MemoryError_):
        memory.write((1 << 16) - 4, b"12345678")
