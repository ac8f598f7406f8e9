"""``make heap`` (benchmarks/heap.py) names who makes the host allocate
simulated DRAM: the caller of ``PhysicalMemory.write`` whose write created,
grew or promoted a page, with the bytes that page holds live."""

import importlib.util
import pathlib
import tracemalloc

from repro.cluster.memory import _PAGE_SIZE, PhysicalMemory

ROOT = pathlib.Path(__file__).resolve().parent.parent


def _heap_tool():
    module_spec = importlib.util.spec_from_file_location("heap", ROOT / "benchmarks" / "heap.py")
    heap = importlib.util.module_from_spec(module_spec)
    module_spec.loader.exec_module(heap)
    return heap


def _write_tag(memory, index):
    memory.write(index * _PAGE_SIZE, b"t" * 16)  # 16 B: a sparse page


def _write_page(memory, index):
    memory.write(index * _PAGE_SIZE, b"p" * _PAGE_SIZE)  # a full page


def test_dram_writers_names_the_caller_of_each_page_write():
    heap = _heap_tool()
    memory = PhysicalMemory(size=1 << 20)
    tracemalloc.start(heap.FRAMES)
    try:
        for index in range(3):
            _write_tag(memory, index)
        _write_page(memory, 8)
        memory.read(0, 16)  # a read allocates no DRAM
        snapshot = tracemalloc.take_snapshot()
    finally:
        tracemalloc.stop()
    writers = {site: (size, blocks) for size, blocks, site in heap.dram_writers(snapshot)}
    tag, page = (
        f"tests/test_heap_tool.py:{writer.__code__.co_firstlineno + 1}"
        for writer in (_write_tag, _write_page)
    )
    assert set(writers) == {tag, page}
    # A page is its bytearray and its buffer (the first write into a page
    # table may grow the dict too): 16 B of data apiece for the three tags,
    # where three full pages would be 12 KiB; a whole page for the full one.
    assert writers[tag][1] >= 6 and 48 < writers[tag][0] < 1024
    assert writers[page][1] >= 2 and _PAGE_SIZE < writers[page][0] < 2 * _PAGE_SIZE
