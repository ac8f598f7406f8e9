"""Tests for the TPC-C-lite workload over the transaction substrate."""

import struct

import pytest

from repro.apps.race import VerbsBackend
from repro.apps.txn import TxnClient, TxnStorage
from repro.cluster import Cluster
from repro.sim import Simulator
from repro.verbs import ConnectionManager, DriverContext
from repro.workloads.tpcc import (
    CUSTOMERS,
    DISTRICTS,
    INITIAL_BALANCE,
    INITIAL_STOCK,
    ITEMS,
    ORDER_SLOTS,
    TpccLayout,
    TpccWorkload,
)

_U64 = struct.Struct(">Q")


def _env(num_storage=2, warehouses=1):
    sim = Simulator()
    cluster = Cluster(sim, num_nodes=2 + num_storage, memory_size=32 << 20)
    for node in cluster.nodes:
        ConnectionManager(node, DriverContext(node, kernel=True))
    layout = TpccLayout(num_warehouses=warehouses)
    per_node = -(-layout.total_records // num_storage)
    storages = [
        TxnStorage(cluster.node(1 + i), num_records=per_node)
        for i in range(num_storage)
    ]
    client = TxnClient(VerbsBackend(cluster.node(0)), [s.catalog() for s in storages])
    return sim, cluster, storages, client, layout


def _read(storages, record_id):
    storage = storages[record_id % len(storages)]
    _, locked, value = storage.read_local(record_id // len(storages))
    assert not locked
    return _U64.unpack_from(value)[0]


def test_layout_is_disjoint():
    layout = TpccLayout(num_warehouses=2)
    ids = set()
    for w in range(2):
        ids.add(layout.warehouse(w))
        for d in range(DISTRICTS):
            ids.add(layout.district(w, d))
            for c in range(CUSTOMERS):
                ids.add(layout.customer(w, d, c))
            for slot in range(ORDER_SLOTS):
                ids.add(layout.order_slot(w, d, slot))
        for item in range(ITEMS):
            ids.add(layout.stock(w, item))
    assert len(ids) == layout.total_records
    assert max(ids) == layout.total_records - 1


def test_new_order_increments_order_ids():
    sim, cluster, storages, client, layout = _env()
    workload = TpccWorkload(client, layout, seed=5)
    workload.load(storages)

    def proc():
        yield from client.setup()
        ids = []
        for _ in range(10):
            ids.append((yield from workload.new_order()))
        return ids

    order_ids = sim.run_process(proc())
    assert len(order_ids) == 10
    # Per district, ids are strictly increasing; globally all are >= 1.
    assert all(order_id >= 1 for order_id in order_ids)
    assert workload.stats["new_order"] == 10


def test_new_order_decrements_stock():
    sim, cluster, storages, client, layout = _env()
    workload = TpccWorkload(client, layout, seed=5)
    workload.load(storages)

    def proc():
        yield from client.setup()
        for _ in range(20):
            yield from workload.new_order()

    sim.run_process(proc())
    total_stock = sum(_read(storages, layout.stock(0, i)) for i in range(ITEMS))
    assert total_stock < ITEMS * INITIAL_STOCK  # something sold


def test_payment_conserves_money():
    sim, cluster, storages, client, layout = _env()
    workload = TpccWorkload(client, layout, seed=6)
    workload.load(storages)

    def proc():
        yield from client.setup()
        for _ in range(30):
            yield from workload.payment()

    sim.run_process(proc())
    warehouse_ytd = _read(storages, layout.warehouse(0))
    district_ytd = sum(
        _read(storages, layout.district(0, d)) & 0xFFFFFFFF for d in range(DISTRICTS)
    )
    spent = sum(
        INITIAL_BALANCE - _read(storages, layout.customer(0, d, c))
        for d in range(DISTRICTS)
        for c in range(CUSTOMERS)
    )
    assert warehouse_ytd == district_ytd == spent > 0


def test_mixed_workload_runs_both_kinds():
    sim, cluster, storages, client, layout = _env()
    workload = TpccWorkload(client, layout, seed=7)
    workload.load(storages)

    def proc():
        yield from client.setup()
        kinds = []
        for _ in range(30):
            kinds.append((yield from workload.next_transaction()))
        return kinds

    kinds = sim.run_process(proc())
    assert set(kinds) == {"new_order", "payment"}
    assert workload.stats["new_order"] + workload.stats["payment"] == 30


def test_concurrent_clients_money_conserved():
    sim, cluster, storages, client_a, layout = _env(num_storage=2)
    client_b = TxnClient(VerbsBackend(cluster.node(cluster.nodes.index(cluster.nodes[0]))), client_a.catalogs)
    workload_a = TpccWorkload(client_a, layout, seed=8)
    workload_b = TpccWorkload(client_b, layout, seed=9)
    workload_a.load(storages)

    def run_client(client, workload, count):
        yield from client.setup()
        for _ in range(count):
            yield from workload.payment()

    sim.process(run_client(client_a, workload_a, 20))
    sim.process(run_client(client_b, workload_b, 20))
    sim.run()
    warehouse_ytd = _read(storages, layout.warehouse(0))
    spent = sum(
        INITIAL_BALANCE - _read(storages, layout.customer(0, d, c))
        for d in range(DISTRICTS)
        for c in range(CUSTOMERS)
    )
    assert warehouse_ytd == spent > 0


def test_transaction_latency_in_farm_band():
    # Fig 1: FaRM-v2 TPC-C transactions execute in 10-100 us.
    sim, cluster, storages, client, layout = _env()
    workload = TpccWorkload(client, layout, seed=10)
    workload.load(storages)

    def proc():
        yield from client.setup()
        start = sim.now
        count = 20
        for _ in range(count):
            yield from workload.next_transaction()
        return (sim.now - start) / count / 1000.0

    latency_us = sim.run_process(proc())
    assert 10 < latency_us < 100
