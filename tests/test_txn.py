"""Tests for the FaRM-style OCC transaction substrate."""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.apps.race import KrcoreBackend, VerbsBackend
from repro.apps.txn import Transaction, TxnAborted, TxnClient, TxnError, TxnStorage
from repro.apps.txn.storage import LOCK_BIT, RECORD_BYTES
from repro.cluster import Cluster
from repro.sim import Simulator, US
from repro.verbs import ConnectionManager, DriverContext
from tests.conftest import krcore_cluster


def _verbs_env(num_storage=2):
    sim = Simulator()
    cluster = Cluster(sim, num_nodes=2 + num_storage, memory_size=32 << 20)
    for node in cluster.nodes:
        ConnectionManager(node, DriverContext(node, kernel=True))
    storages = [
        TxnStorage(cluster.node(1 + i), num_records=256) for i in range(num_storage)
    ]
    catalogs = [s.catalog() for s in storages]
    client = TxnClient(VerbsBackend(cluster.node(0)), catalogs)
    return sim, cluster, storages, client


def _krcore_env():
    sim = Simulator()
    cluster, meta, modules = krcore_cluster(sim, num_nodes=4)
    storage = TxnStorage(cluster.node(2), num_records=256, register=False)
    total = storage.num_records * RECORD_BYTES

    def reg():
        region = yield from modules[2].reg_mr(storage.base, total)
        return region

    region = sim.run_process(reg())
    storage.region = region
    client = TxnClient(KrcoreBackend(cluster.node(1)), [storage.catalog()])
    return sim, cluster, [storage], client


def test_read_write_commit_roundtrip():
    sim, cluster, storages, client = _verbs_env()
    storages[0].load(0, b"initial")

    def proc():
        yield from client.setup()
        txn = client.begin()
        value = yield from txn.read(0)
        assert value.rstrip(b"\x00") == b"initial"
        txn.write(0, b"updated")
        yield from txn.commit()
        txn2 = client.begin()
        return (yield from txn2.read(0))

    value = sim.run_process(proc())
    assert value.rstrip(b"\x00") == b"updated"
    version, locked, _ = storages[0].read_local(0)
    assert version == 1 and not locked


def test_krcore_backend_commits_too():
    sim, cluster, storages, client = _krcore_env()
    storages[0].load(3, b"krc")

    def proc():
        yield from client.setup()

        def work(txn):
            value = yield from txn.read(3)
            txn.write(3, value.rstrip(b"\x00") + b"+txn")
            return True

        return (yield from client.run(work))

    assert sim.run_process(proc())
    assert storages[0].read_local(3)[2].rstrip(b"\x00") == b"krc+txn"


def test_read_your_writes():
    sim, cluster, storages, client = _verbs_env()

    def proc():
        yield from client.setup()
        txn = client.begin()
        txn.write(5, b"buffered")
        value = yield from txn.read(5)
        return value

    assert sim.run_process(proc()) == b"buffered"


def test_commit_bumps_version_once_per_txn():
    sim, cluster, storages, client = _verbs_env(num_storage=1)

    def proc():
        yield from client.setup()
        for round_index in range(3):
            txn = client.begin()
            yield from txn.read(7)
            txn.write(7, b"round%d" % round_index)
            yield from txn.commit()

    sim.run_process(proc())
    version, locked, value = storages[0].read_local(7)
    assert version == 3
    assert not locked
    assert value.rstrip(b"\x00") == b"round2"


def test_validation_failure_aborts_and_releases_locks():
    sim, cluster, storages, client_a = _verbs_env()
    client_b = TxnClient(VerbsBackend(cluster.node(cluster.nodes.index(cluster.nodes[-1]))), client_a.catalogs)

    def proc():
        yield from client_a.setup()
        yield from client_b.setup()
        txn_a = client_a.begin()
        yield from txn_a.read(0)  # read-set entry
        txn_a.write(1, b"a-writes")
        # B commits a change to record 0 between A's read and commit.
        txn_b = client_b.begin()
        yield from txn_b.read(0)
        txn_b.write(0, b"b-wins")
        yield from txn_b.commit()
        with pytest.raises(TxnAborted):
            yield from txn_a.commit()

    sim.run_process(proc())
    # A's aborted commit released its lock on record 1.
    catalog = client_a.catalogs[1 % len(client_a.catalogs)]
    storage = storages[1 % len(storages)]
    _, locked, _ = storage.read_local(1 // len(storages))
    assert not locked
    assert client_a.stats_aborts >= 1


def test_reading_locked_record_aborts():
    sim, cluster, storages, client = _verbs_env(num_storage=1)
    # Simulate a crashed/slow peer holding a lock.
    header_addr = storages[0].catalog(rkey=0).header_addr(9)
    storages[0].node.memory.write(header_addr, (LOCK_BIT | 4).to_bytes(8, "big"))

    def proc():
        yield from client.setup()
        txn = client.begin()
        with pytest.raises(TxnAborted):
            yield from txn.read(9)

    sim.run_process(proc())


def test_run_retries_until_commit():
    sim, cluster, storages, client_a = _verbs_env(num_storage=1)
    client_b = TxnClient(VerbsBackend(cluster.node(2)), client_a.catalogs)
    done = []

    def contender(client, amount, count):
        yield from client.setup()
        for _ in range(count):

            def work(txn):
                raw = yield from txn.read(11)
                balance = int.from_bytes(raw[:8], "big")
                txn.write(11, (balance + amount).to_bytes(8, "big"))
                return True

            yield from client.run(work)
        done.append(client)

    sim.process(contender(client_a, 1, 25))
    sim.process(contender(client_b, 1, 25))
    sim.run()
    assert len(done) == 2
    _, _, value = storages[0].read_local(11)
    assert int.from_bytes(value[:8], "big") == 50  # no lost updates


def test_bank_transfer_invariant_under_contention():
    # The classic OCC test: concurrent transfers never create or destroy
    # money across records spread over two storage nodes.
    sim, cluster, storages, client_a = _verbs_env(num_storage=2)
    client_b = TxnClient(VerbsBackend(cluster.node(cluster.nodes[-1].gid == "node3" and 3 or 0)), client_a.catalogs)
    accounts = list(range(8))
    initial = 1000

    def setup_balances():
        yield from client_a.setup()
        yield from client_b.setup()
        for account in accounts:

            def work(txn, account=account):
                txn.write(account, initial.to_bytes(8, "big"))
                return True
                yield  # pragma: no cover

            yield from client_a.run(work)

    sim.run_process(setup_balances())

    import random

    def transferrer(client, seed, count):
        rng = random.Random(seed)
        for _ in range(count):
            src, dst = rng.sample(accounts, 2)
            amount = rng.randint(1, 50)

            def work(txn, src=src, dst=dst, amount=amount):
                src_raw = yield from txn.read(src)
                dst_raw = yield from txn.read(dst)
                src_balance = int.from_bytes(src_raw[:8], "big")
                dst_balance = int.from_bytes(dst_raw[:8], "big")
                if src_balance < amount:
                    return False
                txn.write(src, (src_balance - amount).to_bytes(8, "big"))
                txn.write(dst, (dst_balance + amount).to_bytes(8, "big"))
                return True

            yield from client.run(work, max_retries=64)

    sim.process(transferrer(client_a, 1, 30))
    sim.process(transferrer(client_b, 2, 30))
    sim.run()
    total = 0
    for account in accounts:
        storage = storages[account % 2]
        _, locked, value = storage.read_local(account // 2)
        assert not locked
        total += int.from_bytes(value[:8], "big")
    assert total == initial * len(accounts)


def test_record_bounds_checked():
    sim, cluster, storages, client = _verbs_env(num_storage=1)

    def proc():
        yield from client.setup()
        txn = client.begin()
        with pytest.raises(TxnError):
            yield from txn.read(10_000)
        with pytest.raises(TxnError):
            txn.write(0, b"x" * 1000)

    sim.run_process(proc())


def test_transaction_latency_is_microseconds():
    # Fig 1's point: the execution is tens of microseconds...
    sim, cluster, storages, client = _verbs_env()
    storages[0].load(0, (0).to_bytes(8, "big"))

    def proc():
        yield from client.setup()
        txn = client.begin()
        start = sim.now
        yield from txn.read(0)
        yield from txn.read(1)
        txn.write(0, b"x")
        yield from txn.commit()
        return sim.now - start

    latency = sim.run_process(proc())
    assert latency < 40 * US  # ...while the connection setup is 15.7 ms.
