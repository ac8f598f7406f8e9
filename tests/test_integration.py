"""Kitchen-sink integration: every subsystem sharing one cluster.

One simulated cluster runs, concurrently:

* a RACE worker doing GET/PUT over a KRCORE backend,
* a FaRM-style transaction client over a verbs backend,
* a two-sided echo pair over VQPs,
* a LITE client doing remote reads,

and everything must complete with byte-exact results -- the subsystems
must not corrupt each other's state (shared fabric, shared meta server,
shared connection managers).
"""

import pytest

from repro.apps.race import KrcoreBackend, RaceClient, RaceStorage, VerbsBackend
from repro.apps.race.backends import register_storage
from repro.apps.txn import TxnClient, TxnStorage
from repro.krcore import KrcoreLib
from repro.lite import LiteModule
from repro.sim import Simulator
from repro.verbs import RecvBuffer, WorkRequest
from tests.conftest import krcore_cluster


def test_all_subsystems_share_one_cluster():
    sim = Simulator()
    cluster, meta, modules = krcore_cluster(sim, num_nodes=8)
    lite_modules = {i: LiteModule(cluster.node(i)) for i in (5, 6)}
    done = {}

    # --- RACE over KRCORE: storage on node 2, worker on node 1 ---
    race_storage = RaceStorage(cluster.node(2), heap_bytes=1 << 19, register=False)
    race_region = sim.run_process(
        register_storage(race_storage, krcore_module=modules[2])
    )
    race_client = RaceClient(
        KrcoreBackend(cluster.node(1)), [race_storage.catalog(rkey=race_region.rkey)]
    )

    def race_worker():
        yield from race_client.setup()
        for i in range(40):
            yield from race_client.put(b"race%03d" % i, b"value%03d" % i)
        for i in range(40):
            value = yield from race_client.get(b"race%03d" % i)
            assert value == b"value%03d" % i
        done["race"] = True

    # --- transactions over verbs: storage on node 3, client on node 4 ---
    txn_storage = TxnStorage(cluster.node(3), num_records=64)
    txn_client = TxnClient(VerbsBackend(cluster.node(4)), [txn_storage.catalog()])

    def txn_worker():
        yield from txn_client.setup()
        for round_index in range(15):

            def work(txn, round_index=round_index):
                raw = yield from txn.read(7)
                counter = int.from_bytes(raw[:8], "big")
                txn.write(7, (counter + 1).to_bytes(8, "big"))
                return counter

            yield from txn_client.run(work)
        done["txn"] = True

    # --- two-sided echo over VQPs: server node 2, client node 4 ---
    echo_server_lib = KrcoreLib(cluster.node(2), cpu_id=1)
    echo_client_lib = KrcoreLib(cluster.node(4), cpu_id=1)

    def echo_server():
        vqp = yield from echo_server_lib.create_vqp()
        yield from echo_server_lib.qbind(vqp, 21)
        addr = cluster.node(2).memory.alloc(4096)
        region = yield from echo_server_lib.reg_mr(addr, 4096)
        bufs = {
            i: RecvBuffer(addr + i * 256, 256, region.lkey, wr_id=i) for i in range(8)
        }
        for buf in bufs.values():
            vqp.post_recv(buf)
        served = 0
        replies = []
        while served < 25:
            results = yield from echo_server_lib.post_and_qpop(vqp, replies)
            replies = []
            for src_vqp, completion in results:
                buf = bufs[completion.wr_id]
                replies.append(
                    (src_vqp, [WorkRequest.send(buf.addr, completion.byte_len, buf.lkey)])
                )
                vqp.post_recv(buf)
                served += 1
        for src_vqp, wrs in replies:
            yield from echo_server_lib.post_send(src_vqp, wrs)
        done["echo_server"] = served

    def echo_client():
        addr = cluster.node(4).memory.alloc(4096)
        region = yield from echo_client_lib.reg_mr(addr, 4096)
        vqp = yield from echo_client_lib.create_vqp()
        yield from echo_client_lib.qconnect(vqp, cluster.node(2).gid, 21)
        for i in range(25):
            payload = b"echo-%02d" % i
            cluster.node(4).memory.write(addr, payload)
            vqp.post_recv(RecvBuffer(addr + 2048, 256, region.lkey))
            completion = yield from echo_client_lib.send_and_recv(
                vqp, WorkRequest.send(addr, len(payload), region.lkey)
            )
            assert completion.ok
            assert cluster.node(4).memory.read(addr + 2048, len(payload)) == payload
        done["echo_client"] = True

    # --- LITE between nodes 5 and 6 ---
    remote_addr = cluster.node(6).memory.alloc(4096)
    remote_region = cluster.node(6).memory.register(remote_addr, 4096)
    cluster.node(6).memory.write(remote_addr, b"lite-remote-data")
    local_addr = cluster.node(5).memory.alloc(4096)
    local_region = cluster.node(5).memory.register(local_addr, 4096)

    def lite_worker():
        module = lite_modules[5]
        yield from module.read(
            cluster.node(6).gid, local_addr, local_region.lkey,
            remote_addr, remote_region.rkey, 16,
        )
        assert cluster.node(5).memory.read(local_addr, 16) == b"lite-remote-data"
        done["lite"] = True

    sim.process(race_worker())
    sim.process(txn_worker())
    sim.process(echo_server())
    sim.process(echo_client())
    sim.process(lite_worker())
    sim.run()

    assert done == {
        "race": True,
        "txn": True,
        "echo_server": 25,
        "echo_client": True,
        "lite": True,
    }
    # Cross-checks: the transaction counter reached exactly 15.
    _, locked, value = txn_storage.read_local(7)
    assert not locked
    assert int.from_bytes(value[:8], "big") == 15
    # RACE data still byte-exact after everything else ran.
    assert race_storage.get_local(b"race000") == b"value000"
