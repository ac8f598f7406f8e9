"""Vectored (multi-SGE gather) READs: ``Opcode.READ_V``.

One WR, many remote segments: the responder serves the summed payload
plus a per-extra-SGE gather charge, and the segments land back-to-back
in the local buffer.  KRCORE routes the same WR through the VQP
pre-checks, validating every segment against the MRStore before
anything reaches the shared physical QP.
"""

import pytest

from repro.cluster import Cluster, timing
from repro.sim import Simulator
from repro.verbs import Opcode, WcStatus, WorkRequest
from repro.verbs.errors import KrcoreError
from tests.conftest import krcore_cluster, quick_rc_pair, register


def _pair():
    sim = Simulator()
    cluster = Cluster(sim, num_nodes=2)
    node_a, node_b = cluster.node(0), cluster.node(1)
    qp_a, _ = quick_rc_pair(node_a, node_b)
    return sim, node_a, node_b, qp_a


def _run_wr(sim, qp, wr):
    def drive():
        qp.post_send(wr)
        completions = yield from qp.send_cq.wait_poll()
        return completions[0]

    return sim.run_process(drive())


def test_read_vectored_scatters_segments_back_to_back():
    sim, node_a, node_b, qp = _pair()
    laddr, lmr = register(node_a, 256)
    segments = []
    for fill in (1, 2, 3):
        raddr, rmr = register(node_b, 64, fill=fill)
        segments.append((raddr, rmr.rkey, 64))
    wr = WorkRequest.read_vectored(laddr, lmr.lkey, segments)
    assert wr.length == 192
    completion = _run_wr(sim, qp, wr)
    assert completion.ok
    assert completion.byte_len == 192
    assert node_a.memory.read(laddr, 192) == b"\x01" * 64 + b"\x02" * 64 + b"\x03" * 64


def test_read_vectored_one_wr_beats_serial_reads():
    """The point of the gather WR: one request/completion round trip
    instead of N, so the same bytes land in less simulated time."""
    sim, node_a, node_b, qp = _pair()
    laddr, lmr = register(node_a, 512)
    segments = []
    for fill in range(4):
        raddr, rmr = register(node_b, 64, fill=fill)
        segments.append((raddr, rmr.rkey, 64))

    started = sim.now
    completion = _run_wr(
        sim, qp, WorkRequest.read_vectored(laddr, lmr.lkey, segments)
    )
    vectored_ns = sim.now - started
    assert completion.ok

    started = sim.now
    for index, (raddr, rkey, length) in enumerate(segments):
        completion = _run_wr(
            sim, qp,
            WorkRequest.read(laddr + index * length, length, lmr.lkey, raddr, rkey),
        )
        assert completion.ok
    serial_ns = sim.now - started
    assert vectored_ns < serial_ns


def test_read_vectored_bad_segment_completes_rem_access_err():
    sim, node_a, node_b, qp = _pair()
    laddr, lmr = register(node_a, 256)
    raddr, rmr = register(node_b, 64, fill=9)
    wr = WorkRequest.read_vectored(
        laddr, lmr.lkey, [(raddr, rmr.rkey, 64), (raddr, 4242, 64)]
    )
    completion = _run_wr(sim, qp, wr)
    assert not completion.ok
    assert completion.status is WcStatus.REM_ACCESS_ERR


def test_read_vectored_empty_gather_list_is_bad_opcode():
    sim, node_a, node_b, qp = _pair()
    laddr, lmr = register(node_a, 64)
    wr = WorkRequest(Opcode.READ_V, laddr=laddr, lkey=lmr.lkey, length=0, sges=[])
    completion = _run_wr(sim, qp, wr)
    assert not completion.ok
    assert completion.status is WcStatus.BAD_OPCODE_ERR


# ------------------------------------------------------------- KRCORE path


def test_krcore_read_vectored_sync_validates_and_reads():
    from repro.krcore import KrcoreLib

    sim = Simulator()
    cluster, meta, modules = krcore_cluster(sim, num_nodes=3)
    worker = cluster.node(2)

    def drive():
        lib = KrcoreLib(cluster.node(1))
        vqp = yield from lib.create_vqp()
        yield from lib.qconnect(vqp, worker.gid)
        laddr = cluster.node(1).memory.alloc(128)
        lmr = yield from lib.reg_mr(laddr, 128)
        sges = []
        for fill in (5, 6):
            raddr = worker.memory.alloc(64)
            worker.memory.write(raddr, bytes([fill]) * 64)
            rmr = yield from modules[2].reg_mr(raddr, 64)
            sges.append((raddr, rmr.rkey, 64))
        entry = yield from lib.read_vectored_sync(vqp, laddr, lmr.lkey, sges)
        return entry.ok, cluster.node(1).memory.read(laddr, 128)

    ok, data = sim.run_process(drive())
    assert ok
    assert data == b"\x05" * 64 + b"\x06" * 64


def test_krcore_read_vectored_rejects_oversized_gather_list():
    from repro.krcore import KrcoreLib

    sim = Simulator()
    cluster, meta, modules = krcore_cluster(sim, num_nodes=3)
    worker = cluster.node(2)

    def drive():
        lib = KrcoreLib(cluster.node(1))
        vqp = yield from lib.create_vqp()
        yield from lib.qconnect(vqp, worker.gid)
        laddr = cluster.node(1).memory.alloc(4096)
        lmr = yield from lib.reg_mr(laddr, 4096)
        raddr = worker.memory.alloc(64)
        rmr = yield from modules[2].reg_mr(raddr, 64)
        sges = [(raddr, rmr.rkey, 64)] * (timing.MAX_VECTORED_SGES + 1)
        with pytest.raises(KrcoreError) as err:
            yield from lib.read_vectored_sync(vqp, laddr, lmr.lkey, sges)
        # The cap is enforced before anything reaches the physical QP.
        assert vqp.comp_queue == ()
        assert not any(token.vqp is vqp for token in modules[1].wrid_tokens.values())
        return err.value.code

    code = sim.run_process(drive())
    assert code is WcStatus.BAD_OPCODE_ERR
