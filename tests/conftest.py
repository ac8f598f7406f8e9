"""Shared fixtures and builders for the test suite."""

import pytest

from repro import obs
from repro.check.invariants import Checker
from repro.cluster import Cluster
from repro.sim import Simulator
from repro.verbs import CompletionQueue, DriverContext, QpType, wire_rc_pair


@pytest.fixture(autouse=True)
def checker(request):
    """The invariant registry over the whole test: at teardown each
    simulator the test drained is audited at quiescence, and a violation
    fails the test.  ``@pytest.mark.unchecked(reason)`` opts a test out."""
    marker = request.node.get_closest_marker("unchecked")
    if marker is not None:
        assert marker.args, "@pytest.mark.unchecked(reason): say why it runs unchecked"
        yield None
        return
    checker = Checker()
    with obs.attached(checker=checker):
        yield checker
    if checker.finalize():
        pytest.fail("\n".join(map(repr, checker.violations)), pytrace=False)


@pytest.fixture
def sim():
    return Simulator()


@pytest.fixture
def cluster(sim):
    return Cluster(sim, num_nodes=3)


def quick_rc_pair(node_a, node_b, sq_depth=292):
    """Wire up a ready RC QP pair without charging control-path time.

    For data-plane tests where connection setup is not under test.
    """
    sim = node_a.sim
    cq_a = CompletionQueue(sim)
    cq_b = CompletionQueue(sim)
    ctx_a = DriverContext(node_a, kernel=True)
    ctx_b = DriverContext(node_b, kernel=True)
    qp_a = ctx_a.create_qp_fast(QpType.RC, cq_a, recv_cq=cq_a, sq_depth=sq_depth)
    qp_b = ctx_b.create_qp_fast(QpType.RC, cq_b, recv_cq=cq_b, sq_depth=sq_depth)
    wire_rc_pair(qp_a, qp_b)
    return qp_a, qp_b


def quick_dc_qp(node, sq_depth=292):
    """A ready DC initiator QP without control-path charges."""
    sim = node.sim
    cq = CompletionQueue(sim)
    ctx = DriverContext(node, kernel=True)
    qp = ctx.create_qp_fast(QpType.DC, cq, recv_cq=cq, sq_depth=sq_depth)
    qp.to_init()
    qp.to_rtr()
    qp.to_rts()
    return qp


def quick_ud_qp(node, sq_depth=292):
    """A ready UD QP without control-path charges."""
    sim = node.sim
    cq = CompletionQueue(sim)
    ctx = DriverContext(node, kernel=True)
    qp = ctx.create_qp_fast(QpType.UD, cq, recv_cq=cq, sq_depth=sq_depth)
    qp.to_init()
    qp.to_rtr()
    qp.to_rts()
    return qp


def krcore_cluster(sim, num_nodes=4, meta_index=0, meta_shards=1, **module_kwargs):
    """Boot a cluster with a meta plane and a KRCORE module per node.

    ``meta_shards=1`` (default) keeps the original single :class:`MetaServer`
    on ``node(meta_index)``; ``meta_shards=N`` puts shards on nodes
    ``meta_index .. meta_index+N-1`` and returns a :class:`MetaPlane`.
    Shard hosts' modules boot first so every other module can prime its
    DCCache with their DCT metadata (the boot broadcast).
    Returns (cluster, meta_server_or_plane, modules).
    """
    from repro.cluster import Cluster
    from repro.krcore import KrcoreModule, MetaPlane, MetaServer

    cluster = Cluster(sim, num_nodes=num_nodes)
    if meta_shards == 1:
        meta = MetaServer(cluster.node(meta_index))
        meta_indexes = [meta_index]
    else:
        meta = MetaPlane(
            [
                MetaServer(cluster.node(meta_index + offset))
                for offset in range(meta_shards)
            ]
        )
        meta_indexes = list(range(meta_index, meta_index + meta_shards))
    order = meta_indexes + [i for i in range(num_nodes) if i not in meta_indexes]
    by_index = {}
    for index in order:
        by_index[index] = KrcoreModule(cluster.node(index), meta, **module_kwargs)
    modules = [by_index[i] for i in range(num_nodes)]
    return cluster, meta, modules


def register(node, nbytes, fill=None):
    """Allocate + register ``nbytes`` on ``node``; returns (addr, region)."""
    addr = node.memory.alloc(nbytes)
    region = node.memory.register(addr, nbytes)
    if fill is not None:
        node.memory.write(addr, bytes([fill]) * nbytes)
    return addr, region
