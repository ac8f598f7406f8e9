"""Helpers the workload drivers and the microbenchmarks share."""

from repro.verbs import CompletionQueue, DriverContext, QpType


def scaled(base, scale):
    """An op count at ``--scale``: never below one."""
    return max(1, round(base * scale))


def rc_pair(sim, node, peer_node, cq=None):
    """A connected RC pair wired at no simulated cost (boot-time state);
    the local side completes into ``cq`` (a fresh CQ by default)."""
    if cq is None:
        cq = CompletionQueue(sim)
    qp = DriverContext(node, kernel=True).create_qp_fast(QpType.RC, cq, recv_cq=cq)
    peer_cq = CompletionQueue(sim)
    peer = DriverContext(peer_node, kernel=True).create_qp_fast(
        QpType.RC, peer_cq, recv_cq=peer_cq
    )
    qp.to_init()
    qp.to_rtr((peer_node.gid, peer.qpn))
    qp.to_rts()
    peer.to_init()
    peer.to_rtr((node.gid, qp.qpn))
    peer.to_rts()
    return qp, peer
