"""Cluster builders shared by the benchmark drivers."""

from repro.cluster import Cluster
from repro.krcore import KrcoreModule, MetaPlane, MetaServer
from repro.lite import LiteModule
from repro.sim import Simulator
from repro.verbs import CompletionQueue, ConnectionManager, DriverContext, wire_rc_pair
from repro.verbs.types import QPT_RC


def verbs_cluster(num_nodes=10, memory_size=16 << 20):
    """A cluster where every node runs a connection-manager daemon."""
    sim = Simulator()
    cluster = Cluster(sim, num_nodes=num_nodes, cores=24, memory_size=memory_size)
    for node in cluster.nodes:
        ConnectionManager(node, DriverContext(node, kernel=True))
    return sim, cluster


def lite_cluster(num_nodes=10, memory_size=16 << 20):
    """A cluster with a LITE kernel module per node."""
    sim = Simulator()
    cluster = Cluster(sim, num_nodes=num_nodes, cores=24, memory_size=memory_size)
    modules = [LiteModule(node) for node in cluster.nodes]
    return sim, cluster, modules


def krcore_cluster(
    num_nodes=10, meta_index=0, memory_size=16 << 20, cores=24, meta_shards=1, **kwargs
):
    """A cluster with a meta plane and a KRCORE module per node.

    With ``meta_shards=1`` (the default) this is the paper's deployment:
    one :class:`MetaServer` on ``cluster.node(meta_index)``, returned
    bare, with construction order identical to the pre-sharding builder.
    With ``meta_shards=N`` the shards live on nodes ``meta_index ..
    meta_index+N-1`` and a :class:`MetaPlane` is returned.  Shard hosts'
    modules boot first (the boot-time broadcast).  One meta server's table
    takes the boot records of ~4 000 nodes before a probe window fills
    (``StoreFullError``): larger clusters need ``meta_shards``.
    """
    sim = Simulator()
    cluster = Cluster(sim, num_nodes=num_nodes, cores=cores, memory_size=memory_size)
    if meta_shards == 1:
        meta = MetaServer(cluster.node(meta_index))
        meta_indexes = [meta_index]
    else:
        shards = [
            MetaServer(cluster.node(meta_index + offset))
            for offset in range(meta_shards)
        ]
        meta = MetaPlane(shards)
        meta_indexes = list(range(meta_index, meta_index + meta_shards))
    order = meta_indexes + [i for i in range(num_nodes) if i not in meta_indexes]
    by_index = {}
    for index in order:
        by_index[index] = KrcoreModule(cluster.node(index), meta, **kwargs)
    modules = [by_index[i] for i in range(num_nodes)]
    return sim, cluster, meta, modules


def plant_rc(module, remote_module, cpu_id=0):
    """Wire a ready kernel RCQP pair into two modules' pools (boot-time,
    no cost): the state the background creator would eventually reach."""
    sim = module.sim
    cq_a = CompletionQueue(sim)
    cq_b = CompletionQueue(sim)
    qp_a = module.context.create_qp_fast(QPT_RC, cq_a, recv_cq=None)
    qp_b = remote_module.context.create_qp_fast(QPT_RC, cq_b, recv_cq=None)
    wire_rc_pair(qp_a, qp_b)
    # Arm the receive sides so two-sided traffic works over the pair.
    module.messaging.arm_rc(qp_a)
    remote_module.messaging.arm_rc(qp_b)
    module.pool(cpu_id).insert_rc(remote_module.node.gid, qp_a)
    remote_module.pool(cpu_id).insert_rc(module.node.gid, qp_b)
    return qp_a, qp_b


def spread_clients(num_clients, client_nodes):
    """Assign ``num_clients`` worker indexes to nodes round-robin.

    Returns a list of (node, cpu_id) the way the paper's inbound
    benchmarks spread clients over the other nine machines.
    """
    placements = []
    for index in range(num_clients):
        node = client_nodes[index % len(client_nodes)]
        cpu_id = (index // len(client_nodes)) % node.cores
        placements.append((node, cpu_id))
    return placements
