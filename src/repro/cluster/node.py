"""Nodes and the cluster factory."""

from repro.sim import Resource
from repro.cluster.fabric import Fabric
from repro.cluster.memory import PhysicalMemory
from repro.cluster.rnic import Rnic

#: The paper's testbed: two 12-core Xeons per node.
DEFAULT_CORES = 24

#: Simulated DRAM per node.  Small by default; tests/benches that need more
#: pass ``memory_size`` explicitly.
DEFAULT_MEMORY = 16 << 20


class Node:
    """One server: CPU cores, DRAM, and an RNIC, attached to the fabric."""

    def __init__(self, sim, fabric, gid, cores=DEFAULT_CORES, memory_size=DEFAULT_MEMORY):
        self.sim = sim
        self.fabric = fabric
        self.gid = gid
        self.cores = cores
        self.memory_size = memory_size
        self.cpu = Resource(sim, capacity=cores)
        self.memory = PhysicalMemory(memory_size)
        self.rnic = Rnic(sim, self)
        self.alive = True
        #: Bumped on every restart; distinguishes a rebooted node from its
        #: previous life (fresh DCT keys, stale-metadata detection).
        self.incarnation = 0
        #: Per-node services (connection daemon, kernel modules) hang
        #: themselves here so layers above can find each other.
        self.services = {}
        fabric.attach(self)

    def fail(self):
        """Crash the node: detach from the fabric so no *new* request can
        resolve it, and error out whatever is already in flight -- inbound
        operations observe ``alive`` turning False and complete on the
        requester side with RETRY_EXC_ERR once their retransmission budget
        runs dry; its DCT metadata becomes invalid (§4.2: metadata "only
        invalidated when the host is down")."""
        self.alive = False
        self.fabric.detach(self)

    def restart(self):
        """Reboot a failed node: tear down the old RNIC state (every
        registered QP is wrecked, every DCT target and MR vanishes) and
        come back up with a fresh RNIC, fresh DRAM, and no services.

        The software stack (KRCORE module, connection daemon...) must be
        re-loaded by the operator -- exactly like a real reboot.  The gid
        is re-used, so stale DCT metadata cached elsewhere now names a DCT
        target that no longer exists (§4.2's invalidation scenario).
        """
        if self.alive:
            raise ValueError(f"{self.gid} is not down; call fail() first")
        # Teardown: wreck the old RNIC's QPs so their pending WRs flush (the
        # reserved ones are built for it: never later, on the next RNIC).
        for qp in self.rnic.all_qps():
            qp.enter_error()
        self.incarnation += 1
        self.cpu = Resource(self.sim, capacity=self.cores)
        self.memory = PhysicalMemory(self.memory_size)
        self.rnic = Rnic(self.sim, self)
        self.services = {}
        self.alive = True
        self.fabric.attach(self)
        return self


class Cluster:
    """A rack-scale cluster like the paper's testbed (ten nodes, one switch)."""

    def __init__(self, sim, num_nodes=10, cores=DEFAULT_CORES, memory_size=DEFAULT_MEMORY):
        self.sim = sim
        self.fabric = Fabric(sim)
        self.nodes = [
            Node(sim, self.fabric, gid=f"node{i}", cores=cores, memory_size=memory_size)
            for i in range(num_nodes)
        ]

    def node(self, index):
        return self.nodes[index]
