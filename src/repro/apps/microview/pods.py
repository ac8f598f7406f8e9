"""Per-pod metric regions and the pod-churn driver.

A :class:`PodDirectory` owns every pod MR on the worker nodes and is the
registry the collector harvests from.  With a :class:`KrcoreModule` per
worker, registrations go through ``reg_mr`` (ValidMR + meta publication)
and churn through ``dereg_mr`` (retraction + one-lease deferred free),
so a churn storm exercises the full lease/epoch safety machinery; bare
workers (verbs/LITE deployments) register plain verbs MRs.
"""

from repro.cluster import timing

#: One pod's metric page (the MicroView per-pod snapshot).
POD_BYTES = 4096


class Pod:
    """One pod's live metric region on a worker node."""

    __slots__ = ("node", "module", "index", "region", "generation")

    def __init__(self, node, module, index, region):
        self.node = node
        self.module = module
        self.index = index
        self.region = region
        #: Bumped every churn (dereg + re-register): the collector can
        #: tell a recycled pod slot from the one it last harvested.
        self.generation = 0

    @property
    def worker_gid(self):
        return self.node.gid


class PodDirectory:
    """Every pod MR across the worker nodes, plus the churn driver."""

    def __init__(self, workers):
        #: ``workers`` is a list of (node, module-or-None) pairs.
        self.workers = list(workers)
        self.pod_bytes = POD_BYTES
        self.sim = self.workers[0][0].sim
        self.pods = []
        #: Completed churn events (one dereg + one re-register each).
        self.stats_churns = 0

    def deploy(self, pods_per_worker):
        """Process: register ``pods_per_worker`` pod MRs on every worker."""
        for node, module in self.workers:
            for index in range(pods_per_worker):
                region = yield from self._register(node, module)
                self.pods.append(Pod(node, module, len(self.pods), region))

    def _register(self, node, module):
        addr = node.memory.alloc(self.pod_bytes)
        if module is not None:
            region = yield from module.reg_mr(addr, self.pod_bytes)
        else:
            yield timing.reg_mr_ns(self.pod_bytes)
            region = node.memory.register(addr, self.pod_bytes)
        return region

    def targets(self):
        """The current harvest list: (gid, raddr, rkey, length) per pod.

        Re-snapshot every cycle -- churn swaps regions (and rkeys) out
        from under a stale list.
        """
        return [
            (pod.worker_gid, pod.region.addr, pod.region.rkey, pod.region.length)
            for pod in self.pods
        ]

    def churn_one(self, pod):
        """Process: one pod dies and restarts -- retract its MR (deferred
        free, one lease) and register a replacement page."""
        if pod.module is None:
            raise ValueError("churn requires KRCORE-managed pods (reg/dereg_mr)")
        yield from pod.module.dereg_mr(pod.region)
        pod.region = yield from self._register(pod.node, pod.module)
        pod.generation += 1
        self.stats_churns += 1

    def churn_driver(self, interval_ns, horizon_ns, seed=1):
        """Process: the churn storm -- every ``interval_ns``, a seeded LCG
        picks one pod to kill and restart, until ``horizon_ns``."""
        state = (seed * 6364136223846793005 + 1442695040888963407) % (1 << 64) or 1
        while self.sim.now < horizon_ns:
            yield interval_ns
            if not self.pods:
                continue
            state = (state * 6364136223846793005 + 1442695040888963407) % (1 << 64)
            pod = self.pods[(state >> 33) % len(self.pods)]
            yield from self.churn_one(pod)
