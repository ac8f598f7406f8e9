"""The chaos core: one seeded run of a fault plan under a scenario.

Constructing a :class:`ChaosRun` **builds** the cluster (meta shards on
the first nodes: a :class:`MetaServer` for one, a :class:`MetaPlane`
for more; one :class:`KrcoreModule` per node) and **installs** the plan
(the scenario's default unless given) under a :class:`FaultInjector`
whose restart hook loads a fresh module on the rebooted node.  Both
exist before the run, so callers may read ``sim`` or append to
``plan``.  :meth:`ChaosRun.run` **drives** (the
injector, the scenario's processes, the simulation to quiescence),
**audits** (the checker's quiescence checks, then the scenario's
invariants) and returns the :class:`ChaosReport`.

A scenario subclass sets its parameters, calls ``super().__init__``
with its node count and report counters, and defines the hooks:
``place(nodes)`` gives roles to every node after the meta shards,
``module_kwargs(node)`` the kwargs of a node's module, ``setup()``
builds scenario state once every module is loaded and ``reload(node)``
rebuilds a node's after a restart, ``default_plan()`` is the plan,
``drive()`` spawns the processes (after the injector's, in a fixed
order: moving one moves the digest), :meth:`~ChaosRun.audit` reads
invariants after the run and ``summary_fields()`` the summary.

**Checker rule.**  A scenario that asserts checker invariants
(``checked = True``) runs under the installed :mod:`repro.check`
checker if there is one and installs its own otherwise, and reports
``checker_clean``.  Any installed checker is finalized after the run,
so a model-checking scenario drives a run without finalizing it again.
"""

import hashlib

from repro import obs
from repro.check.invariants import Checker
from repro.cluster import Cluster
from repro.faults.injector import FaultInjector
from repro.krcore import KrcoreModule, MetaPlane, MetaServer
from repro.sim import Simulator


class ChaosReport:
    """What one chaos run did; ``digest()`` pins it byte for byte.

    The digest covers ``op_log`` (the scenario's per-op lines), then
    ``fault_log`` (the injector's applied ``(t, kind, summary)``), then
    the invariants in name order.  The scenario's counters (keyword
    arguments) are informational and not digested.
    """

    def __init__(self, seed, **counters):
        self.seed = seed
        self.op_log = []
        self.fault_log = []
        self.invariants = {}  # name -> bool
        self.checker_summary = ""
        self.fields = []  # the scenario's summary pieces
        vars(self).update(counters)

    def record(self, line):
        self.op_log.append(line)

    @property
    def all_invariants_hold(self):
        return bool(self.invariants) and all(self.invariants.values())

    def digest(self):
        hasher = hashlib.sha256()
        for line in self.op_log:
            hasher.update(line.encode())
            hasher.update(b"\n")
        for entry in self.fault_log:
            hasher.update(repr(entry).encode())
            hasher.update(b"\n")
        for name in sorted(self.invariants):
            hasher.update(f"{name}={self.invariants[name]}".encode())
            hasher.update(b"\n")
        return hasher.hexdigest()

    def summary(self):
        verdict = "PASS" if self.all_invariants_hold else "FAIL"
        return " ".join([f"seed={self.seed}", *self.fields, f"invariants={verdict}"])


class ChaosRun:
    """One chaos run; subclasses are the scenarios (see the module doc)."""

    #: True for a scenario that asserts :mod:`repro.check` invariants.
    checked = False

    def __init__(self, seed, plan, meta_shards, num_nodes, **counters):
        self.seed = seed
        self.sim = Simulator()
        self.report = ChaosReport(seed, **counters)
        self.cluster = Cluster(self.sim, num_nodes=meta_shards + num_nodes)
        self.meta_nodes = self.cluster.nodes[:meta_shards]
        self.place(self.cluster.nodes[meta_shards:])
        self.meta = (MetaServer(self.meta_nodes[0]) if meta_shards == 1
                     else MetaPlane([MetaServer(node) for node in self.meta_nodes]))
        self.modules = {}
        for node in self.cluster.nodes:
            self.modules[node.gid] = self._load(node)
        self.setup()
        self.plan = self.default_plan() if plan is None else plan
        self.injector = FaultInjector(
            self.cluster, self.meta, self.plan, on_restart=self._restart
        )

    def _load(self, node):
        return KrcoreModule(
            node, self.meta, background_rc=False, **self.module_kwargs(node)
        )

    def _restart(self, node):
        # Reload the software stack like an operator would: a fresh
        # module (new DCT key), then the scenario's state.
        self.modules[node.gid] = self._load(node)
        self.reload(node)

    # ---------------------------------------------- scenario hooks (module doc)

    def reload(self, node):
        """Rebuild ``node``'s scenario state after a restart (the gray and
        MicroView scenarios keep none)."""

    def audit(self, checker):
        """Set invariants and counters after the run (``checker``: the
        finalized checker, or None)."""

    # --------------------------------------------------------------------- run

    def run(self):
        observer = obs.OBSERVER
        checker = None if observer is None else observer.checker
        if checker is None and self.checked:
            checker = Checker()
            with obs.attached(checker=checker):
                return self._run(checker)
        return self._run(checker)

    def _run(self, checker):
        self.injector.start()
        self.drive()
        self.sim.run()
        report = self.report
        report.fault_log = list(self.injector.applied)
        if checker is not None:
            checker.finalize(
                modules=self.modules.values(),
                plane=MetaPlane.ensure(self.meta),
                now=self.sim.now,
            )
        if self.checked:
            report.invariants["checker_clean"] = checker.ok
            report.checker_summary = checker.summary()
        self.audit(checker)
        report.fields = self.summary_fields()
        return report
