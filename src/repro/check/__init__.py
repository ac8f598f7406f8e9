"""``repro.check``: the control plane's correctness arguments, as invariants.

Two parts:

1. the invariant registry (:class:`~repro.check.invariants.Checker`):
   Algorithm 2's shared-QP accounting, §4.6's fenced QP transfer, §4.2's
   metadata validity with MR leases, meta replication, exactly-once
   completion dispatch -- as hooks fed through the observer seam (the
   ``hook`` column of :mod:`repro.obs.probes`), collected without
   perturbing the run and audited again at quiescence;
2. a Wing & Gong linearizability checker
   (:mod:`repro.check.linearizability`) over recorded op histories.

Every tier-1 test runs under one checker (``tests/conftest.py``), and a
checked chaos scenario under its own (:mod:`repro.faults.chaos`);
DESIGN.md §10 has the kill matrix.  The package exports nothing itself:
import from its modules.  The layers the registry audits import none of
them: a checker is installed with ``repro.obs.attached(checker=...)``.
"""
