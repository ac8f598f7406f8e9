"""``repro.check``: the control plane's correctness arguments, as invariants.

Two parts:

1. the invariant registry (:class:`Checker`): the control plane's
   correctness arguments -- Algorithm 2's shared-QP accounting, §4.6's
   fenced QP transfer, §4.2's metadata validity with MR leases, meta
   replication, exactly-once completion dispatch -- as hooks fed through
   the observer seam (the ``hook`` column of :mod:`repro.obs.probes`),
   collected without perturbing the run and audited again at quiescence;
2. scenarios (:mod:`repro.check.scenarios`): small workloads that drive
   one slice of the control plane each, run to quiescence under the
   engine's own order with the registry installed, plus a
   linearizability pass over the op histories a scenario records.

The engine's order is the only one explored: a search over other
same-timestamp orders (random walk, PCT) was scored against the
re-injected bugs of ``tests/_mutants.py`` and killed none that this run
and tier-1 miss (DESIGN.md §10 has the kill matrix).

Usage::

    python -m repro.check --list
    python -m repro.check                  # every scenario once
    python -m repro.check pool_churn

The package exports nothing itself: import from its modules.  The
layers the registry audits import none of them: a checker is installed
with ``repro.obs.attached(checker=...)``.
"""
