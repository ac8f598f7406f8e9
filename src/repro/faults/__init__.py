"""Deterministic fault injection for the simulated KRCORE cluster.

Four pieces:

* :mod:`repro.faults.plan` -- a :class:`FaultPlan` is a seeded, fully
  deterministic schedule of faults (packet loss/duplication, latency
  degradation, RNIC stalls, node crash + restart, meta-server outages
  and lag, node slowdowns) pinned to simulated timestamps.
* :mod:`repro.faults.injector` -- a :class:`FaultInjector` checks a plan
  against the cluster and walks it inside the simulation, applying each
  fault when it falls due.
* :mod:`repro.faults.chaos` -- the chaos core: a :class:`ChaosRun`
  builds a cluster, installs a plan, drives a scenario, audits it and
  returns one digest-able :class:`ChaosReport`.  Its scenarios are
  :class:`~repro.faults.harness.ChaosHarness` (YCSB under binary
  faults), :class:`~repro.faults.gray.GrayChaosHarness` (two tenants
  under gray faults, overload protection) and
  :class:`~repro.faults.microview.MicroViewChaosHarness` (MR churn under
  meta faults).
* :mod:`repro.faults.scale` -- fault-targeting equivalence of the
  partitioned cluster-scale model, across partition counts.

``python -m repro.faults {ycsb,gray,microview,scale}`` runs one of them.
"""

from repro.faults.chaos import ChaosReport, ChaosRun
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultEvent, FaultPlan

__all__ = [
    "ChaosReport",
    "ChaosRun",
    "FaultEvent",
    "FaultInjector",
    "FaultPlan",
]
