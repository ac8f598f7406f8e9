"""MicroView: a SmartNIC-style collector harvesting per-pod metric MRs.

One collector node READs thousands of tiny (4 KB) per-pod memory regions
off the worker nodes every cycle, while pods churn -- each pod death
retracts its MR and each pod start registers a fresh one.
Registration/validation cost, not connection setup, dominates (KRCORE
§4.2), which is exactly the MRStore lease/epoch machinery this app
stresses.

Three harvest strategies, written once over the app transport of each
stack (verbs / LITE / KRCORE, :mod:`repro.apps.race.backends`):

* ``serial``   -- N small one-sided READs, one per pod;
* ``batched``  -- the transport's doorbell-batched ``read_batch``: one
  READ chain per worker;
* ``vectored`` -- multi-SGE gather READs (``Opcode.READ_V``): one WR
  names up to ``timing.MAX_VECTORED_SGES`` pod segments.

LITE's high-level API can only harvest serially.  A failed READ counts
in the harvest's ``failed`` on every stack; it never aborts the cycle.
"""

from repro.apps.microview.backends import KrcoreBackend, LiteBackend, VerbsBackend
from repro.apps.microview.collector import STRATEGIES, Collector, HarvestStats
from repro.apps.microview.pods import POD_BYTES, Pod, PodDirectory

__all__ = [
    "Collector",
    "HarvestStats",
    "KrcoreBackend",
    "LiteBackend",
    "POD_BYTES",
    "Pod",
    "PodDirectory",
    "STRATEGIES",
    "VerbsBackend",
]
