"""A RACE-style disaggregated key-value store (Zuo et al., ATC'21).

RACE separates computing nodes from storage nodes: computing nodes execute
key-value requests purely with one-sided RDMA against passive storage.
RACE is closed-source, so -- like the paper itself (§5.3.1: "we implement a
simplified version") -- we build a simplified one-sided hash table:

* GET  = one bucket READ + one block READ (with linear probing);
* PUT  = one remote FETCH_ADD block allocation + one block WRITE + one
  slot CAS (retried on contention);
* all slots are 8 bytes so a single RDMA CAS updates them atomically.

The table (:mod:`repro.apps.race.hashing`) pre-sizes its subtables --
all the paper's load-spike experiment needs.

The same client runs over three interchangeable backends (verbs, LITE,
KRCORE), which is exactly how the paper compares them in Fig 16.
"""

from repro.apps.race.hashing import RaceError, RaceStorage
from repro.apps.race.backends import KrcoreBackend, LiteBackend, VerbsBackend
from repro.apps.race.client import RaceClient

__all__ = [
    "KrcoreBackend",
    "LiteBackend",
    "RaceClient",
    "RaceError",
    "RaceStorage",
    "VerbsBackend",
]
