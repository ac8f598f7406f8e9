"""The MicroView collector's backends: the app transports plus three
harvest strategies, written once.

Each class is the transport RACE and the transaction client drive on
the same stack (:mod:`repro.apps.race.backends`); MicroView adds only
the harvests.  Every harvest takes the snapshot ``targets`` list
(``(gid, raddr, rkey, length)`` per pod) and a local scratch buffer,
scatters the pod pages back-to-back into it, and returns ``(bytes_ok,
failed)`` -- under churn a READ can lose the race with a retraction,
and the collector wants the goodput, not an abort.  A failed serial
READ fails its pod, a failed gather READ the pods it names, and a
batched harvest counts as the transport's ``read_batch`` does.

LITE's kernel API exposes neither doorbell chains nor gather WRs (the
paper's third LITE issue: no low-level access), so on LITE every
strategy is the serial loop.
"""

from repro.cluster import timing
from repro.apps.race import backends as transport
from repro.apps.race.hashing import RaceError
from repro.verbs.errors import RdmaError

#: What a failed synchronous READ raises on some stack: RaceError off a
#: verbs completion, LiteError / QpError off LITE or a wrecked QP,
#: KrcoreError off a refused or failed VQP post.
_READ_FAILED = (RaceError, RdmaError)


def _requests(targets, laddr, lkey):
    """The ``read_batch`` requests scattering ``targets`` from ``laddr``."""
    offset = 0
    for gid, raddr, rkey, length in targets:
        yield gid, laddr + offset, lkey, raddr, rkey, length
        offset += length


class _Harvests:
    """The three harvest strategies over a transport's READs."""

    def harvest_serial(self, targets, laddr, lkey):
        """Process: N small READs, one per pod."""
        harvested = 0
        failed = 0
        for request in _requests(targets, laddr, lkey):
            try:
                yield from self.read(*request)
                harvested += request[-1]
            except _READ_FAILED:
                failed += 1
        return harvested, failed

    def harvest_batched(self, targets, laddr, lkey):
        """Process: one doorbell-batched READ chain per worker."""
        return (yield from self.read_batch(list(_requests(targets, laddr, lkey))))

    def harvest_vectored(self, targets, laddr, lkey):
        """Process: gather READs -- one READ_V per MAX_VECTORED_SGES pods
        of one worker, scattering the pages into the scratch buffer."""
        by_gid = {}
        for gid, local, _, raddr, rkey, length in _requests(targets, laddr, lkey):
            by_gid.setdefault(gid, []).append((local, (raddr, rkey, length)))
        harvested = 0
        failed = 0
        for gid, entries in by_gid.items():
            for start in range(0, len(entries), timing.MAX_VECTORED_SGES):
                chunk = entries[start : start + timing.MAX_VECTORED_SGES]
                sges = [sge for _, sge in chunk]
                try:
                    yield from self.read_vectored(gid, chunk[0][0], lkey, sges)
                    harvested += sum(length for _, _, length in sges)
                except _READ_FAILED:
                    failed += len(sges)
        return harvested, failed


class VerbsBackend(_Harvests, transport.VerbsBackend):
    """User-space verbs: serial, doorbell-batched and vectored harvests."""


class LiteBackend(_Harvests, transport.LiteBackend):
    """LITE's synchronous kernel API: every strategy is the serial loop
    (its ``read_batch`` is one already)."""

    harvest_vectored = _Harvests.harvest_serial


class KrcoreBackend(_Harvests, transport.KrcoreBackend):
    """KRCORE VQPs: all three strategies, with the software pre-checks
    keeping a mid-harvest retraction from wrecking the shared QP."""
