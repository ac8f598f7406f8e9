"""MR validation bookkeeping: ValidMR and MRStore (§4.2).

The RNIC normally validates memory keys from its own cache; once KRCORE
multiplexes a shared QP it must do those checks in software *before*
posting, or a bad key would wreck the shared QP (§3.1, C#3).

* **ValidMR** records every locally registered MR (and publishes it to the
  meta servers so remote nodes can validate against it).
* **MRStore** caches validated *remote* MRs with a lease: the cache is
  flushed at every lease boundary, and a deregistered MR is only freed
  after one full lease has elapsed, so no cached entry can outlive the
  registration.  (The periodic flush is implemented lazily -- an entry
  written in epoch k is invisible from epoch k+1 on -- which is
  behaviourally identical to the paper's periodic flush without keeping a
  timer alive.)
"""

from repro.check import hooks as _check
from repro.cluster import timing
from repro.krcore.meta import MR_RETRY_TEXTS, mr_key
from repro.obs import metrics as _metrics
from repro.obs import trace as _trace
from repro.verbs.errors import MetaUnavailableError


class ValidMr:
    """The local registry of valid memory regions on one node."""

    def __init__(self, node):
        self.node = node
        self._by_lkey = {}
        #: forget() calls that found a *different* region under the key --
        #: the recycled-key churn race the identity check below defends.
        self.stats_forget_mismatches = 0

    def record(self, region):
        self._by_lkey[region.lkey] = region

    def forget(self, region):
        # Pop by identity, not by key: under churn a retracted region's
        # recycled lkey may already name a *new* registration, and
        # dropping that one would fail every local validation against
        # the live MR.
        if self._by_lkey.get(region.lkey) is region:
            del self._by_lkey[region.lkey]
        elif region.lkey in self._by_lkey:
            self.stats_forget_mismatches += 1

    def check_local(self, lkey, addr, length):
        """True iff [addr, addr+length) lies in a valid local region."""
        region = self._by_lkey.get(lkey)
        return (
            region is not None and region.valid
            and region.addr <= addr and addr + length <= region.addr + region.length
        )

    def lookup_region_by_lkey(self, lkey):
        region = self._by_lkey.get(lkey)
        if region is None or not region.valid:
            return None
        return region


class MrStore:
    """Per-node cache of checked remote MRs, with lease-based flushing."""

    def __init__(self, module, lease_ns=timing.MR_LEASE_NS):
        self.module = module
        self.sim = module.sim
        self.lease_ns = lease_ns
        self._cache = {}  # (gid, rkey) -> (epoch, (addr, length))
        #: (gid, rkey) entries accepted past their lease during a meta
        #: outage.  While every owner shard of the record stays dark, the
        #: marker lets cached()/check_cached() keep honoring the entry on
        #: its *original* epoch (one degraded verdict, not one slow-path
        #: lookup per WR); the first probe that finds an owner serving
        #: again drops the marker, so the next access runs a real lookup.
        self._stale_accepted = set()
        #: Lease-expired entries accepted because the meta server was
        #: unreachable (degraded mode).
        self.stats_stale_accepts = 0
        #: Fast-path hits served off a stale-accept marker (meta down).
        self.stats_stale_hits = 0
        #: Cache entries dropped by invalidate() (churn accounting).
        self.stats_invalidated = 0

    def _epoch(self):
        return self.sim.now // self.lease_ns

    def _stale_hit(self, gid, rkey):
        """True iff a lease-expired entry may still be honored: it was
        stale-accepted during an outage and every owner shard of its meta
        record is *still* dark.  Clears the marker on recovery, so a
        stale accept never outlives meta recovery past the next access."""
        if (gid, rkey) not in self._stale_accepted:
            return False
        owners = self.module.meta_plane.owners(mr_key(gid, rkey))
        if any(shard.available for shard in owners):
            self._stale_accepted.discard((gid, rkey))
            return False
        return True

    def check_cached(self, gid, rkey, addr, length):
        """Non-blocking :meth:`check` against the cache only.

        Returns the boolean verdict on a hit, or ``None`` on a miss (the
        caller must then run :meth:`check`, which may block on a
        meta-server lookup).  Lets the per-WR hot path skip a generator
        when the MR is already cached -- the overwhelmingly common case.
        A stale-accepted entry counts as a hit while meta stays down:
        degraded mode already delivered its verdict, so re-running the
        slow path per WR would just burn the retry budget again.
        """
        entry = self._cache.get((gid, rkey))
        if entry is None:
            return None
        if entry[0] != self.sim.now // self.lease_ns:
            if not self._stale_hit(gid, rkey):
                return None
            self.stats_stale_hits += 1
            if _metrics.METRICS is not None:
                _metrics.METRICS.counter("krcore.mrstore_stale_hits").inc()
        if _metrics.METRICS is not None:
            _metrics.METRICS.counter("krcore.mrstore_hits").inc()
        base, span = entry[1]
        return base <= addr and addr + length <= base + span

    def check(self, gid, rkey, addr, length, cpu_id=0):
        """Process: validate a remote access, querying ValidMR on a miss.

        Returns True iff the access falls inside a known-valid remote MR.
        A miss costs one meta-server lookup (+4.5 us, Fig 12a) through the
        calling CPU's pre-connected meta client; the lookup retries with
        exponential backoff.  If the meta server stays unreachable and a
        lease-expired entry for this MR is still cached, accept it (the
        remote frees a deregistered MR only one full lease after
        retraction, and the responder re-validates every access, so a
        wrong stale verdict surfaces as REM_ACCESS -- never as a read of
        freed memory).  With no cached entry at all, the error propagates.
        A hit is :meth:`check_cached`'s, counted the same way.
        """
        verdict = self.check_cached(gid, rkey, addr, length)
        if verdict is not None:
            return verdict
        if _metrics.METRICS is not None:
            _metrics.METRICS.counter("krcore.mrstore_misses").inc()
        if _trace.TRACER is not None:
            _trace.TRACER.begin(
                self.sim.now, self.module.track,
                "mrstore.check", gid=gid, rkey=rkey,
            )
        accepted_stale = False
        try:
            module = self.module
            record = yield from module.retry_meta(
                module.plane_lookup_mr, (cpu_id, gid, rkey), None, MR_RETRY_TEXTS, gid, rkey
            )
            epoch = self._epoch()
            self._stale_accepted.discard((gid, rkey))
        except MetaUnavailableError:
            stale = self._cache.get((gid, rkey))
            if stale is None:
                raise
            self.stats_stale_accepts += 1
            if _metrics.METRICS is not None:
                _metrics.METRICS.counter("krcore.mrstore_stale_accepts").inc()
            # Keep the *original* epoch: a stale accept is a degraded-
            # mode verdict, not a revalidation.  Re-stamping it with
            # the current epoch would promote the entry to fully valid
            # and suppress the real lookup after the meta plane
            # recovers -- breaking the one-lease window dereg_mr's
            # deferred free relies on.
            epoch, record = stale
            accepted_stale = True
            if record is not None:
                self._stale_accepted.add((gid, rkey))
        finally:
            if _trace.TRACER is not None:
                _trace.TRACER.end(
                    self.sim.now, self.module.track,
                    "mrstore.check",
                )
        if record is None:
            return False
        if _check.CHECKER is not None:
            _check.CHECKER.mr_accept(
                self, gid, rkey, epoch, self._epoch(), accepted_stale
            )
        self._cache[(gid, rkey)] = (epoch, record)
        base, span = record
        return base <= addr and addr + length <= base + span

    def invalidate(self, gid, rkey):
        if self._cache.pop((gid, rkey), None) is not None:
            self.stats_invalidated += 1
        self._stale_accepted.discard((gid, rkey))
