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
from repro.krcore.meta import mr_key
from repro.obs import metrics as _metrics
from repro.obs import trace as _trace
from repro.verbs.errors import DeadlineExceededError, MetaUnavailableError


class ValidMr:
    """The local registry of valid memory regions on one node."""

    def __init__(self, node):
        self.node = node
        self._by_rkey = {}
        self._by_lkey = {}
        #: forget() calls that found a *different* region under the key --
        #: the recycled-key churn race the identity check below defends.
        self.stats_forget_mismatches = 0

    def record(self, region):
        self._by_rkey[region.rkey] = region
        self._by_lkey[region.lkey] = region

    def forget(self, region):
        # Pop by identity, not by key: under churn a retracted region's
        # recycled rkey/lkey may already name a *new* registration, and
        # dropping that one would fail every remote validation against
        # the live MR.
        mismatch = False
        if self._by_rkey.get(region.rkey) is region:
            del self._by_rkey[region.rkey]
        elif region.rkey in self._by_rkey:
            mismatch = True
        if self._by_lkey.get(region.lkey) is region:
            del self._by_lkey[region.lkey]
        elif region.lkey in self._by_lkey:
            mismatch = True
        if mismatch:
            self.stats_forget_mismatches += 1
            if _metrics.METRICS is not None:
                _metrics.METRICS.counter("krcore.validmr_forget_mismatches").inc()

    def check_local(self, lkey, addr, length):
        """True iff [addr, addr+length) lies in a valid local region."""
        region = self._by_lkey.get(lkey)
        return region is not None and region.valid and region.contains(addr, length)

    def lookup_rkey(self, rkey):
        region = self._by_rkey.get(rkey)
        if region is None or not region.valid:
            return None
        return (region.addr, region.length)

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
        #: gid -> set(rkey) over cache keys, so invalidate(gid) during a
        #: churn storm is O(entries for that gid), not O(whole cache).
        self._by_gid = {}
        self.stats_hits = 0
        self.stats_misses = 0
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

    def cached(self, gid, rkey):
        """The cached (addr, length) if present and within its lease (or
        stale-accepted while its meta record's owners are all dark)."""
        entry = self._cache.get((gid, rkey))
        if entry is None:
            return None
        if entry[0] != self._epoch() and not self._stale_hit(gid, rkey):
            return None
        return entry[1]

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
        self.stats_hits += 1
        if _metrics.METRICS is not None:
            _metrics.METRICS.counter("krcore.mrstore_hits").inc()
        base, span = entry[1]
        return base <= addr and addr + length <= base + span

    def check(self, gid, rkey, addr, length, cpu_id=0, deadline=None):
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
        """
        record = self.cached(gid, rkey)
        if record is None:
            self.stats_misses += 1
            if _metrics.METRICS is not None:
                _metrics.METRICS.counter("krcore.mrstore_misses").inc()
            if _trace.TRACER is not None:
                _trace.TRACER.begin(
                    self.sim.now, self.module.track,
                    "mrstore.check", gid=gid, rkey=rkey,
                )
            accepted_stale = False
            try:
                record = yield from self._lookup_robust(gid, rkey, cpu_id, deadline)
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
            self._by_gid.setdefault(gid, set()).add(rkey)
        else:
            self.stats_hits += 1
            if _metrics.METRICS is not None:
                _metrics.METRICS.counter("krcore.mrstore_hits").inc()
        base, span = record
        return base <= addr and addr + length <= base + span

    def _lookup_robust(self, gid, rkey, cpu_id, deadline=None):
        """Process: MR lookup with bounded retry + exponential backoff
        (jittered, like :meth:`KrcoreModule.lookup_dct_robust`), each
        attempt failing over across the record's owner shards.  A spent
        deadline raises instead of sleeping on borrowed time."""
        backoff = timing.KRCORE_BACKOFF_BASE_NS
        attempt = 0
        while True:
            try:
                return (
                    yield from self.module.plane_lookup_mr(
                        cpu_id, gid, rkey, deadline
                    )
                )
            except MetaUnavailableError as err:
                attempt += 1
                if attempt > timing.KRCORE_META_RETRIES:
                    raise
                pause = backoff + timing.backoff_jitter_ns(
                    backoff, f"{self.module.node.gid}:{gid}:{rkey}", attempt
                )
                if deadline is not None and deadline.remaining_ns(self.sim.now) <= pause:
                    raise DeadlineExceededError(
                        f"deadline cannot cover retry {attempt} backoff "
                        f"({pause} ns) for MR ({gid}, {rkey})",
                    ) from err
                yield pause
                backoff = min(backoff * 2, timing.KRCORE_BACKOFF_MAX_NS)

    def invalidate(self, gid, rkey=None):
        if rkey is not None:
            if self._cache.pop((gid, rkey), None) is not None:
                self.stats_invalidated += 1
            self._stale_accepted.discard((gid, rkey))
            rkeys = self._by_gid.get(gid)
            if rkeys is not None:
                rkeys.discard(rkey)
                if not rkeys:
                    del self._by_gid[gid]
            return
        # The index covers every entry inserted through check(); fall back
        # to a scan only when the gid was never indexed (entries seeded
        # directly into _cache, as some tests do).
        rkeys = self._by_gid.pop(gid, None)
        if rkeys is None:
            rkeys = {k[1] for k in self._cache if k[0] == gid}
        for rk in rkeys:
            if self._cache.pop((gid, rk), None) is not None:
                self.stats_invalidated += 1
            self._stale_accepted.discard((gid, rk))
