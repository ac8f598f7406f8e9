"""Fault plans: seeded, deterministic schedules of cluster faults.

A plan is data, not behavior: a sorted list of :class:`FaultEvent`
records, each naming a fault kind, a simulated timestamp, and kind-
specific parameters.  The :class:`repro.faults.injector.FaultInjector`
interprets them.  Because every random choice (both in
:meth:`FaultPlan.random` and in the per-link packet draws seeded from
the plan) derives from the plan's seed, a chaos run is reproducible from
``(seed, workload parameters)`` alone.
"""

import random

from repro.cluster import timing
from repro.cluster.rnic import ENGINES

#: Fault kinds understood by the injector.
LINK_FAULT = "link_fault"  # gid pair degraded for a window
RNIC_STALL = "rnic_stall"  # one engine wedged for a duration
NODE_CRASH = "node_crash"  # node fails (fabric detach + alive=False)
NODE_RESTART = "node_restart"  # failed node reboots (fresh RNIC/DRAM)
META_OUTAGE = "meta_outage"  # meta service unreachable for a window

#: Gray-failure kinds: everything stays alive, everything gets slow.
GRAY_LINK = "gray_link"  # wire latency multiplied for a window
META_LAG = "meta_lag"  # meta lookups serve with extra latency
RNIC_DEGRADE = "rnic_degrade"  # RNIC engines run N times slower


class FaultEvent:
    """One scheduled fault.  ``params`` is kind-specific (see builders)."""

    __slots__ = ("at_ns", "kind", "params")

    def __init__(self, at_ns, kind, **params):
        self.at_ns = int(at_ns)
        self.kind = kind
        self.params = params

    def __repr__(self):
        inner = ", ".join(f"{k}={v!r}" for k, v in sorted(self.params.items()))
        return f"FaultEvent(at={self.at_ns}, kind={self.kind!r}, {inner})"


class FaultPlan:
    """A deterministic fault schedule.

    Builder methods append events and return ``self`` for chaining::

        plan = (
            FaultPlan(seed=42)
            .degrade_link(1 * MS, "node2", "node1", duration_ns=2 * MS,
                          drop_prob=0.05)
            .crash_node(3 * MS, "node1")
            .restart_node(5 * MS, "node1")
        )
    """

    def __init__(self, seed=1):
        self.seed = seed
        self.events = []

    # ------------------------------------------------------------- builders

    def _add(self, event):
        self.events.append(event)
        return self

    def _link(self, kind, at_ns, src_gid, dst_gid, both_ways, **params):
        """Add a ``kind`` window on src -> dst, then on dst -> src if
        ``both_ways``."""
        self._add(FaultEvent(at_ns, kind, src_gid=src_gid, dst_gid=dst_gid, **params))
        if both_ways:
            self._add(FaultEvent(at_ns, kind, src_gid=dst_gid, dst_gid=src_gid, **params))
        return self

    def degrade_link(self, at_ns, src_gid, dst_gid, duration_ns, drop_prob=0.0,
                     dup_prob=0.0, extra_ns=0, both_ways=False):
        """Degrade the directed link src -> dst (and optionally the
        reverse) for ``duration_ns``: packets drop / duplicate with the
        given probabilities and every traversal gains ``extra_ns``."""
        return self._link(
            LINK_FAULT, at_ns, src_gid, dst_gid, both_ways,
            duration_ns=int(duration_ns), drop_prob=drop_prob,
            dup_prob=dup_prob, extra_ns=int(extra_ns),
        )

    def stall_rnic(self, at_ns, gid, duration_ns, engine="command"):
        """Wedge one of ``gid``'s RNIC engines (``"command"`` or
        ``"inbound"``) for ``duration_ns``; queued work backs up FIFO."""
        if engine not in ENGINES:
            raise ValueError(f"unknown RNIC engine {engine!r}: expected one of {ENGINES}")
        return self._add(
            FaultEvent(
                at_ns, RNIC_STALL, gid=gid, duration_ns=int(duration_ns), engine=engine
            )
        )

    def crash_node(self, at_ns, gid):
        """Fail ``gid``: detached from the fabric, in-flight inbound ops
        error out on the requester side, DCT metadata is retracted."""
        return self._add(FaultEvent(at_ns, NODE_CRASH, gid=gid))

    def restart_node(self, at_ns, gid):
        """Reboot a previously crashed ``gid`` (fresh RNIC, DRAM, and a
        new DCT key once its software stack reloads)."""
        return self._add(FaultEvent(at_ns, NODE_RESTART, gid=gid))

    def meta_outage(self, at_ns, duration_ns, shard=None):
        """Make the meta service unreachable for ``duration_ns``.

        With a sharded plane, ``shard=i`` darkens only shard ``i`` (its
        replicas keep serving, so clients fail over); ``shard=None``
        darkens the whole plane, forcing the RC-fallback degraded path."""
        return self._add(
            FaultEvent(at_ns, META_OUTAGE, duration_ns=int(duration_ns), shard=shard)
        )

    def gray_link(self, at_ns, src_gid, dst_gid, duration_ns,
                  latency_mult=4.0, extra_ns=0, both_ways=False):
        """Gray-degrade the directed link src -> dst for ``duration_ns``:
        no loss, but every traversal takes ``latency_mult`` times longer
        (plus ``extra_ns``) -- a congested or renegotiated-down link."""
        return self._link(
            GRAY_LINK, at_ns, src_gid, dst_gid, both_ways,
            duration_ns=int(duration_ns), latency_mult=float(latency_mult),
            extra_ns=int(extra_ns),
        )

    def lag_meta(self, at_ns, duration_ns, extra_ns, shard=None):
        """Lag the meta service: lookups keep *succeeding* but each takes
        ``extra_ns`` longer for ``duration_ns``.  The hard half of the
        meta fault space -- outages trip the binary defenses (retry, RC
        fallback); lag is only visible to latency-aware ones (circuit
        breakers, deadline budgets).  ``shard`` routes as in
        :meth:`meta_outage`."""
        return self._add(
            FaultEvent(
                at_ns,
                META_LAG,
                duration_ns=int(duration_ns),
                extra_ns=int(extra_ns),
                shard=shard,
            )
        )

    def degrade_rnic(self, at_ns, gid, duration_ns, factor=8.0):
        """Run ``gid``'s RNIC engines ``factor`` times slower for
        ``duration_ns`` (thermal throttling / sick firmware)."""
        return self._add(
            FaultEvent(
                at_ns,
                RNIC_DEGRADE,
                gid=gid,
                duration_ns=int(duration_ns),
                factor=float(factor),
            )
        )

    # -------------------------------------------------------------- queries

    def sorted_events(self):
        """Events in firing order (stable for same-timestamp events)."""
        return sorted(self.events, key=lambda e: e.at_ns)

    def crash_targets(self):
        return {e.params["gid"] for e in self.events if e.kind == NODE_CRASH}

    def __len__(self):
        return len(self.events)

    def __repr__(self):
        return f"FaultPlan(seed={self.seed}, events={len(self.events)})"

    # ------------------------------------------------------------ generation

    @classmethod
    def random(
        cls,
        seed,
        victim_gids,
        horizon_ns,
        meta_gid=None,
        events=6,
    ):
        """A random-but-reproducible plan over ``victim_gids``.

        ``meta_gid`` (if given) is never crashed or stalled -- outages are
        injected through :meth:`meta_outage` windows instead, so the
        pre-connected meta QPs survive and the degraded paths (backoff,
        stale-lease acceptance, RC fallback) stay reachable.  A crashed
        victim is always scheduled to restart before ``horizon_ns``.
        """
        rng = random.Random(seed)
        victims = [g for g in victim_gids if g != meta_gid]
        if not victims:
            raise ValueError("no victim gids to build a plan from")
        plan = cls(seed=seed)
        crashed = set()
        for _ in range(events):
            kind = rng.choice(
                [LINK_FAULT, LINK_FAULT, RNIC_STALL, NODE_CRASH, META_OUTAGE]
            )
            at = rng.randrange(horizon_ns // 10, (horizon_ns * 6) // 10)
            if kind == LINK_FAULT:
                src = rng.choice(victims)
                dst = rng.choice([g for g in victim_gids if g != src] or victims)
                plan.degrade_link(
                    at,
                    src,
                    dst,
                    duration_ns=rng.randrange(horizon_ns // 10, horizon_ns // 3),
                    drop_prob=rng.choice([0.02, 0.05, 0.10]),
                    dup_prob=rng.choice([0.0, 0.02]),
                    extra_ns=rng.choice([0, 2 * timing.US]),
                    both_ways=rng.random() < 0.5,
                )
            elif kind == RNIC_STALL:
                plan.stall_rnic(
                    at,
                    rng.choice(victims),
                    duration_ns=rng.randrange(10 * timing.US, 100 * timing.US),
                    engine=rng.choice(["command", "inbound"]),
                )
            elif kind == NODE_CRASH:
                candidates = [g for g in victims if g not in crashed]
                if not candidates:
                    continue
                gid = rng.choice(candidates)
                crashed.add(gid)
                plan.crash_node(at, gid)
                plan.restart_node(
                    at + rng.randrange(horizon_ns // 10, horizon_ns // 4), gid
                )
            elif kind == META_OUTAGE:
                plan.meta_outage(
                    at, duration_ns=rng.randrange(horizon_ns // 20, horizon_ns // 8)
                )
        return plan
