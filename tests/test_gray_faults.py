"""Gray-failure injection and the two-tenant overload chaos harness."""

from repro.cluster import timing
from repro.cluster.fabric import LinkFault
from repro.faults.gray import (
    GOODPUT_FLOOR,
    P99_BOUND_NS,
    GrayChaosHarness,
)

SEED = 5


# -------------------------------------------------------------- fault model


def test_link_fault_latency_multiplier():
    fault = LinkFault(latency_mult=4.0, extra_ns=100)
    assert fault.delay_ns(1000) == 4100
    # The no-fault identity: mult 1.0 must reproduce base + extra exactly
    # (the committed figure CSVs ride on this).
    assert LinkFault(extra_ns=7).delay_ns(1000) == 1007
    assert LinkFault().delay_ns(1000) == 1000
    assert not fault.drops() and not fault.duplicates()


def test_meta_lag_window():
    from repro.cluster import Cluster
    from repro.krcore import MetaServer
    from repro.sim import Simulator

    sim = Simulator()
    cluster = Cluster(sim, num_nodes=1)
    server = MetaServer(cluster.node(0))
    assert server.current_lag_ns == 0
    server.set_lag(1000, 250)
    assert server.current_lag_ns == 250
    assert server.available  # gray: slow, never dark
    sim.schedule(2000, lambda: None)
    sim.run()
    assert server.current_lag_ns == 0  # window expired


def test_rnic_degrade_window():
    from repro.cluster import Cluster
    from repro.sim import Simulator

    sim = Simulator()
    rnic = Cluster(sim, num_nodes=1).node(0).rnic
    rnic.set_degraded(1000, 8.0)
    assert rnic._degraded_until == 1000
    assert rnic._degrade_factor == 8.0


def test_rnic_degrade_slows_one_sided_reads():
    """Regression: the READ/WRITE responder block inlined in
    ``QueuePair._flight`` ignored the gray window, so RNIC_DEGRADE slowed
    SENDs and atomics but not the bulk of the traffic.  An 8 B READ issued
    inside ``set_degraded(..., 8.0)`` holds the inbound engine 8x longer,
    and completes exactly that much later."""
    from repro import obs
    from repro.cluster import Cluster
    from repro.sim import Simulator
    from repro.verbs import WorkRequest
    from tests.conftest import quick_rc_pair, register

    def one_read(factor):
        sim = Simulator()
        client, server = Cluster(sim, num_nodes=2).nodes
        qp, _ = quick_rc_pair(client, server)
        laddr, lmr = register(client, 64)
        raddr, rmr = register(server, 64)
        if factor is not None:
            server.rnic.set_degraded(1 * timing.MS, factor)

        def proc():
            qp.post_send(WorkRequest.read(laddr, 8, lmr.lkey, raddr, rmr.rkey))
            yield from qp.send_cq.wait_poll()
            return sim.now

        with obs.observe() as (_tracer, metrics):
            done_ns = sim.run_process(proc())
        return metrics.value("rnic.inbound_busy_ns"), done_ns

    healthy_busy, healthy_done = one_read(None)
    sick_busy, sick_done = one_read(8.0)
    assert healthy_busy == int(timing.READ_RESPONDER_SERVICE_NS)
    assert sick_busy == int(8.0 * timing.READ_RESPONDER_SERVICE_NS)
    assert sick_done - healthy_done == sick_busy - healthy_busy


# ------------------------------------------------------------------ harness


def test_gray_chaos_is_deterministic():
    first = GrayChaosHarness(SEED).run()
    second = GrayChaosHarness(SEED).run()
    assert first.digest() == second.digest()
    assert first.op_log == second.op_log


def test_gray_chaos_protected_rides_out_the_storm():
    report = GrayChaosHarness(SEED).run()
    assert report.all_invariants_hold, report.invariants
    assert report.victim_goodput >= GOODPUT_FLOOR
    assert report.victim_p99_ns <= P99_BOUND_NS
    # The defenses actually engaged, not just stayed out of the way.
    assert report.storm_shed > 0
    assert report.victim_ops == 80
    assert report.checker_summary.startswith("invariants=PASS")


def test_gray_chaos_unprotected_collapses():
    """The contrast run: same seed, same storm, no protection layer --
    the well-behaved tenant's goodput and p99 both blow through the
    bounds the protected run holds."""
    protected = GrayChaosHarness(SEED).run()
    unprotected = GrayChaosHarness(SEED, protected=False).run()
    assert not unprotected.invariants["victim_goodput_floor"]
    assert not unprotected.invariants["victim_p99_bounded"]
    assert unprotected.victim_goodput < protected.victim_goodput
    assert unprotected.victim_p99_ns > 2 * P99_BOUND_NS
    # No protection, no shedding: the storm runs unchecked.
    assert unprotected.storm_shed == 0


def test_gray_chaos_breaker_half_open_probe_cycle():
    """Regression: under the seeded gray plan the victim's breaker on
    the sick shard opens, probes half-open after recovery_ns, finds the
    shard still lagging, and re-opens -- all without tripping the
    breaker-state-sanity invariant."""
    harness = GrayChaosHarness(SEED, protected=True)
    report = harness.run()
    assert report.invariants["checker_clean"]
    module = harness.modules[harness.victim_node.gid]
    breaker = module._meta_breakers.get(harness.sick_shard)
    assert breaker is not None
    assert breaker.stats_opens >= 2  # opened, probed, re-opened
    assert breaker.stats_probes >= 1
    assert breaker.stats_fast_fails > 0  # open state actually fast-failed
    # The healthy replica shard's breaker never tripped.
    other = module._meta_breakers.get(1 - harness.sick_shard)
    assert other is None or other.stats_opens == 0
