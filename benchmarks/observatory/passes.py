"""Running passes: timed (nothing installed) and traced (T1, T2, T3).

A pass is a workload's set-up phase (cluster build, module boot, MR
registration, pre-connection, cache warm-up) followed by its measured
phase (``sim.run`` of the seeded op stream).  Both phases are timed
with the host clock; everything the measured phase reports is simulated.

The cyclic GC is paused inside a pass, as ``repro.bench.perf.run_figure``
does: the engine allocates millions of short-lived records that
reference counting already reclaims, and generation-0 collections cost
about a fifth of wall time.  A full collection runs between passes, with
the previous pass's objects already dropped, so every pass after the
warm-up starts from the same heap.
"""

import cProfile
import contextlib
import gc
import heapq
import pathlib
import pstats
import statistics
import time

from repro import obs
from repro.sim import Simulator

from tally import Tally

#: Fewest timed passes a run reports medians over.
MIN_PASSES = 3

#: The reference kernel's size, and the seconds it is *defined* to take:
#: host times are reported at the speed at which it takes exactly that.
REF_STEPS = 400_000
REF_NOMINAL_S = 0.23

OBSERVATORY_DIR = str(pathlib.Path(__file__).resolve().parent)

#: T1 buckets: the ``repro`` packages a workload can spend host time in,
#: the benchmark's own code, and everything else (C builtins, stdlib).
LAYERS = (
    "sim", "verbs", "cluster", "kvs", "krcore", "lite", "apps", "workloads",
    "faults", "degrade", "check", "obs", "driver", "builtins",
)


class PassResult:
    __slots__ = ("setup_s", "wall_s", "tally", "events")

    def __init__(self, setup_s, wall_s, tally, events):
        self.setup_s = setup_s
        self.wall_s = wall_s
        self.tally = tally
        #: Engine events dispatched in the measured phase.
        self.events = events


@contextlib.contextmanager
def gc_paused():
    """A full collection, then no cyclic GC inside the block."""
    gc.collect()
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if gc_was_enabled:
            gc.enable()


def run_pass(workload, seed, scale, observer=contextlib.nullcontext):
    """One pass of ``workload``.  ``observer()`` is entered around the
    measured phase only: the set-up phase always runs with nothing
    installed, and every per-layer number is about the phase ``wall_s``
    times."""
    with gc_paused():
        started = time.perf_counter()
        one = workload.Pass(seed, scale)
        one.setup()
        set_up = time.perf_counter()
        events_before = Simulator.total_events_dispatched
        tally = Tally()
        with observer():
            one.measure(tally)
        done = time.perf_counter()
    events = Simulator.total_events_dispatched - events_before
    return PassResult(set_up - started, done - set_up, tally, events)


def reference_kernel():
    """Seconds this host takes for a fixed piece of interpreter work that
    uses nothing from the repo: generator resumption, heap push and pop,
    dict and tuple traffic -- the simulator's diet, without its code.

    The build host runs 10-20 % slower or faster for minutes at a time
    (CPU time moves with wall time, pinning does not help), which no
    statistic over one run's passes can see.  Timing this kernel between
    the passes does see it, and a change to the repo cannot move it."""
    def ticker(k):
        t = k
        while True:
            t += 1 + (k & 7)
            yield t

    with gc_paused():
        started = time.perf_counter()
        push, pop = heapq.heappush, heapq.heappop
        tickers = [ticker(k) for k in range(64)]
        heap = []
        for k, one in enumerate(tickers):
            push(heap, (next(one), k))
        table = {}
        seen = 0
        for _ in range(REF_STEPS):
            t, k = pop(heap)
            table[t & 65535] = (t, k)
            seen += len(table.get((t * 7) & 65535, ()))
            push(heap, (next(tickers[k]), k))
        return time.perf_counter() - started


def quartiles(values):
    """(q1, median, q3); a single value is its own quartiles."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def timed_passes(workload, seed, scale, seconds):
    """One untimed warm-up pass, then timed passes with no tracer,
    registry or profiler installed until ``seconds`` of host time have
    gone by (at least :data:`MIN_PASSES`), the reference kernel timed
    before, between and after them.  Returns the passes and the host's
    speed over the run: above 1 when it ran the kernel faster than
    :data:`REF_NOMINAL_S`."""
    if obs.current_tracer() is not None or obs.current_metrics() is not None:
        raise RuntimeError("timed passes need repro.obs uninstalled")
    run_pass(workload, seed, scale)
    results = []
    kernel_s = [reference_kernel()]
    deadline = time.perf_counter() + seconds
    while len(results) < MIN_PASSES or time.perf_counter() < deadline:
        results.append(run_pass(workload, seed, scale))
        kernel_s.append(reference_kernel())
    return results, REF_NOMINAL_S / statistics.median(kernel_s)


# ---------------------------------------------------------------------------
# traced passes
# ---------------------------------------------------------------------------


def _layer_of(filename):
    head, sep, tail = filename.replace("\\", "/").rpartition("/repro/")
    if sep:
        package = tail.split("/", 1)[0]
        if package in LAYERS:
            return package
        if package == "bench":
            return "driver"  # the cluster builders in repro.bench.setups
    if filename.startswith(OBSERVATORY_DIR):
        return "driver"
    return "builtins"


def profiled_pass(workload, seed, scale):
    """T1: one pass with cProfile around the measured phase; returns
    layer -> self seconds."""
    profiler = cProfile.Profile()
    run_pass(workload, seed, scale, observer=lambda: profiler)
    self_s = dict.fromkeys(LAYERS, 0.0)
    for (filename, _line, _name), row in pstats.Stats(profiler).stats.items():
        self_s[_layer_of(filename)] += row[2]
    return self_s


@contextlib.contextmanager
def _metrics_only(registry):
    obs.install(metrics=registry)
    try:
        yield
    finally:
        obs.uninstall()


def metrics_pass(workload, seed, scale):
    """T2: one pass with a metrics registry and no tracer on the measured
    phase; returns the pass and the registry snapshot."""
    registry = obs.MetricsRegistry()
    result = run_pass(workload, seed, scale, observer=lambda: _metrics_only(registry))
    return result, registry.snapshot()


def traced_pass(workload, seed, scale):
    """T3: one pass with tracer and registry on the measured phase;
    returns the pass, the registry snapshot and the number of trace
    events recorded."""
    tracer, registry = obs.Tracer(), obs.MetricsRegistry()
    result = run_pass(
        workload, seed, scale, observer=lambda: obs.observe(tracer, registry)
    )
    return result, registry.snapshot(), len(tracer)


def _ratio(part, whole):
    return part / whole if whole else 0.0


def layer_counts(result, snapshot):
    """The exact T2 per-layer counts of one metrics pass."""
    def count(name):
        return snapshot.get(name, 0)

    tally = result.tally
    dc_lookups = count("krcore.dc_cache_hits") + count("krcore.dc_cache_misses")
    mr_checks = (
        count("krcore.mrstore_hits") + count("krcore.mrstore_misses")
        + count("krcore.mrstore_stale_hits")
    )
    grabs = count("krcore.pool_rc_grabs") + count("krcore.pool_dc_grabs")
    return {
        "sim.events": result.events,
        "sim.timer_fires": count("sim.timer_fires"),
        "sim.events_per_op": _ratio(result.events, tally.attempted),
        "verbs.wr_posted": count("verbs.wr_posted"),
        "verbs.doorbell_batched_wrs": count("verbs.doorbell_batched_wrs"),
        "verbs.retransmits": count("verbs.retransmits"),
        "verbs.qp_errors": count("verbs.qp_errors"),
        "verbs.dc_retargets": count("verbs.dc_retargets"),
        "cluster.rnic_command_ops": count("rnic.command_ops"),
        "cluster.rnic_command_busy_share": _ratio(
            count("rnic.command_busy_ns"), tally.rnic_capacity_ns
        ),
        "cluster.rnic_inbound_busy_share": _ratio(
            count("rnic.inbound_busy_ns"), tally.rnic_capacity_ns
        ),
        "cluster.fabric_hops": count("fabric.hops"),
        "cluster.fabric_bytes": count("fabric.bytes"),
        "krcore.qconnects": count("krcore.qconnects"),
        "krcore.dccache_hit_ratio": _ratio(count("krcore.dc_cache_hits"), dc_lookups),
        "krcore.mrstore_hit_ratio": _ratio(count("krcore.mrstore_hits"), mr_checks),
        "krcore.mrstore_stale_accepts": count("krcore.mrstore_stale_accepts"),
        "krcore.meta_rpcs": count("krcore.meta_rpcs"),
        "krcore.meta_failovers": count("krcore.meta_failovers"),
        "krcore.pool_rc_share": _ratio(count("krcore.pool_rc_grabs"), grabs),
        "krcore.rc_fallbacks": count("krcore.rc_fallbacks"),
        "faults.injected": count("faults.injected"),
        "degrade.admission_rejects": (
            count("degrade.admission_rejected") + count("degrade.admission_shed")
        ),
    }
