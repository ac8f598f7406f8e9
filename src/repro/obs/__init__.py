"""``repro.obs``: the observability layer (structured tracing + metrics).

The control plane's argument is *where the time goes* (Fig 3's 413 us
``create_qp`` vs sub-microsecond DCT reconnection); this package makes
that visible inside the reproduction.  A :class:`Tracer` records
span/instant events stamped with simulated nanoseconds and exports
Chrome trace-event JSON (Perfetto / ``about://tracing``); a
:class:`MetricsRegistry` holds named counters and exports a flat
snapshot.

Both are *globally installed* and consulted by instrumented call sites
throughout the simulator (engine, verbs, KRCORE, cluster, faults) behind
a single falsy check, so with nothing installed the hot path cost is one
module-attribute load::

    with obs.observe() as (tracer, metrics):
        sim.run_process(...)
    pathlib.Path("trace.json").write_text(tracer.to_json())

Because the simulation is deterministic, a fixed seed produces a
byte-identical trace export -- see ``tests/test_obs_golden.py``.
"""

from contextlib import contextmanager

from repro.obs import metrics as _metrics_mod
from repro.obs import trace as _trace_mod
from repro.obs.metrics import Counter, MetricsRegistry
from repro.obs.trace import Tracer
from repro.sim import Simulator

__all__ = [
    "Counter",
    "MetricsRegistry",
    "Tracer",
    "current_metrics",
    "current_tracer",
    "install",
    "observe",
    "uninstall",
]


def install(metrics):
    """Install the process-wide metrics registry alone, tracing off (a
    tracer comes with :func:`observe`)."""
    _install_metrics(metrics)


def uninstall():
    """Remove both the tracer and the metrics registry (idempotent)."""
    _trace_mod.TRACER = None
    _install_metrics(None)


def _install_metrics(registry):
    """Make ``registry`` (or None) the one the call sites and the
    simulator's run-end hook report to."""
    _metrics_mod.METRICS = registry
    Simulator.on_run_end = None if registry is None else registry.record_run


def current_tracer():
    return _trace_mod.TRACER


def current_metrics():
    return _metrics_mod.METRICS


@contextmanager
def observe(tracer=None, metrics=None):
    """Context manager: install fresh (or given) observers, then restore.

    Yields ``(tracer, metrics)``.  The previous observers are restored on
    exit, so nested/observing tests never leak global state.
    """
    if tracer is None:
        tracer = Tracer()
    if metrics is None:
        metrics = MetricsRegistry()
    previous = (_trace_mod.TRACER, _metrics_mod.METRICS)
    _trace_mod.TRACER = tracer
    _install_metrics(metrics)
    try:
        yield tracer, metrics
    finally:
        _trace_mod.TRACER = previous[0]
        _install_metrics(previous[1])
