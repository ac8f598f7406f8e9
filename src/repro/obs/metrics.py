"""Zero-dependency metrics: named counters in a registry.

The module-level global :data:`METRICS` mirrors ``repro.obs.trace.TRACER``:
``None`` unless installed, and every instrumented site guards with one
falsy check.  Metrics record *simulation* facts (operations, cache hits,
engine busy-nanoseconds), never wall-clock time, so a snapshot is as
deterministic as the run that produced it.  A site pushes a counter only
if a test or benchmark reads it, and a fact a ``stats_*`` attribute
already holds is not pushed again (``tests/test_counts_are_read.py``).
"""

import json

#: The process-wide registry consulted by instrumented call sites, or
#: ``None`` (disabled).  Install via :func:`repro.obs.install`.
METRICS = None


class Counter:
    """A monotonically non-decreasing count."""

    __slots__ = ("name", "value")

    def __init__(self, name):
        self.name = name
        self.value = 0

    def inc(self, n=1):
        if n < 0:
            raise ValueError(f"counter {self.name}: negative increment {n}")
        self.value += n
        return self.value


class MetricsRegistry:
    """Named counters, created on first use; snapshot is name-sorted."""

    def __init__(self):
        self._metrics = {}

    def counter(self, name):
        metric = self._metrics.get(name)
        if metric is None:
            metric = self._metrics[name] = Counter(name)
        return metric

    def record_run(self, timer_fires):
        """``Simulator.on_run_end`` while this registry is installed."""
        self.counter("sim.timer_fires").inc(timer_fires)

    def value(self, name):
        """Shortcut: the value of ``name`` (0 if never touched)."""
        metric = self._metrics.get(name)
        return 0 if metric is None else metric.value

    def snapshot(self):
        """A flat, name-sorted dict of every counter's value."""
        return {
            name: self._metrics[name].value
            for name in sorted(self._metrics)
        }

    def to_json(self):
        """Canonical JSON text of :meth:`snapshot` (sorted, trailing \\n)."""
        return json.dumps(self.snapshot(), sort_keys=True, indent=1) + "\n"
