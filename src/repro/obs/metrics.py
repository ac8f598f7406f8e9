"""Zero-dependency metrics: counters, gauges, histograms in a registry.

The module-level global :data:`METRICS` mirrors ``repro.obs.trace.TRACER``:
``None`` unless installed, and every instrumented site guards with one
falsy check.  Metrics record *simulation* facts (operations, cache hits,
engine busy-nanoseconds), never wall-clock time, so a snapshot is as
deterministic as the run that produced it.
"""

import json

from repro.sim.stats import percentile

#: The process-wide registry consulted by instrumented call sites, or
#: ``None`` (disabled).  Install via :func:`repro.obs.install`.
METRICS = None


class Counter:
    """A monotonically non-decreasing count."""

    __slots__ = ("name", "value")

    kind = "counter"

    def __init__(self, name):
        self.name = name
        self.value = 0

    def inc(self, n=1):
        if n < 0:
            raise ValueError(f"counter {self.name}: negative increment {n}")
        self.value += n
        return self.value

    def snapshot(self):
        return self.value


class Gauge:
    """A value that can move both ways (queue depth, pool occupancy)."""

    __slots__ = ("name", "value")

    kind = "gauge"

    def __init__(self, name):
        self.name = name
        self.value = 0

    def set(self, value):
        self.value = value
        return value

    def add(self, delta):
        self.value += delta
        return self.value

    def snapshot(self):
        return self.value


class Histogram:
    """A sample distribution summarized by count/sum/min/max/percentiles.

    Percentiles delegate to :func:`repro.sim.stats.percentile` so every
    layer of the repo agrees on interpolation.
    """

    __slots__ = ("name", "samples")

    kind = "histogram"

    #: Fractions reported by :meth:`snapshot`.
    PERCENTILES = (0.5, 0.9, 0.99)

    def __init__(self, name):
        self.name = name
        self.samples = []

    def record(self, value):
        self.samples.append(value)

    def percentile(self, fraction):
        return percentile(self.samples, fraction)

    def snapshot(self):
        if not self.samples:
            return {"count": 0}
        summary = {
            "count": len(self.samples),
            "sum": sum(self.samples),
            "min": min(self.samples),
            "max": max(self.samples),
        }
        for fraction in self.PERCENTILES:
            summary[f"p{int(fraction * 100)}"] = self.percentile(fraction)
        return summary


class MetricsRegistry:
    """Named metrics, created on first use; snapshot is name-sorted."""

    def __init__(self):
        self._metrics = {}

    def _get(self, name, cls):
        metric = self._metrics.get(name)
        if metric is None:
            metric = self._metrics[name] = cls(name)
        elif metric.__class__ is not cls:
            raise TypeError(
                f"metric {name!r} is a {metric.kind}, not a {cls.kind}"
            )
        return metric

    def counter(self, name):
        return self._get(name, Counter)

    def gauge(self, name):
        return self._get(name, Gauge)

    def histogram(self, name):
        return self._get(name, Histogram)

    def __len__(self):
        return len(self._metrics)

    def __contains__(self, name):
        return name in self._metrics

    def get(self, name):
        """The metric registered under ``name``, or None."""
        return self._metrics.get(name)

    def record_run(self, dispatched, timer_fires, elapsed_ns):
        """``Simulator.on_run_end`` while this registry is installed."""
        self.counter("sim.dispatches").inc(dispatched)
        self.counter("sim.timer_fires").inc(timer_fires)
        self.counter("sim.runs").inc()
        self.counter("sim.elapsed_ns").inc(elapsed_ns)

    def value(self, name):
        """Shortcut: the snapshot value of ``name`` (0 if never touched)."""
        metric = self._metrics.get(name)
        return 0 if metric is None else metric.snapshot()

    def snapshot(self):
        """A flat, name-sorted dict of every metric's value."""
        return {
            name: self._metrics[name].snapshot()
            for name in sorted(self._metrics)
        }

    def to_json(self):
        """Canonical JSON text of :meth:`snapshot` (sorted, trailing \\n)."""
        return json.dumps(self.snapshot(), sort_keys=True, indent=1) + "\n"

    def export_json(self, path):
        """Write the snapshot to ``path``; returns the text."""
        text = self.to_json()
        with open(path, "w") as handle:
            handle.write(text)
        return text
