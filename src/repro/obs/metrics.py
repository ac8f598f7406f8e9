"""Named counters of *simulation* facts, never wall-clock time, so a
snapshot is as deterministic as its run.  Which probe bumps which counter
is declared in :mod:`repro.obs.probes`."""

import json


class Counter:
    """A monotonically non-decreasing count."""

    __slots__ = ("name", "value")

    def __init__(self, name):
        self.name = name
        self.value = 0

    def inc(self, n):
        if n < 0:
            raise ValueError(f"counter {self.name}: negative increment {n}")
        self.value += n
        return self.value


class MetricsRegistry:
    """Named counters, created on first use; snapshot is name-sorted."""

    def __init__(self):
        #: Name -> :class:`Counter`, each made on first use.
        self.counters = {}

    def counter(self, name):
        metric = self.counters.get(name)
        if metric is None:
            metric = self.counters[name] = Counter(name)
        return metric

    def value(self, name):
        """Shortcut: the value of ``name`` (0 if never touched)."""
        metric = self.counters.get(name)
        return 0 if metric is None else metric.value

    def snapshot(self):
        """A flat, name-sorted dict of every counter's value."""
        return {
            name: self.counters[name].value
            for name in sorted(self.counters)
        }

    def to_json(self):
        """Canonical JSON text of :meth:`snapshot` (sorted, trailing \\n)."""
        return json.dumps(self.snapshot(), sort_keys=True, indent=1) + "\n"
