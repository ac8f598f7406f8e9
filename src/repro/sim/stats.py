"""Measurement helpers: latency samples, percentiles, throughput meters."""

import math


def percentile(samples, fraction):
    """Return the ``fraction`` (0..1) percentile by linear interpolation."""
    if not samples:
        raise ValueError("no samples")
    if not 0.0 <= fraction <= 1.0:
        raise ValueError("fraction must be within [0, 1]")
    ordered = sorted(samples)
    if len(ordered) == 1:
        return ordered[0]
    rank = fraction * (len(ordered) - 1)
    low = math.floor(rank)
    high = math.ceil(rank)
    if low == high:
        return ordered[low]
    weight = rank - low
    return ordered[low] * (1.0 - weight) + ordered[high] * weight


class LatencyRecorder:
    """Collects latency samples (ns) and summarizes them."""

    __slots__ = ("samples",)

    def __init__(self):
        self.samples = []

    def record(self, latency_ns):
        if latency_ns < 0:
            raise ValueError("negative latency")
        self.samples.append(latency_ns)

    def __len__(self):
        return len(self.samples)

    @property
    def count(self):
        return len(self.samples)

    def mean(self):
        if not self.samples:
            raise ValueError("no samples")
        return sum(self.samples) / len(self.samples)

    def p(self, fraction):
        return percentile(self.samples, fraction)

    def min(self):
        return min(self.samples)

    def max(self):
        return max(self.samples)

    def mean_us(self):
        return self.mean() / 1_000.0

    def cdf(self, points=100):
        """Return (latency_ns, cumulative_fraction) pairs for plotting."""
        if not self.samples:
            return []
        ordered = sorted(self.samples)
        n = len(ordered)
        step = max(1, n // points)
        curve = []
        for index in range(0, n, step):
            curve.append((ordered[index], (index + 1) / n))
        if curve[-1][0] != ordered[-1]:
            curve.append((ordered[-1], 1.0))
        return curve


class RateMeter:
    """Counts events over a simulated-time window to compute throughput."""

    __slots__ = ("sim", "count", "_window_start")

    def __init__(self, sim):
        self.sim = sim
        self.count = 0
        self._window_start = sim.now

    def tick(self, n=1):
        self.count += n

    def reset(self):
        self.count = 0
        self._window_start = self.sim.now

    @property
    def elapsed_ns(self):
        return self.sim.now - self._window_start

    def rate_per_sec(self):
        elapsed = self.elapsed_ns
        if elapsed <= 0:
            raise ValueError("no elapsed simulated time")
        return self.count * 1_000_000_000 / elapsed
