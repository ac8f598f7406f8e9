"""Measurement helpers: latency samples and percentiles."""

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

    def mean(self):
        if not self.samples:
            raise ValueError("no samples")
        return sum(self.samples) / len(self.samples)

    def p(self, fraction):
        return percentile(self.samples, fraction)
