"""Zipfian key sampling (the distribution YCSB uses, theta = 0.99)."""

import bisect
import functools
import random

#: YCSB's skew.
THETA = 0.99


@functools.lru_cache(maxsize=16)
def _zipf_cdf(n, theta):
    """The normalized CDF over ranks 0..n-1, computed once per ``(n,
    theta)`` and shared by every generator built with them."""
    cdf = []
    total = 0.0
    for rank in range(n):
        total += 1.0 / ((rank + 1) ** theta)
        cdf.append(total)
    return tuple(value / total for value in cdf)


class ZipfGenerator:
    """Samples ranks 0..n-1 with probability proportional to 1/(rank+1)^THETA.

    Deterministic for a given seed; uses a precomputed CDF + bisect so
    sampling is O(log n).
    """

    def __init__(self, n, seed=42):
        if n < 1:
            raise ValueError("n must be >= 1")
        self.n = n
        self._rng = random.Random(seed)
        self._cdf = _zipf_cdf(n, THETA)

    def sample(self):
        point = self._rng.random()
        return bisect.bisect_left(self._cdf, point)
