"""YCSB workload mixes (Cooper et al., SoCC'10).

YCSB-C (100% reads, Zipfian) is the mix the paper uses for RACE (§5.3.1).
"""

import random

from repro.workloads.zipf import ZipfGenerator

YCSB_A = {"read": 0.5, "update": 0.5}
YCSB_B = {"read": 0.95, "update": 0.05}
YCSB_C = {"read": 1.0, "update": 0.0}


class YcsbWorkload:
    """Generates (op, key) pairs for a YCSB mix over ``num_keys`` keys."""

    def __init__(self, mix=None, num_keys=10_000, seed=7):
        self.mix = dict(YCSB_C if mix is None else mix)
        read_fraction = self.mix.get("read", 0.0)
        update_fraction = self.mix.get("update", 0.0)
        if abs(read_fraction + update_fraction - 1.0) > 1e-9:
            raise ValueError("mix fractions must sum to 1")
        self.read_fraction = read_fraction
        self.num_keys = num_keys
        self._zipf = ZipfGenerator(num_keys, seed=seed)
        self._rng = random.Random(seed + 1)

    @staticmethod
    def key_bytes(rank):
        return b"user%08d" % rank

    def next_op(self):
        """Returns ("read"|"update", key_bytes)."""
        rank = self._zipf.sample()
        op = "read" if self._rng.random() < self.read_fraction else "update"
        return op, self.key_bytes(rank)

    def load_keys(self):
        """Every key, for the initial load phase."""
        return [self.key_bytes(rank) for rank in range(self.num_keys)]
