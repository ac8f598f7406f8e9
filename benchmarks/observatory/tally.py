"""What one pass did, in simulated terms, and the digest that pins it.

A :class:`Tally` is filled by a workload's measured phase.  Everything
in it is *simulated* (nanoseconds on the engine clock, op counts,
payload checks), so for a fixed ``--seed`` and ``--scale`` it repeats
exactly from pass to pass; :meth:`Tally.digest` turns that into one
sha256 the harness compares across the passes of a run.
"""

import hashlib
import json

from repro.sim import percentile


class Tally:
    """Simulated results of one pass."""

    def __init__(self):
        #: Ops the workload issued, and those that ended in an unplanned
        #: error, an invariant violation or a wrong payload.
        self.attempted = 0
        self.failed = 0
        #: Simulated latency samples (ns) of the workload's primary op.
        self.latencies_ns = []
        #: Simulated throughput (ops/s) of the primary op stream.
        self.ops_per_s = 0.0
        #: name -> (simulated value, paper value): the workload's headline
        #: quantities that have a reference in EXPERIMENTS.md.
        self.headlines = {}
        #: Other simulated results; they only feed the digest.
        self.notes = {}
        #: Sum over the pass's simulators of (simulated ns of measured
        #: phase x RNICs): the denominator of the RNIC busy shares.
        self.rnic_capacity_ns = 0

    def op(self, ok=True, count=1):
        """Account ``count`` ops, failed unless ``ok``."""
        self.attempted += count
        if not ok:
            self.failed += count

    def check(self, ok, what):
        """An output check outside any op (invariant, final memory image):
        a miss counts as one failed op and is named in the notes."""
        if not ok:
            self.failed += 1
            self.notes.setdefault("failed_checks", []).append(what)

    def cluster_done(self, sim, cluster, started_ns):
        """Record the RNIC capacity of a deployment whose measured phase
        began at ``started_ns`` on its simulator's clock and ends now."""
        self.rnic_capacity_ns += (sim.now - started_ns) * len(cluster.nodes)

    def headline(self, name, simulated, paper):
        self.headlines[name] = (simulated, paper)

    # ------------------------------------------------------------ summaries

    def p_us(self, fraction):
        return percentile(self.latencies_ns, fraction) / 1000.0

    def paper_err_pct(self):
        """Mean absolute relative deviation (%) of the headlines from the
        paper, or 0.0 over an empty set (the workload is unvalidated)."""
        if not self.headlines:
            return 0.0
        errors = [abs(sim - paper) / paper for sim, paper in self.headlines.values()]
        return 100.0 * sum(errors) / len(errors)

    def simulated(self):
        """The simulated results as plain JSON-able data (digest input)."""
        return {
            "attempted": self.attempted,
            "failed": self.failed,
            "latencies_ns": self.latencies_ns,
            "ops_per_s": self.ops_per_s,
            "headlines": {k: list(v) for k, v in sorted(self.headlines.items())},
            "notes": self.notes,
            "rnic_capacity_ns": self.rnic_capacity_ns,
        }

    def digest(self):
        """sha256 over the simulated results."""
        text = json.dumps(self.simulated(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(text.encode()).hexdigest()
