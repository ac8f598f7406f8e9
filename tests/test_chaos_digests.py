"""Chaos report digests pinned across commits.

``tests/golden/chaos_digests.json`` holds ``report.digest()`` of 31
seeded chaos runs: the YCSB scenario on random plans (seeds 1-10), the
three named schedules of ``test_chaos.py`` and the 2-shard plan of
``test_chaos_smoke.py``; the gray scenario at seeds 1-5, protected and
not; the MicroView scenario at seeds 1-5; the partitioned scale run at
seed 5, P = 2 and 4.  The other chaos tests only compare two runs of one
commit; this one fails when a change moves any op, fault or invariant
of a run.  Regenerate (``python tests/test_chaos_digests.py --regen``)
only for a change meant to move them, and say which and why.
"""

import json
import pathlib

from repro.faults.gray import GrayChaosHarness
from repro.faults.harness import ChaosHarness
from repro.faults.microview import MicroViewChaosHarness
from repro.faults.scale import run_scale_chaos
from tests.test_chaos import SCHEDULES
from tests.test_chaos_smoke import SEED, _sharded_plan

GOLDEN = pathlib.Path(__file__).parent / "golden" / "chaos_digests.json"


def _digests():
    out = {}
    for seed in range(1, 11):
        out[f"ycsb/random/{seed}"] = ChaosHarness(seed).run().digest()
    for name, make_plan, seed in SCHEDULES:
        out[f"ycsb/{name}"] = ChaosHarness(seed, plan=make_plan(seed)).run().digest()
    out["ycsb/sharded-failover"] = ChaosHarness(
        SEED, plan=_sharded_plan(), ops_per_client=30, meta_shards=2
    ).run().digest()
    for seed in range(1, 6):
        out[f"gray/{seed}/protected"] = GrayChaosHarness(seed).run().digest()
        out[f"gray/{seed}/unprotected"] = GrayChaosHarness(
            seed, protected=False
        ).run().digest()
        out[f"microview/{seed}"] = MicroViewChaosHarness(seed).run().digest()
    for partitions in (2, 4):
        out[f"scale/5/P{partitions}"] = run_scale_chaos(
            5, partitions=partitions
        ).digest()
    return out


def test_chaos_digests_match_the_pinned_recording():
    assert _digests() == json.loads(GOLDEN.read_text())


if __name__ == "__main__":
    import sys

    if "--regen" in sys.argv:
        GOLDEN.write_text(json.dumps(_digests(), indent=2, sort_keys=True) + "\n")
        print(f"wrote {GOLDEN}")
    else:
        print("usage: PYTHONPATH=src:. python tests/test_chaos_digests.py --regen")
