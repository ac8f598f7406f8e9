"""Exact-count gate of the perf observatory.

    python3 benchmarks/counts.py [--update]
    make counts

Wall time cannot gate on a shared runner; counts can.  Per workload of
``BENCHMARK.json`` this runs one traced pass of the *unmodified*
``benchmarks/observatory/run.py`` (``--seed 1 --seconds 1 --trace 1``; the
counts do not depend on ``--seconds``) and compares ``attempted``,
``failed`` and every metric whose unit in ``BENCHMARK.json`` is ``count``
with ``tests/observatory_counts.json``, to the digit.  Any difference is
printed and the exit status is non-zero: a count may fall with a sentence
in the PR and ``--update`` (which rewrites the file), never move silently.
About 20 s per workload.
"""

import argparse
import json
import pathlib
import sys
import tempfile

from ab import ROOT, run_side

SEED = 1
PINNED = ROOT / "tests" / "observatory_counts.json"


def count_names(spec):
    """The gated metrics: selected by unit, no hand list."""
    return [m["name"] for m in spec["per_layer"] if m["unit"] == "count"]


def measure(spec, work):
    """``{workload: {name: value}}`` of one traced pass per workload."""
    names = count_names(spec)
    measured = {}
    for workload in (w["name"] for w in spec["workloads"]):
        record = run_side(ROOT, workload, SEED, 1, work / f"{workload}.json", trace=1)
        if record["exit"]:
            sys.exit(f"counts.py: {workload} failed its own checks (exit {record['exit']}): "
                     f"{record['failed_checks'] or record['failed']}")
        counts = {"attempted": record["attempted"], "failed": record["failed"]}
        counts.update((name, record["metrics"][name]["value"]) for name in names)
        measured[workload] = counts
        print(f"{workload}: sim.events {counts['sim.events']}, attempted {counts['attempted']}",
              flush=True)
    return measured


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--update", action="store_true",
                        help=f"rewrite {PINNED.relative_to(ROOT)} with what was measured")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    with tempfile.TemporaryDirectory(prefix="observatory-counts-") as work:
        measured = measure(spec, pathlib.Path(work))
    if args.update:
        PINNED.write_text(json.dumps(measured, indent=1) + "\n")
        print(f"wrote {PINNED.relative_to(ROOT)}")
        return 0
    pinned = json.loads(PINNED.read_text())
    moved = []
    for workload in sorted(pinned.keys() | measured.keys()):
        was, now = pinned.get(workload, {}), measured.get(workload, {})
        moved += [
            f"{workload} {name}: pinned {was.get(name)}, measured {now.get(name)}"
            for name in sorted(was.keys() | now.keys())
            if was.get(name) != now.get(name)
        ]
    for line in moved:
        print(f"MOVED {line}")
    print(f"{sum(map(len, measured.values()))} counts measured, {len(moved)} differ from the file")
    return 1 if moved else 0


if __name__ == "__main__":
    sys.exit(main())
