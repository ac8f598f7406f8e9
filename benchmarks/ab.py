"""Paired A/B of the perf observatory: a parent commit against this tree.

    python3 benchmarks/ab.py --parent SHA [--workload W ...] [--pairs 10]
                             [--metric NAME] [--seconds N] [--seed-base S]
                             [--keep DIR]
    make ab PARENT=<sha> WORKLOAD=<w> PAIRS=10 [METRIC=peak_rss_mb]

Clones the parent into a temporary directory and runs the *unmodified*
``benchmarks/observatory/run.py`` of each side (``--trace 0``, one fresh
process per run, one seed per pair, the side that runs first alternating
from pair to pair), then prints per workload the pair table of the claimed
metric (``--metric``, default ``wall_s``), each end-to-end metric's medians
with quartiles and wins, how many pairs have bit-identical ``sim_ops_per_s``
and digests, each side's median count of timed passes per run, and
``compare.py``'s verdicts over the same files.  A run keeps every pass's
tally, so a side that fits fewer passes into its seconds also reads a lower
``peak_rss_mb``: read that verdict beside the pass counts.  Use seeds
not used while the change was written.  Exits non-zero when a run failed its
checks or ``compare.py`` reports a row ``worse``.  Leave the host alone while
it runs.
"""

import argparse
import json
import pathlib
import statistics
import subprocess
import sys
import tempfile

ROOT = pathlib.Path(__file__).resolve().parent.parent
OBSERVATORY = pathlib.Path("benchmarks") / "observatory"


def run_side(tree, workload, seed, seconds, out, trace=0):
    """One fresh process of ``tree``'s own ``run.py``; returns its ``--out``
    record plus ``exit``.  A run that leaves no record ends the tool with the
    command, its exit code and its stderr."""
    command = [
        sys.executable, str(tree / OBSERVATORY / "run.py"), "--workload", workload,
        "--seed", str(seed), "--trace", str(trace), "--out", str(out),
    ]
    if seconds is not None:
        command += ["--seconds", str(seconds)]
    out.unlink(missing_ok=True)  # never read a record an earlier run left
    done = subprocess.run(command, cwd=tree, stdout=subprocess.DEVNULL,
                          stderr=subprocess.PIPE, text=True)
    try:
        record = json.loads(out.read_text())
    except (OSError, ValueError):
        sys.exit(f"{' '.join(command)}\nexit {done.returncode}, no result in {out}; "
                 f"stderr:\n{done.stderr.rstrip() or '(empty)'}")
    sys.stderr.write(done.stderr)
    record["exit"] = done.returncode
    return record


def summarize(workload, pairs, metrics, claimed):
    """Print the pair table of ``claimed`` and the per-metric rows of one workload."""
    print(f"\n## {workload}: {len(pairs)} pair(s)")
    width = len(claimed) + 8
    print(f"{'seed':>6s} {'ran first':>10s} {'parent ' + claimed:>{width}s} "
          f"{'change ' + claimed:>{width}s} {'ratio':>7s}")
    for seed, first, base, new in pairs:
        b, n = base["metrics"][claimed]["value"], new["metrics"][claimed]["value"]
        # Four significant figures: a setup_s of 0.0185 s is not "0.018".
        print(f"{seed:6d} {first:>10s} {b:{width}.4g} {n:{width}.4g} {n / b:7.3f}")
    for name, better in metrics:
        base = [p[2]["metrics"][name]["value"] for p in pairs]
        new = [p[3]["metrics"][name]["value"] for p in pairs]
        if base == new:
            print(f"{name:14s} identical in {len(pairs)}/{len(pairs)} pairs ({statistics.median(base):.6g})")
            continue
        sign = -1 if better == "lower" else 1
        wins = sum(sign * (n - b) > 0 for b, n in zip(base, new))
        same = sum(b == n for b, n in zip(base, new))
        print(
            f"{name:14s} parent {_spread(base)}  change {_spread(new)}  "
            f"x{statistics.median(new) / statistics.median(base):.3f}  wins {wins}/{len(pairs)}"
            + (f"  equal {same}/{len(pairs)}" if same else "")
        )
    passes = [statistics.median(p[side]["metrics"]["wall_s"]["samples"] for p in pairs)
              for side in (2, 3)]
    print(f"timed passes per run, median: parent {passes[0]:g}, change {passes[1]:g}")
    digests = sum(p[2]["digest"] == p[3]["digest"] for p in pairs)
    failed = sum(p[side]["failed"] for p in pairs for side in (2, 3))
    print(f"digest equal to the parent's in {digests}/{len(pairs)} pairs; failed ops {failed}")


def _spread(values):
    if len(values) < 2:
        return f"{values[0]:.4g}"
    q1, median, q3 = statistics.quantiles(values, n=4)
    return f"{median:.4g} [{q1:.4g}, {q3:.4g}]"


def main(argv=None):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="commit to compare this tree against")
    parser.add_argument("--workload", action="append", choices=names,
                        help="repeatable; default: every workload")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--metric", default="wall_s",
                        choices=[m["name"] for m in spec["end_to_end"]],
                        help="end-to-end metric the pair table prints (the claimed one)")
    parser.add_argument("--seconds", type=float, default=None,
                        help="host seconds per run (default: BENCHMARK.json run_seconds)")
    parser.add_argument("--seed-base", type=int, default=1001, help="pair i runs seed base + i")
    parser.add_argument("--keep", help="keep the result files (and the clone) in this directory")
    args = parser.parse_args(argv)
    metrics = [(m["name"], m["better"]) for m in spec["end_to_end"]]
    with tempfile.TemporaryDirectory(prefix="observatory-ab-") as scratch:
        work = pathlib.Path(args.keep or scratch)  # the temporary one goes with its files
        work.mkdir(parents=True, exist_ok=True)
        parent = work / "parent"
        if not parent.exists():
            subprocess.run(["git", "clone", "-q", str(ROOT), str(parent)], check=True)
        subprocess.run(["git", "-C", str(parent), "checkout", "-q", "--detach", args.parent], check=True)
        status = 0
        for workload in args.workload or names:
            pairs, files = [], []
            for index in range(args.pairs):
                seed = args.seed_base + index
                sides = [("parent", parent), ("change", ROOT)]
                if index % 2:
                    sides.reverse()
                records = {}
                for side, tree in sides:
                    out = work / f"{workload}-{seed}-{side}.json"
                    records[side] = run_side(tree, workload, seed, args.seconds, out)
                    status |= records[side]["exit"]
                pairs.append((seed, sides[0][0], records["parent"], records["change"]))
                files += [str(work / f"{workload}-{seed}-parent.json"),
                          str(work / f"{workload}-{seed}-change.json")]
            summarize(workload, pairs, metrics, args.metric)
            status |= subprocess.run(
                [sys.executable, str(ROOT / OBSERVATORY / "compare.py"), *files]
            ).returncode
    return status


if __name__ == "__main__":
    sys.exit(main())
