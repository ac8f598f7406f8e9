"""Compare observatory results: one row per workload x end-to-end metric.

    python3 benchmarks/observatory/compare.py BASE.json NEW.json [BASE2.json NEW2.json ...]

Each file is what ``run.py --out`` wrote, for every workload or for one
(``--trace 0``).  Several pairs are runs of the same two commits,
alternating which side ran first.  Verdicts, with the bounds fixed in
``BENCHMARK.json``:

* host metrics (wall-clock, memory): ``improved`` only with at least ten
  pairs, the new side winning nine tenths of them (ties count for
  neither) and the medians apart by more than the base's own spread
  (the distance between its quartiles); ``unresolved`` when that spread
  is wider than the bound, so neither a regression nor its absence can
  be read off; ``worse`` when the new median is worse by more than the
  bound; else ``unchanged``.
* simulated metrics repeat exactly for one seed, so they are compared
  as values, never as speed-ups: the column shows the difference, and
  any move in the good direction is ``improved``, a move in the bad
  direction beyond the bound ``worse``.
"""

import json
import statistics
import sys

from run import clock_of, load_spec, worse_by

MIN_PAIRS = 10
WIN_SHARE = 0.9


def load(path):
    """workload -> end-to-end metric -> {"value", "q1", "q3"...}."""
    with open(path) as handle:
        data = json.load(handle)
    if "workloads" in data:
        return {name: one["end_to_end"] for name, one in data["workloads"].items()}
    if data.get("trace") == 0:
        return {data["workload"]: data["metrics"]}
    raise SystemExit(f"compare.py: {path} holds no end-to-end metrics")


def _spread(values, single):
    """Distance between the quartiles of the base side: across the pairs,
    or across the passes of the one run there is."""
    if len(values) >= 2:
        q1, _median, q3 = statistics.quantiles(values, n=4)
        return q3 - q1
    return single.get("q3", 0.0) - single.get("q1", 0.0)


def verdict(metric, base_side, new_side):
    """(base median, new median, third column, verdict) of one row."""
    better, bound = metric["better"], metric["bound"]
    base_values = [one["value"] for one in base_side]
    new_values = [one["value"] for one in new_side]
    base, new = statistics.median(base_values), statistics.median(new_values)
    worse = worse_by(base, new, better)
    if clock_of(metric["unit"]) == "simulated":
        shown = f"{new - base:+.6g}"
        if new == base:
            return base, new, shown, "unchanged"
        if worse > bound:
            return base, new, shown, "worse"
        return base, new, shown, "improved" if worse < 0 else "unchanged"
    shown = f"x{new / base:.3f}" if base else "n/a"
    spread = _spread(base_values, base_side[0])
    wins = sum(worse_by(b, n, better) < 0 for b, n in zip(base_values, new_values))
    losses = sum(worse_by(b, n, better) > 0 for b, n in zip(base_values, new_values))
    if (
        len(base_values) >= MIN_PAIRS
        and wins >= WIN_SHARE * (wins + losses)
        and worse < 0
        and abs(new - base) > spread
    ):
        return base, new, shown, "improved"
    if base and spread / abs(base) > bound:
        return base, new, shown, "unresolved"
    return base, new, shown, "worse" if worse > bound else "unchanged"


def main(argv):
    if len(argv) < 2 or len(argv) % 2:
        raise SystemExit(__doc__.split("\n\n")[1])
    spec = load_spec()
    bases = [load(path) for path in argv[0::2]]
    news = [load(path) for path in argv[1::2]]
    print(f"{len(bases)} pair(s)")
    print(f"{'workload':16s} {'metric':16s} {'base':>14s} {'new':>14s} {'ratio/diff':>12s}  verdict")
    regressions = 0
    for workload in spec["names"]:
        if not all(workload in side for side in bases + news):
            continue
        for metric in spec["end_to_end"]:
            name = metric["name"]
            base, new, shown, word = verdict(
                metric,
                [side[workload][name] for side in bases],
                [side[workload][name] for side in news],
            )
            regressions += word == "worse"
            print(f"{workload:16s} {name:16s} {base:14.6g} {new:14.6g} {shown:>12s}  {word}")
    return 1 if regressions else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
