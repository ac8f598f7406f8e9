"""``python -m repro.check``: the model-checking CLI.

Examples::

    python -m repro.check --list
    python -m repro.check pool_churn                      # one FIFO run
    python -m repro.check pool_churn --mode random --seeds 50
    python -m repro.check kvs_lin --mode pct --seeds 20 --depth 3
    python -m repro.check racey_pipeline --mode dfs --budget 200
    python -m repro.check chaos_small --mode random --seeds 10 --shrink \\
        --out tests/schedules/found.json
    python -m repro.check --replay tests/schedules/*.json

Exit status is 0 iff no invariant violation was found (for ``--replay``:
iff every replayed schedule with a recorded ``invariant`` reproduces it
and every one without stays clean -- so both regression polarities are
checkable in CI).  An unknown scenario name is a usage error (exit 2);
a replayed schedule naming one fails that file, and the remaining files
still replay.
"""

import argparse
import json
import sys

from repro.check.controller import FifoStrategy, Schedule
from repro.check.runner import (
    dfs_explore,
    replay_schedule,
    result_schedule,
    run_once,
    shrink_failure,
    sweep,
)
from repro.check.scenarios import SCENARIOS


def _parse_kwargs(pairs):
    kwargs = {}
    for pair in pairs or ():
        key, _, raw = pair.partition("=")
        if not _:
            raise SystemExit(f"--set needs key=value, got {pair!r}")
        try:
            kwargs[key] = json.loads(raw)
        except json.JSONDecodeError:
            kwargs[key] = raw
    return kwargs


def _print_violations(result):
    for violation in result.violations:
        print(f"  violation [{violation.invariant}] t={violation.t}")
        print(f"    {violation.detail}")


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="python -m repro.check",
        description="Model-check the KRCORE control plane over schedules.",
    )
    parser.add_argument("scenario", nargs="?", help="scenario name (see --list)")
    parser.add_argument("--list", action="store_true", help="list scenarios")
    parser.add_argument(
        "--replay", nargs="+", metavar="FILE",
        help="replay serialized schedule JSON file(s) instead of exploring",
    )
    parser.add_argument(
        "--mode", choices=("fifo", "random", "pct", "dfs"), default="fifo",
        help="exploration mode (default: one FIFO run)",
    )
    parser.add_argument("--seeds", type=int, default=20,
                        help="seeds per randomized sweep (default 20)")
    parser.add_argument("--seed-base", type=int, default=0,
                        help="first seed of the sweep (default 0)")
    parser.add_argument("--budget", type=int, default=200,
                        help="max runs for dfs / max replays for shrink")
    parser.add_argument("--depth", type=int, default=3,
                        help="PCT depth (bug depth to target, default 3)")
    parser.add_argument("--shrink", action="store_true",
                        help="delta-debug the first failing schedule")
    parser.add_argument("--out", metavar="FILE",
                        help="write the (shrunk) failing schedule JSON here")
    parser.add_argument(
        "--set", action="append", metavar="KEY=VALUE", dest="overrides",
        help="override a scenario kwarg (JSON value), repeatable",
    )
    parser.add_argument("--quiet", action="store_true",
                        help="suppress per-run progress lines")
    args = parser.parse_args(argv)

    if args.list:
        for name in sorted(SCENARIOS):
            spec = SCENARIOS[name]
            lin = " [lin]" if spec.lin else ""
            print(f"{name:16s}{lin} {spec.doc}")
        return 0

    log = (lambda line: None) if args.quiet else print
    known = ", ".join(sorted(SCENARIOS))

    if args.replay:
        failed = 0
        for path in args.replay:
            schedule = Schedule.load(path)
            if schedule.scenario not in SCENARIOS:
                print(f"{path}: UNKNOWN-SCENARIO {schedule.scenario!r} "
                      f"(known: {known})")
                failed += 1
                continue
            result = replay_schedule(schedule)
            expected = schedule.invariant
            reproduced = [
                v for v in result.violations if v.invariant == expected
            ]
            if expected is None:
                ok = result.ok
                verdict = "clean" if ok else "UNEXPECTED-VIOLATION"
            else:
                ok = bool(reproduced)
                verdict = "reproduced" if ok else "NOT-REPRODUCED"
            log(f"{path}: {verdict} ({result.describe()})")
            if not ok:
                _print_violations(result)
                failed += 1
        return 1 if failed else 0

    if not args.scenario:
        parser.error("a scenario name (or --list / --replay) is required")
    if args.scenario not in SCENARIOS:
        parser.error(f"unknown scenario {args.scenario!r} (known: {known})")
    kwargs = _parse_kwargs(args.overrides)

    failure = None
    if args.mode == "fifo":
        result = run_once(args.scenario, FifoStrategy(), kwargs)
        log(result.describe())
        log(f"summary: {result.summary}")
        if not result.ok:
            failure = result
    elif args.mode == "dfs":
        results, failure = dfs_explore(
            args.scenario, kwargs, max_runs=args.budget, log=log
        )
        log(f"dfs: {len(results)} runs, "
            f"{'failure found' if failure else 'all clean'}")
    else:
        results, failure = sweep(
            args.scenario, mode=args.mode, seeds=args.seeds,
            seed_base=args.seed_base, scenario_kwargs=kwargs,
            depth=args.depth, log=log,
        )
        log(f"sweep: {len(results)} runs, "
            f"{'failure found' if failure else 'all clean'}")

    if failure is None:
        return 0

    print(f"FAILURE: {failure.describe()}")
    _print_violations(failure)
    schedule = result_schedule(failure)
    if args.shrink:
        schedule, replay, runs = shrink_failure(
            failure, max_runs=args.budget, log=log
        )
        print(
            f"shrunk to {len(schedule.decisions)} decision(s) "
            f"in {runs} replays: {schedule.decisions}"
        )
        _print_violations(replay)
    if args.out:
        schedule.save(args.out)
        print(f"schedule written to {args.out}")
    else:
        sys.stdout.write(schedule.to_json())
    return 1


if __name__ == "__main__":
    sys.exit(main())
