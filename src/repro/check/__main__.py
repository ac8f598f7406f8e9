"""``python -m repro.check``: the model-checking CLI.

Examples::

    python -m repro.check --list
    python -m repro.check                  # every scenario once
    python -m repro.check pool_churn       # one scenario

Each scenario runs once under the engine's own order with the invariant
registry installed.  Exit status is 0 iff no invariant violation was
found; an unknown scenario name is a usage error (exit 2).
"""

import argparse
import sys

from repro.check.runner import run_once
from repro.check.scenarios import SCENARIOS


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="python -m repro.check",
        description="Run the KRCORE control-plane scenarios under the invariant registry.",
    )
    parser.add_argument("scenario", nargs="?", help="scenario name (default: all; see --list)")
    parser.add_argument("--list", action="store_true", help="list scenarios")
    args = parser.parse_args(argv)

    if args.list:
        for name in sorted(SCENARIOS):
            spec = SCENARIOS[name]
            lin = " [lin]" if spec.lin else ""
            print(f"{name:16s}{lin} {spec.doc}")
        return 0

    if args.scenario is None:
        names = sorted(SCENARIOS)
    elif args.scenario in SCENARIOS:
        names = [args.scenario]
    else:
        parser.error(
            f"unknown scenario {args.scenario!r} (known: {', '.join(sorted(SCENARIOS))})"
        )

    failed = 0
    for name in names:
        result = run_once(name)
        print(result.describe())
        print(f"  summary: {result.summary}")
        for violation in result.violations:
            print(f"  violation [{violation.invariant}] t={violation.t}")
            print(f"    {violation.detail}")
        failed += not result.ok
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
