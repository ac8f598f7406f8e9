"""Run one seeded chaos scenario from the command line.

    python -m repro.faults ycsb --seed 5 --ops 30 --trace chaos.json --metrics -
    python -m repro.faults ycsb --seed 5 --ops 30 --meta-shards 2
    python -m repro.faults gray --seed 5 [--unprotected]
    python -m repro.faults microview --seed 1

Each scenario is a run of the chaos core (:mod:`repro.faults.chaos`).
It prints its summary, the applied faults, the invariants, the checker
summary (checked scenarios) and the digest, and exits non-zero if an
invariant failed.  ``--trace`` exports a Chrome trace (every fault is
an instant on the ``faults`` track), ``--metrics`` the metrics
snapshot.  A flag given to a scenario it does not apply to is a usage
error.
"""

import argparse
import sys

from repro import obs
from repro.bench.perf import export
from repro.faults.gray import GrayChaosHarness
from repro.faults.harness import ChaosHarness
from repro.faults.microview import MicroViewChaosHarness


def _parser():
    parser = argparse.ArgumentParser(
        prog="python -m repro.faults",
        description="Run one seeded chaos scenario against the KRCORE stack.",
    )
    scenarios = parser.add_subparsers(dest="scenario", required=True)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--seed", type=int, default=1,
        help="fault-plan and workload seed (default 1); one seed gives a "
             "byte-identical report digest",
    )
    common.add_argument(
        "--trace", metavar="PATH",
        help="export a Chrome trace (Perfetto-loadable JSON) of the run",
    )
    common.add_argument(
        "--metrics", metavar="PATH",
        help="export the metrics snapshot as JSON ('-' for stdout)",
    )

    ycsb = scenarios.add_parser(
        "ycsb", parents=[common], help="YCSB over KRCORE, binary faults"
    )
    ycsb.add_argument("--ops", type=int, default=150, help="YCSB ops per client")
    ycsb.add_argument(
        "--meta-shards", type=int, default=1,
        help="meta-plane shard count (default 1: the paper's single "
             "deployment)",
    )
    ycsb.set_defaults(run=lambda a: ChaosHarness(
        a.seed, ops_per_client=a.ops, meta_shards=a.meta_shards
    ).run())

    gray = scenarios.add_parser(
        "gray", parents=[common],
        help="two tenants under gray faults, overload protection",
    )
    gray.add_argument(
        "--unprotected", action="store_true",
        help="drop the repro.degrade policy, demonstrating the goodput "
             "collapse the protection layer prevents",
    )
    gray.set_defaults(run=lambda a: GrayChaosHarness(
        a.seed, protected=not a.unprotected
    ).run())

    microview = scenarios.add_parser(
        "microview", parents=[common],
        help="MicroView MR churn under a meta outage",
    )
    microview.set_defaults(run=lambda a: MicroViewChaosHarness(a.seed).run())
    return parser


def main(argv=None):
    args = _parser().parse_args(argv)
    if args.trace is None and args.metrics is None:
        report = args.run(args)
    else:
        with obs.observe() as (tracer, registry):
            report = args.run(args)
        export(args.trace, tracer.to_json)
        export(args.metrics, registry.to_json)

    print(report.summary())
    for at_ns, kind, summary in report.fault_log:
        print(f"  t={at_ns}ns {kind}: {summary}")
    for name in sorted(report.invariants):
        print(f"  {name}: {'PASS' if report.invariants[name] else 'FAIL'}")
    if report.checker_summary:
        print(f"  {report.checker_summary}")
    print(f"digest: {report.digest()}")
    return 0 if report.all_invariants_hold else 1


if __name__ == "__main__":
    sys.exit(main())
