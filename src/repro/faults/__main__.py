"""Run a seeded chaos experiment from the command line.

    python -m repro.faults --seed 5
    python -m repro.faults --seed 5 --ops 50 --trace /tmp/chaos.json
    python -m repro.faults --seed 5 --metrics -
    python -m repro.faults --gray --seed 5
    python -m repro.faults --microview --seed 5
    python -m repro.faults --scale --seed 5 --partitions 4

One run boots the chaos harness (YCSB over KRCORE under a random fault
plan drawn from ``--seed``), prints the report summary and the applied
faults, and exits non-zero if any robustness invariant failed.

``--gray`` runs the *gray-failure* harness instead: a storm tenant
saturates the control plane while every component stays slow-but-alive,
and the invariants assert the overload-protection layer
(``repro.degrade``) keeps the well-behaved tenant's goodput and p99
bounded.  ``--unprotected`` drops the protection policy to demonstrate
the collapse the layer prevents.

``--microview`` runs the MR-churn harness: the MicroView collector
harvests per-pod MRs while a churn driver deregisters and re-registers
pods under it and a meta outage forces the MRStore into stale-accept
mode.  Invariants assert no READ ever executes against an MR retracted
more than one lease ago, the degraded mode actually engaged, and the
shared physical QP survived every churn race.

``--scale`` runs the partitioned-equivalence-under-faults harness: a
seeded ``node_slow`` plan over a rack topology, applied partition-
locally, with invariants asserting the faulted run digests identically
at ``partitions=1`` and ``--partitions`` (and that the faults actually
perturbed the run).  This is the chaos leg for the partitioned engine
(:mod:`repro.sim.partition`).

``--trace PATH`` installs the ``repro.obs`` tracer for the run and
exports Chrome trace-event JSON (Perfetto-loadable): every injected
fault shows up as an instant on the ``faults`` track, interleaved with
the qconnect/meta/retransmission spans it provoked.  ``--metrics PATH``
exports the flat metrics snapshot (``-`` prints to stdout).
"""

import argparse
import sys

from repro import obs
from repro.bench.perf import export
from repro.faults.harness import run_chaos


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="python -m repro.faults",
        description="Run one seeded chaos experiment against the KRCORE stack.",
    )
    parser.add_argument(
        "--gray", action="store_true",
        help="run the gray-failure harness (two tenants, overload "
             "protection) instead of the binary-fault YCSB harness",
    )
    parser.add_argument(
        "--unprotected", action="store_true",
        help="with --gray: drop the repro.degrade policy, demonstrating "
             "the goodput collapse the protection layer prevents",
    )
    parser.add_argument(
        "--microview", action="store_true",
        help="run the MicroView MR-churn harness (pod dereg/re-register "
             "storms + meta outage) instead of the binary-fault harness",
    )
    parser.add_argument(
        "--scale", action="store_true",
        help="run the partitioned-equivalence-under-faults harness "
             "(node_slow plan over a rack topology, digests compared "
             "across partition counts)",
    )
    parser.add_argument(
        "--partitions", type=int, default=2,
        help="with --scale: partition count to compare against "
             "partitions=1 (default 2)",
    )
    parser.add_argument(
        "--seed", type=int, default=1,
        help="fault-plan and workload seed (default 1); one seed gives a "
             "byte-identical report digest",
    )
    parser.add_argument(
        "--servers", type=int, default=2, help="server (fault victim) nodes"
    )
    parser.add_argument(
        "--clients", type=int, default=2, help="client nodes"
    )
    parser.add_argument(
        "--ops", type=int, default=150, help="YCSB ops per client"
    )
    parser.add_argument(
        "--meta-shards", type=int, default=1,
        help="meta-plane shard count (default 1: the paper's single "
             "deployment)",
    )
    parser.add_argument(
        "--trace", metavar="PATH",
        help="export a Chrome trace (Perfetto-loadable JSON) of the run",
    )
    parser.add_argument(
        "--metrics", metavar="PATH",
        help="export the metrics snapshot as JSON ('-' for stdout)",
    )
    args = parser.parse_args(argv)

    if sum((args.gray, args.microview, args.scale)) > 1:
        parser.error("--gray, --microview, and --scale are mutually exclusive")

    if args.scale:
        from repro.faults.scale import run_scale_chaos

        report = run_scale_chaos(args.seed, partitions=args.partitions)
        print(report.summary())
        for at_ns, kind, summary in report.fault_log:
            print(f"  t={at_ns}ns {kind}: {summary}")
        for name in sorted(report.invariants):
            print(f"  {name}: {'PASS' if report.invariants[name] else 'FAIL'}")
        print(f"digest: {report.digest()}")
        return 0 if report.all_invariants_hold else 1

    if args.gray or args.microview:
        if args.gray:
            from repro.faults.gray import run_gray_chaos

            report = run_gray_chaos(args.seed, protected=not args.unprotected)
        else:
            from repro.faults.microview import run_microview_chaos

            report = run_microview_chaos(args.seed)
        print(report.summary())
        for at_ns, kind, summary in report.fault_log:
            print(f"  t={at_ns}ns {kind}: {summary}")
        for name in sorted(report.invariants):
            print(f"  {name}: {'PASS' if report.invariants[name] else 'FAIL'}")
        if report.checker_summary:
            print(f"  {report.checker_summary}")
        print(f"digest: {report.digest()}")
        return 0 if report.all_invariants_hold else 1

    if args.trace is None and args.metrics is None:
        report = run_chaos(
            args.seed,
            num_servers=args.servers,
            num_clients=args.clients,
            ops_per_client=args.ops,
            meta_shards=args.meta_shards,
        )
    else:
        with obs.observe() as (tracer, registry):
            report = run_chaos(
                args.seed,
                num_servers=args.servers,
                num_clients=args.clients,
                ops_per_client=args.ops,
                meta_shards=args.meta_shards,
            )
        export(args.trace, tracer.to_json)
        export(args.metrics, registry.to_json)

    print(report.summary())
    for at_ns, kind, summary in report.fault_log:
        print(f"  t={at_ns}ns {kind}: {summary}")
    print(f"digest: {report.digest()}")
    return 0 if report.all_invariants_hold else 1


if __name__ == "__main__":
    sys.exit(main())
