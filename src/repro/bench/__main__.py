"""Run figure reproductions from the command line.

    python -m repro.bench                     # every figure, fast mode
    python -m repro.bench fig10               # one figure
    python -m repro.bench --full              # paper-scale
    python -m repro.bench --jobs 4            # fan figures out over processes
    python -m repro.bench --save-dir out/     # export every table as CSV
    python -m repro.bench fig03 --trace /tmp/fig03.json --metrics -
    python -m repro.bench fig10 --profile /tmp/fig10.pstats.txt

Figures are independent simulations, so ``--jobs N`` runs them across a
``ProcessPoolExecutor``; results are printed in submission order and the
tables/CSVs are identical to a serial run.  ``--save-dir DIR`` writes each
table as ``<figure>-<n>.csv`` under DIR.  ``--trace PATH`` / ``--metrics
PATH`` install the ``repro.obs`` observability layer for each figure and
export a Perfetto-loadable Chrome trace / a flat metrics snapshot (``-``
prints to stdout; multiple figures write ``<stem>-<figure><suffix>`` each).
"""

import argparse
import sys
import time

from repro.bench.perf import figure_output_path, run_figure

ALL_FIGURES = [
    "fig01", "fig03", "fig08", "fig09", "fig10", "fig11",
    "fig12", "fig13", "fig14", "fig15", "fig16", "ablations",
    "discussion", "meta_scale", "overload", "dataplane", "microview",
    "cluster_scale",
]

#: Figures whose ``run()`` takes a ``partitions`` argument.  With
#: ``--partitions > 1`` these may fork one OS process per partition
#: (``mp`` mode in full runs), so ``--jobs`` must not also ship them to
#: a pool worker: partitions take precedence, the figure runs in the
#: parent, and only partition-unaware figures use the pool.  This is the
#: no-double-fork/no-oversubscription rule (see ``--partitions`` help).
PARTITION_AWARE = ["cluster_scale"]


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench",
        description="Regenerate the paper's figures on the simulated cluster.",
    )
    parser.add_argument(
        "figures", nargs="*", default=ALL_FIGURES,
        help=f"which figures to run (default: all of {', '.join(ALL_FIGURES)})",
    )
    parser.add_argument(
        "--full", action="store_true",
        help="run at the paper's scale (240 clients, 180 workers)",
    )
    parser.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="run figures in N worker processes (figures are independent; "
             "output is identical to a serial run)",
    )
    parser.add_argument(
        "--partitions", type=int, default=None, metavar="P",
        help="run partition-aware figures (cluster_scale) over P engine "
             "partitions plus the P=1 baseline.  Precedence over --jobs: "
             "with P > 1 those figures run in the parent process — never "
             "inside a --jobs pool worker — so partition workers are the "
             "only forks and the host is not oversubscribed; the "
             "remaining figures still use the pool",
    )
    parser.add_argument(
        "--save-dir", metavar="DIR",
        help="write each figure's tables as <figure>-<n>.csv under DIR",
    )
    parser.add_argument(
        "--trace", metavar="PATH",
        help="record a structured trace of each figure's simulation and "
             "export Chrome trace-event JSON (Perfetto-loadable) to PATH; "
             "with several figures, each writes <stem>-<figure><suffix>",
    )
    parser.add_argument(
        "--metrics", metavar="PATH",
        help="export each figure's metrics snapshot (counters/histograms) "
             "as JSON to PATH ('-' for stdout); with several figures, each "
             "writes <stem>-<figure><suffix>",
    )
    parser.add_argument(
        "--profile", metavar="PATH",
        help="run each figure under cProfile and write a pstats text "
             "report (top functions by cumulative and internal time) to "
             "PATH ('-' for stdout); with several figures, each writes "
             "<stem>-<figure><suffix>.  The wall time printed for a "
             "profiled run carries profiling overhead",
    )
    args = parser.parse_args(argv)
    for name in args.figures:
        if name not in ALL_FIGURES:
            parser.error(f"unknown figure {name!r}; choose from {ALL_FIGURES}")
    if args.jobs < 1:
        parser.error("--jobs must be >= 1")
    if args.partitions is not None and args.partitions < 1:
        parser.error("--partitions must be >= 1")

    multiple = len(args.figures) > 1
    per_figure = [
        (
            name,
            figure_output_path(args.trace, name, multiple),
            figure_output_path(args.metrics, name, multiple),
            figure_output_path(args.profile, name, multiple),
        )
        for name in args.figures
    ]
    started = time.perf_counter()
    pool = None
    if args.jobs == 1 or len(args.figures) == 1:
        outcomes = (
            run_figure(name, full=args.full, trace_path=tp, metrics_path=mp,
                       profile_path=pp, partitions=args.partitions)
            for name, tp, mp, pp in per_figure
        )
    else:
        from concurrent.futures import ProcessPoolExecutor

        # Partition precedence: with --partitions > 1 a partition-aware
        # figure may fork its own per-partition workers, so it must not
        # ALSO run inside a pool worker (double fork, oversubscription).
        # Those figures run in the parent; the rest use the pool.
        in_parent = (
            set(PARTITION_AWARE)
            if args.partitions is not None and args.partitions > 1
            else set()
        )
        pooled = [entry for entry in per_figure if entry[0] not in in_parent]
        if pooled:
            pool = ProcessPoolExecutor(max_workers=min(args.jobs, len(pooled)))
        futures = {
            entry[0]: pool.submit(run_figure, entry[0], args.full, entry[1],
                                  entry[2], entry[3], args.partitions)
            for entry in pooled
        }
        outcomes = (
            futures[name].result() if name in futures
            else run_figure(name, full=args.full, trace_path=tp,
                            metrics_path=mp, profile_path=pp,
                            partitions=args.partitions)
            for name, tp, mp, pp in per_figure
        )
    for name, (result, wall_s) in zip(args.figures, outcomes):
        result.show()
        print(f"[{name} regenerated in {wall_s:.1f}s wall time]")
        if args.save_dir:
            result.save_csv(args.save_dir, name)
    if pool is not None:
        pool.shutdown()
    if args.jobs > 1 and len(args.figures) > 1:
        print(f"[{len(args.figures)} figures with --jobs {args.jobs}: "
              f"{time.perf_counter() - started:.1f}s wall time total]")
    return 0


if __name__ == "__main__":
    sys.exit(main())
