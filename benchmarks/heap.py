"""Where a workload's heap goes: one untimed observatory pass under tracemalloc.

    python3 benchmarks/heap.py --workload W [--seed S] [--scale X] [--top N]
    make heap WORKLOAD=<w> [HEAP_ARGS="--scale 0.1 --top 40"]

Runs one pass of the *unmodified* observatory workload ``W`` (its set-up,
then its measured phase, with the cyclic GC paused as in a timed pass) with
``tracemalloc`` on, and prints, at the end of the measured phase -- while
everything the pass built is still alive:

* the top-N ``file:line`` sites of the live set, by bytes, with their block
  counts, the traced total and the traced peak;
* the DRAM pages each simulated node materialized (``PhysicalMemory``
  backs a node's memory with 4 KiB pages on first touch): per node on
  average and at most, and the nodes holding the most.

The pass is untimed: tracemalloc slows it several-fold and adds its own
bookkeeping, so nothing here is a wall-time or RSS number.  The
observatory's ``peak_rss_mb`` says how much; this says where.
"""

import argparse
import gc
import importlib
import pathlib
import sys
import tracemalloc

ROOT = pathlib.Path(__file__).resolve().parent.parent
OBSERVATORY = ROOT / "benchmarks" / "observatory"


def _import_observatory():
    """The simulator and the observatory's modules, imported read-only."""
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(OBSERVATORY))


def _site(frame):
    """``file:line``, relative to the repo when the file is in it."""
    path = pathlib.Path(frame.filename)
    try:
        path = path.relative_to(ROOT)
    except ValueError:
        pass
    return f"{path}:{frame.lineno}"


def measured_pass(workload, seed, scale):
    """One pass; returns (snapshot and traced (current, peak) bytes at the
    end of the measured phase, every simulated node then alive)."""
    import passes
    from repro.cluster.node import Node
    from tally import Tally

    with passes.gc_paused():
        tracemalloc.start()
        try:
            one = workload.Pass(seed, scale)
            one.setup()
            one.measure(Tally())
            snapshot = tracemalloc.take_snapshot()
            traced = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        nodes = [obj for obj in gc.get_objects() if isinstance(obj, Node)]
    return snapshot, traced, nodes


def report(name, seed, scale, top, snapshot, traced, nodes):
    current, peak = traced
    stats = snapshot.filter_traces(
        [tracemalloc.Filter(False, tracemalloc.__file__)]
    ).statistics("lineno")
    print(f"# {name}: seed {seed}, scale {scale}, one untimed pass under tracemalloc")
    print(f"# live at the end of the measured phase: {current / 2**20:.2f} MB traced "
          f"(peak {peak / 2**20:.2f} MB), {sum(s.count for s in stats)} blocks")
    print(f"\n{'bytes':>12s} {'blocks':>9s} {'share':>6s}  site (top {top})")
    for stat in stats[:top]:
        print(f"{stat.size:>12,d} {stat.count:>9,d} {stat.size / current:>6.1%}  "
              f"{_site(stat.traceback[0])}")
    pages = sorted(((len(node.memory._pages), node.gid) for node in nodes), reverse=True)
    if not pages:
        print("\nno simulated node alive at the end of the measured phase")
        return
    total = sum(count for count, _gid in pages)
    print(f"\nDRAM pages materialized: {total} over {len(pages)} nodes, "
          f"{total / len(pages):.1f} per node on average, {pages[0][0]} at most")
    print("  most: " + ", ".join(f"{gid} {count}" for count, gid in pages[:5]))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        help="an observatory workload, e.g. data_onesided")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="multiplies the workload's op counts, as in run.py")
    parser.add_argument("--top", type=int, default=25, help="sites to print")
    args = parser.parse_args(argv)
    _import_observatory()
    if not (OBSERVATORY / f"wl_{args.workload}.py").exists():
        parser.error(f"no observatory workload {args.workload!r}")
    workload = importlib.import_module(f"wl_{args.workload}")
    snapshot, traced, nodes = measured_pass(workload, args.seed, args.scale)
    report(args.workload, args.seed, args.scale, args.top, snapshot, traced, nodes)
    return 0


if __name__ == "__main__":
    sys.exit(main())
