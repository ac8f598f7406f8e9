"""Where a workload's heap goes: one untimed observatory pass under tracemalloc.

    python3 benchmarks/heap.py --workload W [--seed S] [--scale X] [--top N]
    make heap WORKLOAD=<w> [HEAP_ARGS="--scale 0.1 --top 40"]

Runs one pass of the *unmodified* observatory workload ``W`` (its set-up,
then its measured phase, with the cyclic GC paused as in a timed pass) with
``tracemalloc`` on, and prints, at the end of the measured phase -- while
everything the pass built is still alive:

* the top-N ``file:line`` sites of the live set, by bytes, with their block
  counts, the traced total and the traced peak;
* the simulated DRAM each node holds on the host (``PhysicalMemory``
  backs a written page with its written prefix, or with a full 4 KiB page
  once a write ends past the half): KB per node on average and at most,
  each tier's pages and KB, and the nodes holding the most;
* who makes the host allocate that DRAM: the live page bytes by the first
  frame outside ``cluster/memory.py`` -- the caller whose write created,
  grew or promoted the page;
* what parks: the live ``Process`` objects and the suspended generator
  frames, by generator name (a drain loop written as a generator shows
  here once per queue it serves);
* what keeps VQPs alive: the live ``Vqp`` objects, by what holds them --
  pinned by their module because their id was published, named by an
  in-flight wr_id token, or else held by their users.

The pass is untimed: tracemalloc slows it several-fold and adds its own
bookkeeping, so nothing here is a wall-time or RSS number.  The
observatory's ``peak_rss_mb`` says how much; this says where.
"""

import argparse
import gc
import importlib
import inspect
import linecache
import pathlib
import sys
import tracemalloc
from collections import Counter

ROOT = pathlib.Path(__file__).resolve().parent.parent
OBSERVATORY = ROOT / "benchmarks" / "observatory"
#: Frames kept per allocation: ``PhysicalMemory.write`` and its caller.
FRAMES = 2


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


def _vqp_holders(vqps):
    """What keeps each live VQP alive, one name per VQP: its module's pin
    of a published id first, then an in-flight wr_id token, else its user."""
    pinned, tokens = set(), set()
    for module in {vqp.module for vqp in vqps}:
        pinned.update(map(id, module.published_vqps.values()))
        tokens.update(id(token.vqp) for token in module.wrid_tokens.values())
    return [
        "pinned: id published" if id(vqp) in pinned
        else "named by an in-flight wr_id token" if id(vqp) in tokens
        else "held by users"
        for vqp in vqps
    ]


def measured_pass(workload, seed, scale):
    """One pass; returns (snapshot and traced (current, peak) bytes at the
    end of the measured phase, every simulated node then alive, the
    generator names of the live processes and of the suspended generators,
    and the holder of each live VQP)."""
    import passes
    from repro.cluster.node import Node
    from repro.krcore.vqp import Vqp
    from repro.sim import Process
    from tally import Tally

    with passes.gc_paused():
        tracemalloc.start(FRAMES)
        try:
            one = workload.Pass(seed, scale)
            one.setup()
            one.measure(Tally())
            snapshot = tracemalloc.take_snapshot()
            traced = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        gc.collect()  # count what is reachable, not what awaits the cycle GC
        live = gc.get_objects()
        nodes = [obj for obj in live if isinstance(obj, Node)]
        processes = [obj._gen.__name__ for obj in live if isinstance(obj, Process)]
        frames = [
            obj.__name__ for obj in live
            if inspect.isgenerator(obj)
            and inspect.getgeneratorstate(obj) == inspect.GEN_SUSPENDED
        ]
        vqps = _vqp_holders([obj for obj in live if isinstance(obj, Vqp)])
    return snapshot, traced, nodes, processes, frames, vqps


def _print_counts(title, names, top):
    print(f"\n{title}: {len(names)}")
    for name, count in Counter(names).most_common(top):
        print(f"{count:>12,d}  {name}")


def dram_writers(snapshot):
    """(live bytes, blocks) of simulated DRAM pages by ``file:line`` of the
    frame that called ``PhysicalMemory.write``, most bytes first."""
    from repro.cluster import memory

    lines, first = inspect.getsourcelines(memory.PhysicalMemory.write)
    inside = range(first, first + len(lines))
    writers = Counter()
    blocks = Counter()
    for trace in snapshot.traces:
        frames = list(reversed(trace.traceback))  # most recent first
        if frames[0].filename != memory.__file__ or frames[0].lineno not in inside:
            continue
        caller = next((f for f in frames if f.filename != memory.__file__), None)
        site = _site(caller) if caller else "(caller beyond the traced frames)"
        writers[site] += trace.size
        blocks[site] += 1
    return [(size, blocks[site], site) for site, size in writers.most_common()]


def _dram_report(nodes, writers, top):
    """Simulated DRAM the live nodes hold, per tier and per node, and the
    sites whose writes allocated it."""
    held = sorted(
        (
            (sum(map(len, node.memory._pages.values()))
             + sum(map(len, node.memory._sparse.values()))) / 1024,
            node.gid,
        )
        for node in nodes
    )[::-1]
    if not held:
        print("\nno simulated node alive at the end of the measured phase")
        return
    full = [page for node in nodes for page in node.memory._pages.values()]
    sparse = [page for node in nodes for page in node.memory._sparse.values()]
    total = sum(kb for kb, _gid in held)
    print(f"\nsimulated DRAM held: {total:.1f} KB over {len(held)} nodes, "
          f"{total / len(held):.1f} KB per node on average, {held[0][0]:.1f} at most")
    print(f"  full pages {len(full)} ({sum(map(len, full)) / 1024:.1f} KB), "
          f"sparse pages {len(sparse)} ({sum(map(len, sparse)) / 1024:.1f} KB)")
    print("  most: " + ", ".join(f"{gid} {kb:.1f}" for kb, gid in held[:5]))
    print(f"\n{'bytes':>12s} {'blocks':>9s}  DRAM writer (top {top})")
    for size, count, site in writers[:top]:
        path, _, lineno = site.rpartition(":")
        code = linecache.getline(str(ROOT / path), int(lineno)).strip() if path else ""
        print(f"{size:>12,d} {count:>9,d}  {site}  {code}")


def report(name, seed, scale, top, snapshot, traced, nodes, processes, frames, vqps):
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
    _print_counts("live Process objects, by generator", processes, top)
    _print_counts("suspended generator frames, by generator", frames, top)
    _print_counts("live Vqp objects, by holder", vqps, top)
    _dram_report(nodes, dram_writers(snapshot), top)


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
    report(args.workload, args.seed, args.scale, args.top,
           *measured_pass(workload, args.seed, args.scale))
    return 0


if __name__ == "__main__":
    sys.exit(main())
