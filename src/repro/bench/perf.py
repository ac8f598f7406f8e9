"""Running one figure: its wall time, its exports, its profile.

Perf *claims* are made with the observatory (``benchmarks/observatory/``);
:func:`run_figure` only times the figure it runs.
"""

import cProfile
import gc
import importlib
import io
import pathlib
import pstats
import time

from repro import obs


def run_figure(name, full=False, trace_path=None, metrics_path=None,
               profile_path=None):
    """Run one figure module and return ``(FigureResult, wall_seconds)``.

    The cyclic GC is paused for the duration of the run: the engine
    allocates millions of short-lived resume records and tuples per
    figure, and generation-0 collections cost ~20% of wall time while
    reclaiming almost nothing that refcounting doesn't already.  It is
    re-enabled (with one full collection) before returning.

    ``trace_path`` / ``metrics_path`` install a fresh tracer / metrics
    registry (``repro.obs``) for the duration of the run and export the
    Chrome trace JSON / metrics snapshot afterwards.  A path of ``"-"``
    prints to stdout instead.  With both None (the default) the figure
    runs uninstrumented and its numbers are bit-identical to a plain run.

    ``profile_path`` runs the figure under :mod:`cProfile` and writes a
    pstats text report (top functions by cumulative and by internal
    time) there.  Profiling adds per-call overhead, so the wall time of
    a profiled run is *not* comparable to an unprofiled one.
    """
    module = importlib.import_module(f"repro.bench.{name}")
    profiler = None
    if profile_path is not None:
        profiler = cProfile.Profile()
    gc_was_enabled = gc.isenabled()
    gc.disable()
    started = time.perf_counter()
    try:
        if profiler is not None:
            profiler.enable()
        try:
            if trace_path is None and metrics_path is None:
                result = module.run(fast=not full)
            else:
                with obs.observe() as (tracer, registry):
                    result = module.run(fast=not full)
                export(trace_path, tracer.to_json)
                export(metrics_path, registry.to_json)
        finally:
            if profiler is not None:
                profiler.disable()
    finally:
        if gc_was_enabled:
            gc.enable()
        gc.collect()
    wall_s = time.perf_counter() - started
    if profiler is not None:
        export(profile_path, lambda: _profile_report(profiler, name))
    return result, wall_s


#: Functions each section of a profile report lists.
PROFILE_TOP = 40


def _profile_report(profiler, name):
    """Render a cProfile run as a two-section pstats text report."""
    top = PROFILE_TOP
    out = io.StringIO()
    stats = pstats.Stats(profiler, stream=out)
    stats.strip_dirs()
    out.write(f"# cProfile of figure {name}\n\n== top {top} by cumulative time ==\n")
    stats.sort_stats("cumulative").print_stats(top)
    out.write(f"\n== top {top} by internal time ==\n")
    stats.sort_stats("tottime").print_stats(top)
    return out.getvalue()


def export(path, to_json):
    """Write ``to_json()`` to ``path`` (``"-"`` = stdout, None = skip)."""
    if path is None:
        return
    text = to_json()
    if path == "-":
        print(text, end="")
        return
    target = pathlib.Path(path)
    if target.parent != pathlib.Path("."):
        target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(text)


def figure_output_path(path, name, multiple):
    """Where one figure's export goes: ``path`` itself for a single
    figure, ``<stem>-<figure><suffix>`` when several share one flag."""
    if path is None or path == "-" or not multiple:
        return path
    p = pathlib.Path(path)
    return str(p.with_name(f"{p.stem}-{name}{p.suffix or '.json'}"))
