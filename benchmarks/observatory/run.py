"""The perf observatory: one command, every metric by name.

    python3 benchmarks/observatory/run.py --workload W --seed S --seconds N --trace 0|1
    python3 benchmarks/observatory/run.py --seed S [--scale X] --out FILE
    python3 benchmarks/observatory/run.py --seed S --stability --out FILE

With ``--workload`` this process runs that workload and prints, as its
last line, the result object ``BENCHMARK.json`` describes: the
end-to-end metrics from timed passes with nothing installed
(``--trace 0``), or the per-layer metrics from the traced passes and the
microbenchmarks (``--trace 1``).  Without it, every workload runs in a
fresh subprocess of its own, one after the other (this host has two
cores: no pools), first timed, then traced, and ``--out`` collects the
lot.  ``--stability`` does that twice and fails if the two sets disagree
by more than a metric's bound.

Every number is *host* time (this machine's clock) or *simulated* (the
engine's clock and counters); the printed table says which.
"""

import argparse
import importlib
import json
import os
import pathlib
import platform
import resource
import statistics
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SPEC_PATH = ROOT / "BENCHMARK.json"

def clock_of(unit):
    """Which clock a metric is on, from its unit: simulated quantities
    carry ``sim_`` units or are exact counts; the rest is host time."""
    return "simulated" if unit.startswith("sim_") or unit in ("count", "pct") else "host"


def _import_repro():
    """Put ``src/`` on the path; without the simulator there is nothing
    to measure, which is an error, not an empty result.  The modules of
    this directory that import ``repro`` are imported after this ran."""
    src = ROOT / "src"
    if not (src / "repro").is_dir():
        sys.exit(f"run.py: {src}/repro not found: the benchmark measures that package")
    sys.path.insert(0, str(src))


def load_spec():
    """``BENCHMARK.json``, plus ``names`` (the workloads, in order) and
    ``units`` (metric name -> unit)."""
    spec = json.loads(SPEC_PATH.read_text())
    spec["names"] = [workload["name"] for workload in spec["workloads"]]
    spec["units"] = {
        metric["name"]: metric["unit"]
        for metric in spec["end_to_end"] + spec["per_layer"]
    }
    return spec


def environment():
    """What a result file needs to be compared with another."""
    cpu = "unknown"
    try:
        for line in pathlib.Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    sha = "unknown"
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            timeout=10,
        )
        if out.returncode == 0:
            sha = out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return {
        "git_sha": sha,
        "repro_engine": os.environ.get("REPRO_ENGINE", "flat"),
        "python": platform.python_version(),
        "cpu_model": cpu,
        "nproc": os.cpu_count(),
    }


# ---------------------------------------------------------------------------
# one workload, in this process
# ---------------------------------------------------------------------------


def _check_digests(results):
    """Every pass of a run must give the same simulated results; returns
    (digest, mismatching passes)."""
    digests = [result.tally.digest() for result in results]
    return digests[0], sum(1 for digest in digests if digest != digests[0])


def run_timed(workload, seed, scale, seconds):
    """``--trace 0``: the end-to-end metrics."""
    import passes

    results, speed = passes.timed_passes(workload, seed, scale, seconds)
    digest, mismatches = _check_digests(results)
    tally = results[0].tally

    def host(values):
        # Seconds at reference speed: as measured, times how fast this
        # host ran the reference kernel during the run.
        q1, median, q3 = passes.quartiles(values)
        return {
            "value": median * speed, "q1": q1 * speed, "q3": q3 * speed,
            "samples": len(values), "raw": median,
        }

    metrics = {
        "wall_s": host([result.wall_s for result in results]),
        "setup_s": host([result.setup_s for result in results]),
        "peak_rss_mb": {
            "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "samples": 1,
        },
        "sim_ops_per_s": {"value": tally.ops_per_s, "samples": tally.attempted},
    }
    return {
        "attempted": sum(result.tally.attempted for result in results),
        "failed": sum(result.tally.failed for result in results) + mismatches,
        "digest": digest,
        "failed_checks": tally.notes.get("failed_checks", []),
        "host_speed": speed,
        "metrics": metrics,
    }


def run_traced(workload, seed, scale):
    """``--trace 1``: the per-layer metrics.  Untraced passes first (the
    base of the overhead ratios), then T2 metrics-only, T3 tracer and
    metrics, T1 cProfile, then the microbenchmarks."""
    import micro
    import passes

    passes.run_pass(workload, seed, scale)  # warm-up
    plain = [passes.run_pass(workload, seed, scale) for _ in range(2)]
    plain_s = statistics.median(result.wall_s for result in plain)
    t2, snapshot = passes.metrics_pass(workload, seed, scale)
    t3, traced_snapshot, trace_events = passes.traced_pass(workload, seed, scale)
    self_s = passes.profiled_pass(workload, seed, scale)

    counts = passes.layer_counts(t2, snapshot)
    # Observers must not change what is simulated: the plain, T2 and T3
    # passes agree on every simulated result, T2 and T3 on every count.
    runs = plain + [t2, t3]
    digest, mismatches = _check_digests(runs)
    if passes.layer_counts(t3, traced_snapshot) != counts:
        mismatches += 1
    tally = t2.tally

    values = {}
    total_self = sum(self_s.values())
    for layer in passes.LAYERS:
        values[f"{layer}.self_s"] = self_s[layer]
        values[f"{layer}.self_share"] = self_s[layer] / total_self
    values.update(counts)
    values["sim.host_ns_per_event"] = plain_s * 1e9 / t2.events
    values["obs.metrics_overhead_ratio"] = t2.wall_s / plain_s
    values["obs.trace_overhead_ratio"] = t3.wall_s / plain_s
    values["obs.trace_events"] = trace_events
    values["sim_op_p50_us"] = tally.p_us(0.50)
    values["sim_op_p99_us"] = tally.p_us(0.99)
    values["sim_op_samples"] = len(tally.latencies_ns)
    values["failed_op_share"] = tally.failed / tally.attempted
    values["paper_err_pct"] = tally.paper_err_pct()
    values["paper_refs"] = len(tally.headlines)
    values.update(micro.run_all(min(scale, 1.0)))
    return {
        "attempted": sum(result.tally.attempted for result in runs),
        "failed": sum(result.tally.failed for result in runs) + mismatches,
        "digest": digest,
        "failed_checks": tally.notes.get("failed_checks", []),
        "headlines": {name: list(pair) for name, pair in sorted(tally.headlines.items())},
        "metrics": {name: {"value": value} for name, value in values.items()},
    }


def run_workload(args, spec):
    """Run one workload here; print the table and the result line."""
    workload = importlib.import_module(f"wl_{args.workload}")
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    if args.trace:
        record = run_traced(workload, args.seed, args.scale)
        names = [metric["name"] for metric in spec["per_layer"]]
    else:
        record = run_timed(workload, args.seed, args.scale, seconds)
        names = [metric["name"] for metric in spec["end_to_end"]]
    missing = [name for name in names if name not in record["metrics"]]
    extra = [name for name in record["metrics"] if name not in names]
    if missing or extra:
        sys.exit(f"run.py: BENCHMARK.json and the code disagree: missing {missing}, extra {extra}")

    units = spec["units"]
    print(f"# {args.workload}: {workload.PRIMARY_OP}")
    print(f"# seed {args.seed}, scale {args.scale}, trace {args.trace}")
    for name in names:
        metric = record["metrics"][name]
        metric["unit"] = units[name]
        clock = metric["clock"] = clock_of(units[name])
        spread = ""
        if "q1" in metric and metric["q1"] != metric["q3"]:
            spread = f"  [q1 {metric['q1']:.6g}, q3 {metric['q3']:.6g}]"
        samples = f"  n={metric['samples']}" if "samples" in metric else ""
        raw = f"  raw {metric['raw']:.6g}" if "raw" in metric else ""
        print(f"{name:36s} {metric['value']:>16.6g} {units[name]:8s} {clock}{spread}{samples}{raw}")
    if "host_speed" in record:
        print(f"# host speed over the run: {record['host_speed']:.4f} x reference")
    for what in record["failed_checks"]:
        print(f"FAILED CHECK: {what}")
    correct = record["failed"] == 0
    record.update(
        workload=args.workload, seed=args.seed, scale=args.scale, trace=args.trace,
        seconds=seconds, correct=correct, environment=environment(),
    )
    if args.out:
        pathlib.Path(args.out).write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps({
        "correct": correct,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {
            name: {"value": record["metrics"][name]["value"], "unit": units[name]}
            for name in names
        },
    }))
    return 0 if correct else 1


# ---------------------------------------------------------------------------
# every workload, each in its own subprocess
# ---------------------------------------------------------------------------


def _child(args, workload, trace, part):
    """Run one workload in a fresh interpreter; returns its record."""
    command = [
        sys.executable, str(HERE / "run.py"), "--workload", workload,
        "--seed", str(args.seed), "--scale", str(args.scale),
        "--trace", str(trace), "--out", str(part),
    ]
    if args.seconds is not None:
        command += ["--seconds", str(args.seconds)]
    done = subprocess.run(command, cwd=ROOT)
    try:
        record = json.loads(part.read_text())
    except (OSError, ValueError):
        sys.exit(f"run.py: {workload} (trace {trace}) gave no result, exit {done.returncode}")
    finally:
        part.unlink(missing_ok=True)
    return record


def run_one(args, workload):
    """Timed then traced run of one workload; returns its merged record."""
    out = pathlib.Path(args.out)
    part = out.with_name(f"{out.name}.{workload}.part")
    timed = _child(args, workload, 0, part)
    traced = _child(args, workload, 1, part)
    return {
        "correct": timed["correct"] and traced["correct"],
        "attempted": timed["attempted"] + traced["attempted"],
        "failed": timed["failed"] + traced["failed"],
        "digest": timed["digest"],
        "seconds": timed["seconds"],
        "headlines": traced["headlines"],
        "end_to_end": timed["metrics"],
        "per_layer": traced["metrics"],
    }


def new_set(args):
    """A result set with no workload run yet."""
    return {
        "seed": args.seed, "scale": args.scale, "environment": environment(),
        "workloads": {},
    }


def all_correct(*sets):
    return all(w["correct"] for one in sets for w in one["workloads"].values())


def worse_by(base, new, better):
    """How much worse ``new`` is than ``base``, as a share of ``base``."""
    if base == 0:
        return 0.0 if new == 0 else float("inf")
    change = (new - base) / abs(base)
    return change if better == "lower" else -change


def run_stability(args, spec):
    """Two full sets, a workload's two runs back to back so that host
    drift lands on both; every end-to-end metric must agree within its
    bound, either way round."""
    sets = [new_set(args), new_set(args)]
    for workload in spec["names"]:
        for one in sets:
            one["workloads"][workload] = run_one(args, workload)
    disagree = 0
    for workload in spec["names"]:
        first, second = (one["workloads"][workload]["end_to_end"] for one in sets)
        for metric in spec["end_to_end"]:
            name, bound, better = metric["name"], metric["bound"], metric["better"]
            a, b = first[name]["value"], second[name]["value"]
            drift = max(0.0, worse_by(a, b, better), worse_by(b, a, better))
            disagree += drift > bound
            print(
                f"{workload:16s} {name:16s} {a:14.6g} {b:14.6g} {drift:8.2%} "
                f"(bound {bound:.1%}) {'DISAGREE' if drift > bound else 'ok'}"
            )
    pathlib.Path(args.out).write_text(json.dumps({"sets": sets}, indent=1) + "\n")
    return 0 if all_correct(*sets) and not disagree else 1


def main(argv=None):
    spec = load_spec()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=spec["names"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="host seconds of timed passes (default: BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="multiplies every workload's op counts")
    parser.add_argument("--out", help="write the full result here as JSON")
    parser.add_argument("--stability", action="store_true",
                        help="run every workload twice and compare the two sets")
    args = parser.parse_args(argv)
    _import_repro()
    if args.workload:
        return run_workload(args, spec)
    if not args.out:
        parser.error("--out FILE is required when running every workload")
    if args.stability:
        return run_stability(args, spec)
    result = new_set(args)
    for workload in spec["names"]:
        result["workloads"][workload] = run_one(args, workload)
    pathlib.Path(args.out).write_text(json.dumps(result, indent=1) + "\n")
    return 0 if all_correct(result) else 1


if __name__ == "__main__":
    sys.exit(main())
