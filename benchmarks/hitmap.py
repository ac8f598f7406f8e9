"""Which code in ``src/repro`` the test runs execute: a standard-library hit map.

    python3 benchmarks/hitmap.py [--fail-under PCT]
    make hitmap

Runs tier-1, ``-m chaos``, ``pytest benchmarks`` and the observatory's
traced passes with a
``sys.settrace`` line tracer on, then prints, per file of
``src/repro``, the functions no run entered and the statements no run
executed, and the executed share of all statements.  The tracer starts
from a ``sitecustomize.py`` placed first on ``PYTHONPATH``, so it is on
before ``repro`` is imported and in every child Python process a test
starts (``tests/test_examples.py``, ``python -m repro.bench``).  Each
process writes its hits to a scratch directory at exit; the map is their
union.

Each run has an origin, which ``HITMAP_ORIGIN`` carries into every
process it starts and each dump records.  A *system* run is one that
runs whole scenarios: ``-m chaos``, ``pytest benchmarks``, the tier-1
files in ``SYSTEM_FILES`` (figures, examples, the chaos digests, the
obs goldens, the chaos CLI, the checked control-plane runs), and one
short ``--trace 1`` pass of each
observatory workload.  The rest of tier-1 is the *unit* run.  The report
lists the modules of ``src/repro`` that define functions and none of
whose functions a system run entered, then the leads: the functions a
unit run entered and no system run did, in the modules a system run
enters -- a feature only its own unit tests reach.  Each must be in
``UNIT_ONLY`` with the reason it stays, keyed by module
(``"bench/perf.py"``) or by function (``"module:Qualname"``), and each
entry there must still name such a module or function.

A statement is what ``ast`` calls one, docstrings excepted; it counts as
executed when a line of its own (for a compound statement, its header)
ran.  A ``try`` has no line of its own and counts as executed with its
body's first statement.  A function counts as entered when its code
object was called.  Work done in ``ProcessPoolExecutor`` workers is not
seen (they leave through ``os._exit``, past ``atexit``).

Exits non-zero when a run fails, when the unit-only modules and leads
and ``UNIT_ONLY`` differ or, under ``--fail-under``, when the executed
share is below ``PCT``.
"""

import argparse
import ast
import atexit
import json
import os
import pathlib
import subprocess
import sys
import tempfile
import threading

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "repro"
# The tier-1 files that are system runs, and the chaos suite (marked
# ``chaos``, outside tier-1).  tests/test_settings_have_callers.py reads
# both: a system caller is one in src/, benchmarks/, examples/ or these.
SYSTEM_FILES = [
    "tests/test_bench_figures.py",
    "tests/test_examples.py",
    "tests/test_chaos_digests.py",
    "tests/test_obs_golden.py",
    "tests/test_faults_cli.py",
    "tests/test_check_runs.py",
]
CHAOS_FILE = "tests/test_chaos.py"
PYTEST = ["-m", "pytest", "-q", "-p", "no:cacheprovider"]
OBSERVATORY = [workload["name"] for workload in
               json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]
# (origin, arguments of the interpreter); then one short traced pass of
# each observatory workload.
RUNS = (
    ("unit", [*PYTEST, *(f"--ignore={name}" for name in SYSTEM_FILES)]),
    ("system", [*PYTEST, "-m", "chaos", CHAOS_FILE]),
    ("system", [*PYTEST, "--benchmark-disable", "benchmarks", *SYSTEM_FILES]),
    *(("system", ["benchmarks/observatory/run.py", "--workload", workload, "--seed", "1",
                  "--seconds", "0.05", "--scale", "0.02", "--trace", "1"])
      for workload in OBSERVATORY),
)

# A module of src/repro (relative to it) that no system run enters, or a
# function ("module:Qualname") only unit runs enter in a module a system
# run enters -> why it stays.
_RACE_OPS = "ROADMAP item 11: Fig 16's sampled windows call it; the RACE oracle does today"
_TRANSFER_PEER = "ROADMAP item 1(a): the QP transfer's peer protocol gets a scenario"
_RECOVERY = "ROADMAP item 1(a): verbs recovery (RNR retry, ERR flush, duplicates) gets a scenario"
_VIOLATION = ("the checker's violation report: a clean system run files none; "
              "tests/test_mutants.py files them with re-injected bugs")
_ORACLE_READ = ("ROADMAP item 5: the differential oracle compares final storage; tests read "
                "it back through this today")
UNIT_ONLY = {
    "apps/race/client.py:RaceClient.get_batch": _RACE_OPS,
    "apps/race/client.py:RaceClient._read_batch": _RACE_OPS,
    "apps/race/client.py:RaceClient.delete": _RACE_OPS,
    "apps/race/hashing.py:RaceStorage.get_local": _ORACLE_READ,
    "apps/txn/storage.py:TxnStorage.read_local": _ORACLE_READ,
    "bench/perf.py:_profile_report": "`python -m repro.bench --profile` writes it; no system run profiles",
    "check/invariants.py:Violation.__init__": _VIOLATION,
    "check/invariants.py:Violation.__repr__": _VIOLATION,
    "check/invariants.py:Checker.violate": _VIOLATION,
    "degrade/__init__.py:Deadline.remaining_ns": (
        "ROADMAP item 1(a): `KrcoreModule.retry_meta`'s deadline cut, in the meta-plane degrade "
        "path, gets a scenario"),
    "krcore/messaging.py:KernelMessaging.notify_peer_transfer": _TRANSFER_PEER,
    "krcore/messaging.py:KernelMessaging._handle_peer_transfer": _TRANSFER_PEER,
    "krcore/meta.py:MetaPlane.retract_mr": (
        "ROADMAP item 1(a): MR deregistration after one lease gets a chaos scenario"),
    "verbs/qp.py:_Flight._flush": _RECOVERY,
    "verbs/qp.py:_Flight._rnr": _RECOVERY,
    "verbs/qp.py:_Flight._serve_duplicate": _RECOVERY,
}

# Loaded by every Python process started with the scratch directory first on
# PYTHONPATH; HITMAP_OUT names the directory each process writes its hits to,
# HITMAP_ORIGIN the origin of the run that started it.
SITECUSTOMIZE = """\
import importlib.util, os
_spec = importlib.util.spec_from_file_location("_hitmap", {source!r})
_hitmap = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(_hitmap)
_hitmap.start(os.environ["HITMAP_OUT"], os.environ["HITMAP_ORIGIN"])
"""


def start(out_dir, origin):
    """Trace this process's ``src/repro`` lines; dump them at exit, tagged
    with ``origin``."""
    prefix = str(PACKAGE) + os.sep
    lines = {}      # filename -> {lineno}, package files only
    entered = {}    # filename -> {co_firstlineno}
    tracers = {}    # filename -> its line tracer, or None outside the package

    def local_for(hits):
        def local(frame, event, arg):
            if event == "line":
                hits.add(frame.f_lineno)
            return local
        return local

    def trace(frame, event, arg):
        code = frame.f_code
        filename = code.co_filename
        tracer = tracers.get(filename, False)
        if tracer is False:
            if os.path.realpath(filename).startswith(prefix):
                lines[filename] = set()
                entered[filename] = set()
                tracer = local_for(lines[filename])
            else:
                tracer = None
            tracers[filename] = tracer
        if tracer is None:
            return None
        entered[filename].add(code.co_firstlineno)
        return tracer

    def dump():
        sys.settrace(None)
        record = {"origin": origin, "files": {
            os.path.realpath(name): {"lines": sorted(lines[name]),
                                     "entered": sorted(entered[name])}
            for name in lines
        }}
        handle, path = tempfile.mkstemp(dir=out_dir, suffix=".json")
        with os.fdopen(handle, "w") as out:
            json.dump(record, out)

    atexit.register(dump)
    threading.settrace(trace)
    sys.settrace(trace)


def merge(out_dir):
    """``{origin: {path: (lines, entered)}}``, the union of the dumps of
    each origin."""
    merged = {}
    for dump in pathlib.Path(out_dir).glob("*.json"):
        record = json.loads(dump.read_text())
        hits = merged.setdefault(record["origin"], {})
        for name, file_hits in record["files"].items():
            lines, entered = hits.setdefault(name, (set(), set()))
            lines.update(file_hits["lines"])
            entered.update(file_hits["entered"])
    return merged


def _first_line(node):
    """A def or class's first line: its first decorator's, else its own."""
    return min([node.lineno] + [d.lineno for d in node.decorator_list])


def _own_lines(node):
    """The lines that belong to ``node`` itself, not to a nested body."""
    if isinstance(node, ast.Try):
        return None
    body = getattr(node, "body", None)
    if isinstance(body, list) and body and isinstance(body[0], ast.stmt):
        start = _first_line(node) if hasattr(node, "decorator_list") else node.lineno
        return range(start, max(start, body[0].lineno - 1) + 1)
    return range(node.lineno, node.end_lineno + 1)


def _is_docstring(node, parent):
    return (
        isinstance(parent, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
        and parent.body[0] is node
        and isinstance(node, ast.Expr)
        and isinstance(node.value, ast.Constant)
        and isinstance(node.value.value, str)
    )


def file_report(source, lines, entered):
    """``(statements, missed_lines, functions, never_entered)`` of one file.

    ``functions`` and ``never_entered`` are ``[(line, qualname)]``, the
    qualname as Python spells it (``Class.method``,
    ``outer.<locals>.inner``); ``missed_lines`` is the first line of each
    statement that never ran.
    """
    statements = 0
    missed = []
    functions = []
    never_entered = []

    def ran(node):
        span = _own_lines(node)
        if span is None:
            return ran(node.body[0])
        return any(line in lines for line in span)

    def scan(parent, prefix):
        nonlocal statements
        for node in ast.iter_child_nodes(parent):
            inner = prefix
            if isinstance(node, ast.stmt) and not _is_docstring(node, parent):
                statements += 1
                if not ran(node):
                    missed.append(node.lineno)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                functions.append((node.lineno, prefix + node.name))
                if _first_line(node) not in entered:
                    never_entered.append(functions[-1])
                inner = f"{prefix}{node.name}.<locals>."
            elif isinstance(node, ast.ClassDef):
                inner = f"{prefix}{node.name}."
            scan(node, inner)

    scan(ast.parse(source), "")
    return statements, sorted(missed), sorted(functions), sorted(never_entered)


def _ranges(numbers):
    """``[3, 4, 5, 9]`` -> ``"3-5, 9"``."""
    spans = []
    for number in numbers:
        if spans and number == spans[-1][1] + 1:
            spans[-1][1] = number
        else:
            spans.append([number, number])
    return ", ".join(str(a) if a == b else f"{a}-{b}" for a, b in spans)


def report(merged, package, unit_only):
    """Print the per-file map, the totals, the modules only unit runs
    enter and the leads; return ``(executed percent, gate failures)``.

    ``merged`` is what :func:`merge` returns, ``package`` the directory of
    ``repro`` and ``unit_only`` a ``UNIT_ONLY``-shaped dict.
    """
    empty = (set(), set())
    union = {}
    for hits in merged.values():
        for name, (lines, entered) in hits.items():
            union_lines, union_entered = union.setdefault(name, (set(), set()))
            union_lines.update(lines)
            union_entered.update(entered)
    system = merged.get("system", {})
    totals = [0, 0, 0, 0]
    unreached = []
    leads = []
    defined = {}    # module -> (its qualnames, those some run entered)
    for path in sorted(package.rglob("*.py")):
        source = path.read_text()
        statements, missed, functions, never = file_report(
            source, *union.get(str(path), empty))
        for i, value in enumerate((statements, len(missed), len(functions), len(never))):
            totals[i] += value
        module = path.relative_to(package).as_posix()
        defined[module] = ({name for _, name in functions},
                           {name for line, name in functions if (line, name) not in never})
        system_never = file_report(source, *system.get(str(path), empty))[3]
        if functions and len(system_never) == len(functions):
            unreached.append(module)
        else:
            leads += [(f"{module}:{name}", line) for line, name in system_never
                      if (line, name) not in never]
        if missed or never:
            relative = path.relative_to(package.parents[1]).as_posix()
            print(f"{relative}: {statements - len(missed)}/{statements} statements")
            for line, name in never:
                print(f"  never entered: {name} (line {line})")
            if missed:
                print(f"  never executed: {_ranges(missed)}")
    statements, missed, functions, never = totals
    percent = 100.0 * (statements - missed) / statements
    print(f"TOTAL: {statements - missed}/{statements} statements executed ({percent:.1f} %), "
          f"{functions - never}/{functions} functions entered ({never} never)")
    print("Modules only unit runs enter:")
    for module in unreached:
        print(f"  {module}: {unit_only.get(module, 'no reason in UNIT_ONLY')}")
    print(f"Leads -- functions only unit runs enter, in modules a system run enters ({len(leads)}):")
    for key, line in leads:
        print(f"  {key} (line {line}): {unit_only.get(key, 'no reason in UNIT_ONLY')}")
    flagged = unreached + [key for key, _ in leads]
    failures = [f"{key}: only unit runs enter it; delete it, or say in UNIT_ONLY why it stays"
                for key in flagged if key not in unit_only]
    for key in unit_only:
        module, _, name = key.partition(":")
        if module not in defined:
            failures.append(f"{key}: in UNIT_ONLY, but there is no such module")
        elif name and name not in defined[module][0]:
            failures.append(f"{key}: in UNIT_ONLY, but there is no such function")
        elif name and name not in defined[module][1]:
            failures.append(f"{key}: in UNIT_ONLY, but no run enters it")
        elif key not in flagged:
            failures.append(f"{key}: in UNIT_ONLY, but a system run enters it")
    return percent, failures


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--fail-under", type=float, metavar="PCT",
                        help="exit non-zero when under PCT %% of the statements ran")
    args = parser.parse_args(argv)
    status = 0
    with tempfile.TemporaryDirectory(prefix="hitmap-") as scratch:
        site = pathlib.Path(scratch, "site")
        out = pathlib.Path(scratch, "hits")
        site.mkdir()
        out.mkdir()
        (site / "sitecustomize.py").write_text(
            SITECUSTOMIZE.format(source=str(pathlib.Path(__file__).resolve())))
        env = dict(os.environ, HITMAP_OUT=str(out),
                   PYTHONPATH=os.pathsep.join([str(site), str(ROOT / "src")]))
        for origin, run in RUNS:
            print(f"+ [{origin}]", " ".join(run), flush=True)
            status |= subprocess.run([sys.executable, *run], cwd=ROOT,
                                     env=dict(env, HITMAP_ORIGIN=origin)).returncode
        percent, failures = report(merge(out), PACKAGE, UNIT_ONLY)
    if status:
        print("hitmap.py: a run failed", file=sys.stderr)
        return 1
    if failures:
        print("hitmap.py: " + "\nhitmap.py: ".join(failures), file=sys.stderr)
        return 1
    if args.fail_under is not None and percent < args.fail_under:
        print(f"hitmap.py: {percent:.1f} % executed, under --fail-under {args.fail_under}",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
