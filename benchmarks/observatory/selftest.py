"""Self-test of the observatory (not part of the tier-1 suite).

    PYTHONPATH=src python3 -m pytest benchmarks/observatory/selftest.py -q

Runs every workload small (``--scale 0.05``, no timed budget) and checks
the contract ``BENCHMARK.json`` states: file limits, result shape,
metric names and units, self-time shares, exact repetition of everything
simulated, sensitivity to the seed, and that the drivers reach into
``repro`` through public names only.
"""

import ast
import functools
import json
import pathlib
import re
import subprocess
import sys
import tempfile

import pytest

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [workload["name"] for workload in SPEC["workloads"]]

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


@functools.lru_cache(maxsize=None)
def run(workload, seed, trace, repeat=0):
    """(last stdout line, --out record) of one small run; ``repeat``
    only tells two identical runs apart."""
    with tempfile.TemporaryDirectory() as scratch:
        out = pathlib.Path(scratch) / "record.json"
        done = subprocess.run(
            [
                sys.executable, str(HERE / "run.py"), "--workload", workload,
                "--seed", str(seed), "--seconds", "0", "--trace", str(trace),
                "--scale", "0.05", "--out", str(out),
            ],
            cwd=ROOT, capture_output=True, text=True, timeout=180,
        )
        assert done.returncode == 0, done.stderr
        return json.loads(done.stdout.strip().splitlines()[-1]), json.loads(out.read_text())


def test_spec_meets_the_contract():
    assert set(SPEC) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert len((ROOT / "BENCHMARK.json").read_bytes()) <= 64 << 10
    assert 1 <= len(SPEC["paths"]) <= 16 and all((ROOT / p).is_dir() for p in SPEC["paths"])
    assert len(SPEC["command"]) <= 32 and all(len(word) <= 200 for word in SPEC["command"])
    assert isinstance(SPEC["run_seconds"], int) and 1 <= SPEC["run_seconds"] <= 60
    assert 2 <= len(SPEC["workloads"]) <= 8
    assert 1 <= len(SPEC["end_to_end"]) <= 16 and 1 <= len(SPEC["per_layer"]) <= 128
    names = []
    for workload in SPEC["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
        names.append(workload["name"])
    for metric in SPEC["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 <= metric["bound"] <= 0.25
    for metric in SPEC["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert UNIT.match(metric["unit"]) and metric["better"] in ("lower", "higher")
        names.append(metric["name"])
    assert all(NAME.match(name) for name in names)
    assert len(names) == len(set(names))
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_result_has_exactly_the_declared_metrics(workload, trace):
    line, _record = run(workload, 1, trace)
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0 and line["attempted"] >= 1
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert list(line["metrics"]) == [metric["name"] for metric in declared]
    for metric in declared:
        got = line["metrics"][metric["name"]]
        assert set(got) == {"value", "unit"} and got["unit"] == metric["unit"]
        assert isinstance(got["value"], (int, float)) and got["value"] == got["value"]
    if not trace:
        assert all(entry["value"] > 0 for entry in line["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_self_shares_sum_to_one(workload):
    line, _record = run(workload, 1, 1)
    shares = [
        entry["value"] for name, entry in line["metrics"].items()
        if name.endswith(".self_share")
    ]
    assert abs(sum(shares) - 1.0) <= 0.01


@pytest.mark.parametrize("workload", WORKLOADS)
def test_simulated_results_repeat_and_follow_the_seed(workload):
    first, first_record = run(workload, 1, 0)
    again, again_record = run(workload, 1, 0, repeat=1)
    other, other_record = run(workload, 2, 0)
    simulated = [m["name"] for m in SPEC["end_to_end"] if m["name"].startswith("sim_")]
    assert simulated
    for name in simulated:
        assert first["metrics"][name] == again["metrics"][name]
    assert first_record["digest"] == again_record["digest"]
    assert first["attempted"] == again["attempted"]
    assert first_record["digest"] != other_record["digest"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counts_repeat(workload):
    first, _ = run(workload, 1, 1)
    again, _ = run(workload, 1, 1, repeat=1)
    for metric in SPEC["per_layer"]:
        if metric["unit"] in ("count", "pct", "sim_ratio", "sim_share"):
            name = metric["name"]
            assert first["metrics"][name] == again["metrics"][name], name


def test_drivers_use_public_names_of_repro_only():
    offenders = []
    for path in sorted(HERE.glob("*.py")):
        tree = ast.parse(path.read_text())
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("repro"):
                parts = node.module.split(".") + [alias.name for alias in node.names]
                offenders += [f"{path.name}: {part}" for part in parts if part.startswith("_")]
            elif isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name.startswith("repro") and "._" in alias.name:
                        offenders.append(f"{path.name}: {alias.name}")
            elif (
                isinstance(node, ast.Attribute)
                and node.attr.startswith("_")
                and not node.attr.endswith("__")
                and not (isinstance(node.value, ast.Name) and node.value.id == "self")
            ):
                offenders.append(f"{path.name}:{node.lineno}: .{node.attr}")
    assert not offenders, offenders
