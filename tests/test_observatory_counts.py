"""The exact-count gate (``make counts``, benchmarks/counts.py): the shape of
the file it gates on, and what it and ``make ab`` say when a run dies.  The
counts themselves take a traced observatory pass per workload, which is not
tier-1 work."""

import importlib.util
import json
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent


def test_counts_file_names_the_benchmark_workloads_and_only_count_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    pinned = json.loads((ROOT / "tests" / "observatory_counts.json").read_text())
    counts = {m["name"] for m in spec["per_layer"] if m["unit"] == "count"}
    assert list(pinned) == [w["name"] for w in spec["workloads"]]
    for workload, values in pinned.items():
        assert values.keys() == counts | {"attempted", "failed"}, workload
        assert all(type(v) in (int, float) for v in values.values()), workload
        assert values["attempted"] > 0 == values["failed"], workload


def test_a_run_that_leaves_no_result_is_reported_with_command_exit_and_stderr(tmp_path):
    module_spec = importlib.util.spec_from_file_location("ab", ROOT / "benchmarks" / "ab.py")
    ab = importlib.util.module_from_spec(module_spec)
    module_spec.loader.exec_module(ab)
    observatory = tmp_path / "benchmarks" / "observatory"
    observatory.mkdir(parents=True)
    (observatory / "run.py").write_text("import sys\nsys.exit('run.py: no src/ here')\n")
    out = tmp_path / "result.json"
    out.write_text("{}")  # a stale record must not be read as this run's
    with pytest.raises(SystemExit) as died:
        ab.run_side(tmp_path, "data_onesided", 1, None, out)
    message = str(died.value)
    assert "run.py --workload data_onesided" in message and "exit 1" in message
    assert "no src/ here" in message


def test_the_pair_summary_prints_each_sides_median_timed_pass_count(capsys):
    """A run keeps every pass's tally, so a side that fits fewer passes reads
    a lower ``peak_rss_mb``: the summary prints both sides' pass counts."""
    module_spec = importlib.util.spec_from_file_location("ab", ROOT / "benchmarks" / "ab.py")
    ab = importlib.util.module_from_spec(module_spec)
    module_spec.loader.exec_module(ab)

    def record(passes, rss):
        metrics = {"wall_s": {"value": 1.0, "samples": passes}, "peak_rss_mb": {"value": rss}}
        return {"metrics": metrics, "digest": "d", "failed": 0}

    pairs = [(1001, "parent", record(5, 38.0), record(4, 37.0)),
             (1002, "change", record(7, 38.5), record(4, 37.2)),
             (1003, "parent", record(6, 38.2), record(5, 37.1))]
    ab.summarize("app_elastic", pairs, [("peak_rss_mb", "lower")], "peak_rss_mb")
    assert "timed passes per run, median: parent 6, change 4\n" in capsys.readouterr().out
