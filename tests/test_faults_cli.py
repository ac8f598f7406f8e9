"""``python -m repro.faults``: one positional scenario, flags that bite.

Every flag either takes effect for the chosen scenario or is a usage
error: ``--trace`` writes a Chrome trace for each traceable scenario,
and a flag given to a scenario it does not apply to exits non-zero
instead of being ignored.
"""

import json

import pytest

from repro.faults.__main__ import main
from tests.test_obs_golden import _validate_chrome


@pytest.mark.parametrize(
    "argv",
    [
        ["ycsb", "--seed", "5", "--ops", "10"],
        ["gray", "--seed", "5"],
        ["microview", "--seed", "1"],
    ],
    ids=lambda argv: argv[0],
)
def test_each_traceable_scenario_writes_a_chrome_trace(argv, tmp_path, capsys):
    trace = tmp_path / "trace.json"
    metrics = tmp_path / "metrics.json"
    assert main(argv + ["--trace", str(trace), "--metrics", str(metrics)]) == 0
    out = capsys.readouterr().out
    doc = json.loads(trace.read_text())
    _validate_chrome(doc)
    # Every injected fault is an instant on the faults track, and the
    # printed report lists the same number of faults.
    instants = [e for e in doc["traceEvents"] if e["name"].startswith("fault.")]
    assert instants
    assert len(instants) == sum(line.startswith("  t=") for line in out.splitlines())
    assert json.loads(metrics.read_text())["faults.injected"] == len(instants)


@pytest.mark.parametrize(
    "argv",
    [
        ["gray", "--seed", "5", "--ops", "3"],
        ["microview", "--unprotected"],
        ["ycsb", "--partitions", "4"],
        ["scale", "--trace", "trace.json"],
        ["scale", "--metrics", "-"],
        ["--seed", "5"],
    ],
)
def test_a_flag_the_scenario_does_not_take_is_a_usage_error(argv, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    assert exit_info.value.code != 0
    assert not (tmp_path / "trace.json").exists()
