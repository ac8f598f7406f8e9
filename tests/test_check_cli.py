"""``python -m repro.check``: an unknown scenario is a usage error, not a
traceback, and ``--replay`` reports it per file without stopping."""

from pathlib import Path

import pytest

from repro.check import Schedule
from repro.check.__main__ import main
from repro.check.scenarios import SCENARIOS

CLEAN = Path(__file__).parent / "schedules" / "kvs_lin_fifo_clean.json"


def test_an_unknown_scenario_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["nosuch"])
    assert exit_info.value.code == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    (line,) = [line for line in err.splitlines() if "nosuch" in line]
    assert all(name in line for name in SCENARIOS)


def test_replay_fails_a_file_naming_an_unknown_scenario_and_keeps_going(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    Schedule("nosuch", []).save(bad)
    assert main(["--replay", str(bad), str(CLEAN)]) == 1
    out = capsys.readouterr().out
    assert f"{bad}: UNKNOWN-SCENARIO 'nosuch'" in out
    assert f"{CLEAN}: clean" in out
