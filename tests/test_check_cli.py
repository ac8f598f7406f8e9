"""``python -m repro.check``: an unknown scenario is a usage error, not a
traceback, and a failing run prints its violations and exits 1."""

import pytest

from repro.check.__main__ import main
from repro.check.scenarios import SCENARIOS
from tests._mutants import accept_leak


def test_an_unknown_scenario_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["nosuch"])
    assert exit_info.value.code == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    (line,) = [line for line in err.splitlines() if "nosuch" in line]
    assert all(name in line for name in SCENARIOS)


def test_a_failing_run_prints_its_violations(capsys):
    with accept_leak():
        assert main(["pool_churn"]) == 1
    out = capsys.readouterr().out
    assert "pool_churn FAIL(" in out
    assert "  violation [pool-qp-accounting]" in out
    assert main(["pool_churn"]) == 0  # the fixed module
    assert "pool_churn PASS" in capsys.readouterr().out
