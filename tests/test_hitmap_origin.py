"""The hit map's origin gate (``benchmarks/hitmap.py``), fed by hand.

``make hitmap`` fails on a module of ``src/repro`` that only unit runs
enter, and on a lead -- a function only unit runs enter inside a module a
system run enters -- unless ``UNIT_ONLY`` says why it stays (keyed by
module, or by ``module:Qualname``).  It also fails on a ``UNIT_ONLY``
entry that a system run enters or that names no module or function, so
the allow-list cannot rot.  These tests drive ``report`` with merged hit
maps built by hand over a two-module package; nothing runs under the
tracer.
"""

import pytest

from tests import _source


@pytest.fixture(scope="module")
def hitmap():
    return _source.hitmap()


@pytest.fixture
def package(tmp_path):
    """``src/repro`` with ``core.py`` (a system run enters ``serve``) and
    ``extra.py`` (only a unit run enters ``helper``)."""
    root = tmp_path.resolve() / "src" / "repro"
    (root / "sub").mkdir(parents=True)
    (root / "__init__.py").write_text("VERSION = 1\n")
    (root / "core.py").write_text("def serve():\n    return 1\n")
    (root / "sub" / "extra.py").write_text("def helper():\n    return 2\n")
    return root


def _merged(package):
    return {
        "system": {str(package / "core.py"): ({1, 2}, {1})},
        "unit": {str(package / "__init__.py"): ({1}, {1}),
                 str(package / "core.py"): ({1, 2}, {1}),
                 str(package / "sub" / "extra.py"): ({1, 2}, {1})},
    }


def test_a_module_only_unit_runs_enter_fails_the_gate(hitmap, package, capsys):
    percent, failures = hitmap.report(_merged(package), package, {})
    assert percent == 100.0
    assert failures == [
        "sub/extra.py: only unit runs enter it; delete it, or say in UNIT_ONLY why it stays"]
    assert "  sub/extra.py: no reason in UNIT_ONLY" in capsys.readouterr().out


def test_a_reason_in_unit_only_passes_the_gate(hitmap, package, capsys):
    _, failures = hitmap.report(_merged(package), package, {"sub/extra.py": "a reason"})
    assert failures == []
    assert "  sub/extra.py: a reason" in capsys.readouterr().out


def test_a_unit_only_entry_a_system_run_enters_fails_the_gate(hitmap, package):
    unit_only = {"sub/extra.py": "a reason", "core.py": "stale"}
    _, failures = hitmap.report(_merged(package), package, unit_only)
    assert failures == ["core.py: in UNIT_ONLY, but a system run enters it"]


def test_a_unit_only_entry_with_no_module_fails_the_gate(hitmap, package):
    unit_only = {"sub/extra.py": "a reason", "sub/gone.py": "deleted since"}
    _, failures = hitmap.report(_merged(package), package, unit_only)
    assert failures == ["sub/gone.py: in UNIT_ONLY, but there is no such module"]


def test_a_module_no_run_enters_is_unit_only_too(hitmap, package):
    merged = _merged(package)
    del merged["unit"][str(package / "sub" / "extra.py")]
    percent, failures = hitmap.report(merged, package, {"sub/extra.py": "a reason"})
    assert failures == []
    assert percent < 100.0


def _with_spare(package):
    """``core.py`` gains ``spare``, which only a unit run enters, and
    ``dead``, which no run enters."""
    (package / "core.py").write_text(
        "def serve():\n    return 1\n\n\ndef spare():\n    return 3\n\n\ndef dead():\n    return 4\n")
    merged = _merged(package)
    merged["unit"][str(package / "core.py")] = ({1, 2, 5, 6}, {1, 5})
    return merged


def _leads(out):
    return out[out.index("Leads"):].splitlines()[1:]


def test_a_function_only_unit_runs_enter_in_a_live_module_is_a_lead(hitmap, package, capsys):
    _, failures = hitmap.report(_with_spare(package), package, {"sub/extra.py": "a reason"})
    assert failures == [
        "core.py:spare: only unit runs enter it; delete it, or say in UNIT_ONLY why it stays"]
    out = capsys.readouterr().out
    assert _leads(out) == ["  core.py:spare (line 5): no reason in UNIT_ONLY"]
    assert "  never entered: dead (line 9)" in out


def test_a_function_entry_in_unit_only_passes_the_gate(hitmap, package, capsys):
    unit_only = {"sub/extra.py": "a reason", "core.py:spare": "a system caller is coming"}
    _, failures = hitmap.report(_with_spare(package), package, unit_only)
    assert failures == []
    assert _leads(capsys.readouterr().out) == [
        "  core.py:spare (line 5): a system caller is coming"]


def test_a_function_entry_a_system_run_enters_fails_the_gate(hitmap, package):
    merged = _with_spare(package)
    merged["system"][str(package / "core.py")] = ({1, 2, 5, 6}, {1, 5})
    unit_only = {"sub/extra.py": "a reason", "core.py:spare": "stale"}
    _, failures = hitmap.report(merged, package, unit_only)
    assert failures == ["core.py:spare: in UNIT_ONLY, but a system run enters it"]


def test_a_function_entry_naming_a_deleted_function_fails_the_gate(hitmap, package):
    unit_only = {"sub/extra.py": "a reason", "core.py:spare": "a reason",
                 "core.py:gone": "deleted since"}
    _, failures = hitmap.report(_with_spare(package), package, unit_only)
    assert failures == ["core.py:gone: in UNIT_ONLY, but there is no such function"]


def test_a_function_entry_no_run_enters_fails_the_gate(hitmap, package):
    unit_only = {"sub/extra.py": "a reason", "core.py:spare": "a reason",
                 "core.py:dead": "no caller left"}
    _, failures = hitmap.report(_with_spare(package), package, unit_only)
    assert failures == ["core.py:dead: in UNIT_ONLY, but no run enters it"]


def test_same_named_methods_are_told_apart_by_qualname(hitmap, package, capsys):
    """Two ``choose`` methods in one file: a system run enters one, a
    unit run only the other, and only that one is a lead."""
    (package / "core.py").write_text(
        "class Fifo:\n    def choose(self):\n        return 1\n\n\n"
        "class Pct:\n    def choose(self):\n        return 2\n")
    merged = _merged(package)
    merged["system"][str(package / "core.py")] = ({1, 2, 3, 6}, {2})
    merged["unit"][str(package / "core.py")] = ({1, 2, 3, 6, 7, 8}, {2, 7})
    unit_only = {"sub/extra.py": "a reason", "core.py:Pct.choose": "a reason"}
    _, failures = hitmap.report(merged, package, unit_only)
    assert failures == []
    assert _leads(capsys.readouterr().out) == ["  core.py:Pct.choose (line 7): a reason"]
    unit_only["core.py:Fifo.choose"] = "stale"
    _, failures = hitmap.report(merged, package, unit_only)
    assert failures == ["core.py:Fifo.choose: in UNIT_ONLY, but a system run enters it"]
