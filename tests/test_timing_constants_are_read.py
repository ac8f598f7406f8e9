"""Every calibration constant has a reader in the model.

``repro.cluster.timing`` holds the model's calibration: each constant is
there because some simulated cost is computed from it.  A constant that
no model code reads is a paper value with no mechanism behind it -- it
reads as calibrating a figure it does not touch.  Such a value belongs
beside the test or figure that compares against it, not in the model.

This guard fails on an upper-case module-level name assigned in
``timing.py`` that no file of ``src/repro`` other than ``timing.py``
reads, directly or through another ``timing`` name that is itself read
(a constant summed into a read constant, or used by a read function).
A read is ``timing.NAME`` or a string constant equal to ``NAME`` (what
``getattr`` / ``setattr`` take, as ``bench/discussion.py`` does).  A
module-level ``assert`` in ``timing.py`` is a check, not a read.
"""

import ast

from tests._source import PACKAGE, files, tree

TIMING = PACKAGE / "cluster" / "timing.py"


def _definitions():
    """``{name: names its definition uses}`` for every module-level
    assignment and function of ``timing.py``."""
    uses = {}
    for node in tree(TIMING).body:
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [t.id for t in targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.FunctionDef):
            names = [node.name]
        else:
            continue
        used = {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}
        for name in names:
            uses[name] = used - {name}
    return uses


def _outside_reads():
    """Names of ``timing`` read by ``src/repro`` outside ``timing.py``."""
    read = set()
    for path in files("src/repro"):
        if path == TIMING:
            continue
        for node in ast.walk(tree(path)):
            if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                    and node.value.id == "timing"):
                read.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                read.add(node.value)
    return read


def unread_constants():
    uses = _definitions()
    live = set()
    frontier = [name for name in _outside_reads() if name in uses]
    while frontier:
        name = frontier.pop()
        if name not in live:
            live.add(name)
            frontier += [used for used in uses[name] if used in uses]
    return sorted(name for name in uses if name.isupper() and name not in live)


def test_every_timing_constant_is_read_by_the_model():
    unread = unread_constants()
    assert not unread, (
        "cluster/timing.py constants no src/repro code reads (move a paper "
        "value beside its test, delete the rest): " + ", ".join(unread))
