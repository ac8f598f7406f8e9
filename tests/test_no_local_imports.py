"""Every ``repro`` import sits at module scope.

An import inside a function body runs every time the function does (a
``sys.modules`` lookup and a name bind, once per routed message on the
path that had one) and hides an edge of the import graph from the
module's header, which is where a cycle should be seen and fixed.  One
rule for the package, with one exemption: ``check/scenarios.py``, whose
scenario builders import the stack the model checker drives -- the
layers under check import ``repro.check.hooks``, so at module scope
those imports would close a cycle.
"""

import ast

from tests._source import PACKAGE, files, tree

EXEMPT = ("check/scenarios.py",)


def _local_imports(module):
    """``"<line>: <module>"`` for each ``repro`` import in a function body."""
    found = set()
    for function in ast.walk(module):
        if not isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        for node in ast.walk(function):
            if isinstance(node, ast.ImportFrom):
                modules = ["." * node.level + (node.module or "")]
            elif isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            else:
                continue
            for module in modules:
                if module.split(".")[0] in ("repro", ""):
                    found.add(f"{node.lineno}: {module}")
    return found


def test_no_repro_import_inside_a_function():
    report = []
    for path in files("src/repro"):
        relative = path.relative_to(PACKAGE).as_posix()
        if relative not in EXEMPT:
            hits = _local_imports(tree(path))
            report += [f"src/repro/{relative}:{hit}" for hit in sorted(hits)]
    assert not report, "\n".join(report)


def test_the_rule_sees_each_form():
    source = """
import repro.sim

def a():
    from repro.verbs import qp

def b():
    import repro.bench.onesided as onesided

def c():
    def inner():
        from . import obs

def d():
    import json
"""
    assert _local_imports(ast.parse(source)) == {
        "5: repro.verbs", "8: repro.bench.onesided", "12: .",
    }
