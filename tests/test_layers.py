"""The packages of ``repro`` import downward only.

The layer order, lowest first::

    sim < workloads < obs, check.invariants < cluster < verbs
        < degrade, kvs < krcore, lite < apps < bench, faults

A module may import its own layer and the layers below it; an import of
a higher layer fails this test.  Every layer reports to the model
checker through the observer seam in ``obs``; ``check.invariants`` (the
checker, which imports no ``repro`` module) sits with it.  The rest of
``check/`` drives the whole stack and ranks above it, so it and every
``__main__`` (a CLI over its package) are not held to the order.  No
other module is exempt.
"""

import ast

from tests._source import PACKAGE, files, tree

RANKS = {
    "sim": 0,
    "workloads": 1,
    "obs": 2,
    "check.invariants": 2,
    "check": 2,  # the package itself imports nothing
    "cluster": 3,
    "verbs": 4,
    "degrade": 5,
    "kvs": 5,
    "krcore": 6,
    "lite": 6,
    "apps": 7,
    "bench": 8,
    "faults": 8,
}
TOP = max(RANKS.values()) + 1  # the rest of ``check/``


def rank(module):
    """The layer of ``module`` (dotted, without the ``repro.`` prefix)."""
    parts = module.split(".")
    if parts[0] == "check" and len(parts) > 1:
        return RANKS.get(".".join(parts[:2]), TOP)
    return RANKS.get(parts[0], TOP)


def _is_module(module):
    """Whether ``module`` (dotted, no prefix) is a file or package of ``repro``."""
    path = PACKAGE.joinpath(*module.split("."))
    return path.with_suffix(".py").exists() or (path / "__init__.py").exists()


def _imported(node, package):
    """The ``repro`` modules (dotted, no prefix) an import statement names."""
    if isinstance(node, ast.Import):
        return [
            alias.name[len("repro."):]
            for alias in node.names
            if alias.name.startswith("repro.")
        ]
    if node.level:
        parts = package.split(".")
        source = ".".join(
            ["repro", *parts[: len(parts) - node.level + 1], *([node.module] if node.module else [])]
        )
    else:
        source = node.module
    if source != "repro" and not source.startswith("repro."):
        return []
    module = source[len("repro."):]
    # ``from repro.check import invariants, runner`` imports both submodules;
    # ``from repro import obs`` imports ``obs``.
    found = []
    for alias in node.names:
        sub = f"{module}.{alias.name}" if module else alias.name
        if _is_module(sub):
            found.append(sub)
    if module and len(found) < len(node.names):
        found.append(module)  # a name defined in ``module`` itself
    return found


def upward_imports():
    """``"<file>:<line>: <module> -> <imported>"`` for each upward import."""
    report = []
    for path in files("src/repro"):
        relative = path.relative_to(PACKAGE)
        module = ".".join(relative.with_suffix("").parts)
        if relative.name == "__init__.py":
            module = ".".join(relative.parent.parts)
        if not module or relative.name == "__main__.py" or rank(module) == TOP:
            continue
        package = module if relative.name == "__init__.py" else module.rpartition(".")[0]
        for node in ast.walk(tree(path)):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for target in _imported(node, package):
                    if rank(target) > rank(module):
                        report.append(
                            f"src/repro/{relative.as_posix()}:{node.lineno}: "
                            f"{module} -> {target}"
                        )
    return report


def test_no_upward_import():
    report = upward_imports()
    assert not report, "\n".join(report)


def test_the_ranks_cover_every_package():
    packages = {path.name for path in PACKAGE.iterdir() if (path / "__init__.py").exists()}
    assert packages == {key for key in RANKS if "." not in key}


def test_rank_reads_check_modules_apart():
    assert rank("check.invariants") == rank("obs") == rank("check")
    assert rank("check.runner") == rank("check.scenarios") == TOP
    assert rank("krcore.module") == rank("lite") > rank("kvs.store")


def _names(source, package="sim"):
    return _imported(ast.parse(source).body[0], package)


def test_imported_reads_every_import_form():
    assert _names("import repro.obs.metrics, os") == ["obs.metrics"]
    assert _names("from repro import obs") == ["obs"]
    assert _names("from repro.check import invariants, runner") == [
        "check.invariants", "check.runner"]
    assert _names("from repro.verbs import qp, QueuePair") == ["verbs.qp", "verbs"]
    assert _names("from repro.obs.metrics import MetricsRegistry") == ["obs.metrics"]
    assert _names("from ..obs import metrics", package="sim") == ["obs.metrics"]
    assert _names("from os import path") == []


def test_an_upward_import_in_either_from_form_ranks_upward():
    # ``sim/engine.py`` importing ``obs``, and ``cluster`` importing ``check.runner``.
    assert max(rank(target) for target in _names("from repro import obs")) > rank("sim")
    names = _names("from repro.check import invariants, runner")
    assert max(rank(target) for target in names) > rank("cluster")
