"""The repository's Python source as the AST guards read it, parsed once.

Every guard (``test_counts_are_read``, ``test_settings_have_callers``,
``test_layers``, ``test_no_local_imports``,
``test_timing_constants_are_read``, ``test_krcore_shape``,
``test_hot_path_enums``) scans ``src/repro`` and some scan ``tests``,
``benchmarks`` and ``examples`` too; parsing was most of their cost.
One tree per file is kept for the session and shared: a guard reads the
trees and never changes one.
"""

import ast
import functools
import importlib.util
import pathlib

import repro

PACKAGE = pathlib.Path(repro.__file__).resolve().parent
ROOT = PACKAGE.parents[1]


@functools.cache
def tree(path):
    """The module AST of the file at ``path``."""
    return ast.parse(path.read_text())


@functools.cache
def files(top):
    """The ``.py`` files under ``ROOT / top`` (or that file), sorted."""
    path = ROOT / top
    return (path,) if path.is_file() else tuple(sorted(path.rglob("*.py")))


def trees(*tops):
    """``(path relative to ROOT, tree)`` per file under (or at) each of ``tops``."""
    for top in tops:
        for path in files(top):
            yield path.relative_to(ROOT).as_posix(), tree(path)


def functions(module):
    """``(qualified name, class, node)`` per function defined among the
    statements of a module, class or function body: a method is
    ``Class.name`` and ``class`` names the class it sits in directly
    (``None`` for any other function).  One defined under an ``if``,
    ``for`` or ``with`` is not found."""
    scopes = [(node, "", None) for node in module.body]
    while scopes:
        node, prefix, owner = scopes.pop()
        if isinstance(node, ast.ClassDef):
            scopes += [(child, f"{prefix}{node.name}.", node.name) for child in node.body]
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield f"{prefix}{node.name}", owner, node
            scopes += [(child, f"{prefix}{node.name}.", None) for child in node.body]


@functools.cache
def hitmap():
    """``benchmarks/hitmap.py`` as a module: its ``SYSTEM_FILES`` and
    ``CHAOS_FILE`` say which test files are system runs."""
    spec = importlib.util.spec_from_file_location("hitmap", ROOT / "benchmarks" / "hitmap.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module
