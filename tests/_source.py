"""The repository's Python source as the AST guards read it, parsed once.

Every guard (``test_counts_are_read``, ``test_probes``,
``test_settings_have_callers``, ``test_layers``, ``test_no_local_imports``,
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


#: The observer seam's global (``repro.obs.OBSERVER``) and the attributes
#: of an observer that are subscribers, not probes.
SEAM = "OBSERVER"
SUBSCRIBERS = ("tracer", "metrics", "checker")


def own_nodes(scope):
    """The nodes of a module's or function's body, without those of the
    functions or classes defined in it (they are scopes of their own)."""
    stack = list(scope.body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            continue
        yield node
        stack += ast.iter_child_nodes(node)


def seam_uses(scope):
    """``(tests, probes)`` in ``scope``'s own code: each ``is None`` /
    ``is not None`` comparison of the seam, and each attribute node read
    off it that fires a probe (any but a subscriber).  The seam is
    ``OBSERVER`` read off its module, by its own name, or through a local
    alias assigned from it."""
    nodes = list(own_nodes(scope))

    def is_seam(node):
        return (isinstance(node, ast.Attribute) and node.attr == SEAM) or (
            isinstance(node, ast.Name) and node.id == SEAM)

    aliases = {
        target.id
        for node in nodes if isinstance(node, ast.Assign) and is_seam(node.value)
        for target in node.targets if isinstance(target, ast.Name)
    }

    def seam(node):
        return is_seam(node) or (isinstance(node, ast.Name) and node.id in aliases)

    tests = [
        node for node in nodes
        if isinstance(node, ast.Compare) and len(node.ops) == 1
        and isinstance(node.ops[0], (ast.Is, ast.IsNot)) and seam(node.left)
        and isinstance(node.comparators[0], ast.Constant) and node.comparators[0].value is None
    ]
    probes = [
        node for node in nodes
        if isinstance(node, ast.Attribute) and seam(node.value) and node.attr not in SUBSCRIBERS
    ]
    return tests, probes


def probe_name(node):
    """The probe an ``on_<name>`` attribute read off the seam fires (the
    attribute itself if it lacks the prefix: no probe has that name)."""
    return node.attr[3:] if node.attr.startswith("on_") else node.attr


def scopes(module):
    """The module and every function defined in it, each a scope of
    :func:`seam_uses`."""
    return [module, *(function for _, _, function in functions(module))]


@functools.cache
def hitmap():
    """``benchmarks/hitmap.py`` as a module: its ``SYSTEM_FILES`` and
    ``CHAOS_FILE`` say which test files are system runs."""
    spec = importlib.util.spec_from_file_location("hitmap", ROOT / "benchmarks" / "hitmap.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module
