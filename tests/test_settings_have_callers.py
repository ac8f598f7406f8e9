"""Every setting has a system caller.

A defaulted parameter that no system run passes is a constant with a
second name: it doubles the configurations the code claims to support and
keeps alive the branches only another value would reach.  This guard
fails on a defaulted parameter of a function in ``src/repro`` (the model
checker's ``check/`` included) that no *system caller* passes -- by
keyword, by position, or through ``*args`` / ``**kwargs``.  A system
caller is a call in ``src/``, ``benchmarks/`` or ``examples/``, or in a
test file the hit map runs as a system run (``benchmarks/hitmap.py``'s
``SYSTEM_FILES`` and ``CHAOS_FILE``): the same unit/system split the hit
map gives functions.  A setting only unit tests pass becomes a module
constant, which a test that needs another value monkeypatches.

Calls are matched to definitions by name, which over-matches (two
methods called ``run`` share their callers) and so can only hide an
unused setting, never invent one.  A ``Name(...)`` call of a class
resolves to the ``__init__`` it has or inherits from a ``src/repro``
class, ``cls(...)`` inside a class to that class's, and
``super().__init__(...)`` to the next one up; classes sharing a name (a
subclass named after its base in another module) merge into one.  Dunder methods other than
``__init__`` are called by syntax, not by name, and are not scanned.
Definitions are found among the statements of a module, class or
function body, so a function nested in a function is scanned; one
defined under an ``if``, ``for`` or ``with`` is not.  ``ALLOWED`` holds
the sites the AST cannot resolve, each with its reason.
"""

import ast
import functools

from tests import _source

SYSTEM_DIRS = ("src/", "benchmarks/", "examples/")

# "<path>:<function>(<param>)" -> why it stays with no system caller the AST sees.
_PLANE_LOOKUP = "passed as a function value to KrcoreModule._plane_lookup, called with deadline="
ALLOWED = {
    "src/repro/krcore/meta.py:lookup_dct(deadline)": _PLANE_LOOKUP,
    "src/repro/krcore/meta.py:lookup_mr(deadline)": _PLANE_LOOKUP,
}


def system_tests():
    """The test files that are system runs, as the hit map defines them."""
    hitmap = _source.hitmap()
    return (*hitmap.SYSTEM_FILES, hitmap.CHAOS_FILE)


def _definitions(defined):
    """``(site, name, params, owner)`` per function with defaults in
    ``defined`` (``(path, tree)`` pairs).

    ``params`` is ``[(param, position)]``, ``position`` counting after
    ``self``/``cls`` and ``None`` for keyword-only; ``owner`` the class
    a method sits in.
    """
    found = []
    for relative, tree in defined:
        for _, owner, node in _source.functions(tree):
            if node.name.startswith("__") and node.name != "__init__":
                continue
            decorators = {getattr(d, "id", None) for d in node.decorator_list}
            positional = node.args.posonlyargs + node.args.args
            skip = 1 if owner and "staticmethod" not in decorators else 0
            defaulted = positional[len(positional) - len(node.args.defaults):]
            params = [(arg.arg, positional.index(arg) - skip) for arg in defaulted]
            params += [
                (arg.arg, None)
                for arg, default in zip(node.args.kwonlyargs, node.args.kw_defaults)
                if default is not None
            ]
            if params:
                found.append((relative, node.name, params, owner))
    return found


def _classes(trees):
    """``{class: [base names]}`` and ``{class: has own __init__}``, the
    definitions of one name merged."""
    bases, own_init = {}, {}
    for _, tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                bases.setdefault(node.name, []).extend(
                    b.id if isinstance(b, ast.Name) else getattr(b, "attr", None)
                    for b in node.bases
                )
                own_init[node.name] = own_init.get(node.name, False) or any(
                    isinstance(c, ast.FunctionDef) and c.name == "__init__" for c in node.body
                )
    return bases, own_init


def _init_owner(name, bases, own_init, seen=()):
    """The class whose ``__init__`` ``name(...)`` runs, or ``None``."""
    if name not in bases or name in seen:
        return None
    if own_init[name]:
        return name
    for base in bases[name]:
        owner = _init_owner(base, bases, own_init, seen + (name,))
        if owner:
            return owner
    return None


def _calls(trees, bases, own_init):
    """``{(callee, owner-or-None): [(positional count, keywords, starred, path)]}``.

    ``owner`` is set for ``__init__`` calls only: the class whose
    ``__init__`` runs.
    """
    calls = {}
    for relative, tree in trees:
        classes = [node for node in ast.walk(tree) if isinstance(node, ast.ClassDef)]
        in_class = {id(node): klass.name for klass in classes for node in ast.walk(klass)}
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            klass = in_class.get(id(node))
            if isinstance(func, ast.Attribute):
                target = func.attr
                if (target == "__init__" and klass and isinstance(func.value, ast.Call)
                        and getattr(func.value.func, "id", None) == "super"):
                    target = (bases.get(klass) or [None])[0]
            elif isinstance(func, ast.Name):
                target = klass if func.id == "cls" and klass else func.id
            else:
                continue
            owner = _init_owner(target, bases, own_init)
            key = ("__init__", owner) if owner else (target, None)
            starred = any(isinstance(a, ast.Starred) for a in node.args) or any(
                k.arg is None for k in node.keywords)
            calls.setdefault(key, []).append(
                (len(node.args), {k.arg for k in node.keywords}, starred, relative))
    return calls


def passers(defined, callers):
    """``{"<path>:<function>(<param>)": {path of each file in callers with a
    call that passes it}}`` per defaulted parameter of a function in
    ``defined``; both are ``(path, tree)`` pairs."""
    defined, callers = list(defined), list(callers)
    calls = _calls(callers, *_classes(defined + callers))
    found = {}
    for site, name, params, owner in _definitions(defined):
        key = ("__init__", owner) if name == "__init__" else (name, None)
        seen = calls.get(key, [])
        for param, position in params:
            found[f"{site}:{name}({param})"] = {
                path for count, keywords, starred, path in seen
                if starred or param in keywords or (position is not None and count > position)
            }
    return found


def failures(passed, allowed, system):
    """What the guard fails on: a setting no system caller passes that
    ``allowed`` does not name, and an ``allowed`` entry with no reason or
    that names no such setting.  ``system`` is the system test files."""
    def is_system(path):
        return path.startswith(SYSTEM_DIRS) or path in system

    flagged = {site: sorted(paths) for site, paths in passed.items()
               if not any(map(is_system, paths))}
    found = []
    for site, paths in flagged.items():
        if site not in allowed:
            who = f"only unit tests pass it: {', '.join(paths)}" if paths else "nothing passes it"
            found.append(f"{site}: no system caller ({who}); make it a constant, "
                         "or say in ALLOWED why it stays")
    for site, reason in allowed.items():
        if site not in flagged:
            found.append(f"{site}: in ALLOWED, but a system caller passes it or it is gone")
        elif not reason:
            found.append(f"{site}: in ALLOWED with no reason")
    return found


@functools.cache
def repository_passers():
    """:func:`passers` over this repository: every file of ``src/repro``
    defines, every file of ``src``, ``tests``, ``examples`` and
    ``benchmarks`` calls."""
    return passers(_source.trees("src/repro"),
                   _source.trees("src", "tests", "examples", "benchmarks"))


def test_every_defaulted_parameter_is_passed_somewhere():
    """... by a system caller, or ``ALLOWED`` says why it stays."""
    found = failures(repository_passers(), ALLOWED, system_tests())
    assert not found, "\n".join(found)


def test_the_allow_list_is_live():
    """A short list: :func:`failures` also fails an entry with no reason
    or one a system caller now passes."""
    assert len(ALLOWED) <= 2


# ------------------------------------------------- the guard, fed by hand

_DEFINED = [("src/repro/core.py", ast.parse(
    "def serve(n, depth=1):\n    return n\n"
    "class Pool:\n    def __init__(self, size=4):\n        self.size = size\n"))]


def _caller(path, source):
    return path, ast.parse(source)


def test_a_setting_only_a_unit_test_passes_is_flagged_with_that_file():
    passed = passers(_DEFINED, [
        _caller("src/repro/app.py", "serve(1)\nPool(size=8)\n"),
        _caller("tests/test_core.py", "serve(1, depth=2)\n"),
    ])
    assert passed["src/repro/core.py:serve(depth)"] == {"tests/test_core.py"}
    assert failures(passed, {}, system=()) == [
        "src/repro/core.py:serve(depth): no system caller (only unit tests pass it: "
        "tests/test_core.py); make it a constant, or say in ALLOWED why it stays"]


def test_a_setting_a_benchmark_or_a_system_test_passes_is_not_flagged():
    for path in ("benchmarks/run.py", "tests/test_system.py"):
        passed = passers(_DEFINED, [
            _caller("src/repro/app.py", "Pool(8)\n"),
            _caller(path, "serve(1, 2)\n"),
        ])
        assert failures(passed, {}, system=("tests/test_system.py",)) == []


def test_an_allowed_entry_needs_a_reason_and_a_setting_the_scan_flags():
    passed = passers(_DEFINED, [_caller("examples/demo.py", "Pool(size=2)\n")])
    site = "src/repro/core.py:serve(depth)"
    assert failures(passed, {site: "a reason"}, system=()) == []
    assert failures(passed, {site: ""}, system=()) == [f"{site}: in ALLOWED with no reason"]
    stale = "src/repro/core.py:__init__(size)"
    assert failures(passed, {site: "a reason", stale: "stale"}, system=()) == [
        f"{stale}: in ALLOWED, but a system caller passes it or it is gone"]
