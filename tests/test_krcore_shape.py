"""The shape of ``repro``: no forwarders in ``krcore``, no package reading
another's privates.

The KRCORE module owns its tables and its collaborators own theirs
(kernel messaging, MR validation, the pools); across the package a
caller calls the object that owns a mechanism.  Two rules:

1. No method under ``krcore/`` only forwards: a body, docstring aside,
   that is just ``return self.<attr>.<m>(...)``, ``yield from
   self.<attr>.<m>(...)`` or ``return (yield from self.<attr>.<m>(...))``.
   The allow-list is empty.
2. No code under ``src/repro`` reads, off anything but ``self``, a
   one-underscore name that a class of *another* top-level package
   defines (a method, or an attribute it stores on ``self``).  Such a
   reader gets a public name.  A name the reader's own package defines
   too is its own: the engine's sleeper seam, ``_resume``, has
   implementations in ``verbs``.  The allow-list holds
   one reader whose job is another layer's internals: the model
   checker's quiescence audit of the RNIC's inbound busy-until clock.
"""

import ast

from tests._source import trees
FORWARDERS_ALLOWED = set()
#: (reader under ``src/repro``, the package whose privates it reads).
PRIVATE_READS_ALLOWED = {("check/invariants.py", "cluster")}


def _forwarded_call(function):
    """The ``self.<attr>.<m>(...)`` call a method's whole body forwards to."""
    body = function.body
    if (
        body
        and isinstance(body[0], ast.Expr)
        and isinstance(body[0].value, ast.Constant)
        and isinstance(body[0].value.value, str)
    ):
        body = body[1:]
    if len(body) != 1:
        return None
    statement = body[0]
    if isinstance(statement, ast.Return):
        call = statement.value
    elif isinstance(statement, ast.Expr) and isinstance(statement.value, ast.YieldFrom):
        call = statement.value
    else:
        return None
    if isinstance(call, ast.YieldFrom):
        call = call.value
    if (
        isinstance(call, ast.Call)
        and isinstance(call.func, ast.Attribute)
        and isinstance(call.func.value, ast.Attribute)
        and isinstance(call.func.value.value, ast.Name)
        and call.func.value.value.id == "self"
    ):
        return call
    return None


def _private(name):
    return name.startswith("_") and not name.startswith("__")


def _package(relative):
    """The top-level package of a module under ``src/repro``."""
    head, _, rest = relative.partition("/")
    return head if rest else ""


def _private_definers(package_trees):
    """One-underscore name -> the packages whose classes define it."""
    definers = {}
    for relative, module in package_trees:
        for cls in ast.walk(module):
            if not isinstance(cls, ast.ClassDef):
                continue
            for node in ast.walk(cls):
                if isinstance(node, ast.FunctionDef):
                    name = node.name
                elif (
                    isinstance(node, ast.Attribute)
                    and isinstance(node.ctx, ast.Store)
                    and isinstance(node.value, ast.Name)
                    and node.value.id == "self"
                ):
                    name = node.attr
                else:
                    continue
                if _private(name):
                    definers.setdefault(name, set()).add(_package(relative))
    return definers


def test_no_krcore_method_only_forwards():
    found = set()
    for path, module in trees("src/repro/krcore"):
        for cls in ast.walk(module):
            if not isinstance(cls, ast.ClassDef):
                continue
            for function in cls.body:
                if isinstance(function, ast.FunctionDef) and _forwarded_call(function):
                    found.add(f"{path[len('src/repro/'):]}: {cls.name}.{function.name}")
    assert found == FORWARDERS_ALLOWED, "\n".join(sorted(found - FORWARDERS_ALLOWED))


def test_no_code_reads_another_packages_private():
    package_trees = [(path[len("src/repro/"):], module) for path, module in trees("src/repro")]
    definers = _private_definers(package_trees)
    for name in ("_pools", "_recycle", "_cache", "_rc_last_use"):
        assert "krcore" in definers[name]  # KRCORE's collaborators are seen
    found, used = [], set()
    for relative, module in package_trees:
        package = _package(relative)
        for node in ast.walk(module):
            if not isinstance(node, ast.Attribute) or (
                isinstance(node.value, ast.Name) and node.value.id == "self"
            ):
                continue
            owners = definers.get(node.attr, {package})
            if package in owners:
                continue
            allowed = {(relative, owner) for owner in owners} & PRIVATE_READS_ALLOWED
            used |= allowed
            if not allowed:
                found.append(
                    f"src/repro/{relative}:{node.lineno}: .{node.attr} "
                    f"(defined in {', '.join(sorted(owners))})"
                )
    assert not found, "\n".join(found)
    assert used == PRIVATE_READS_ALLOWED  # an allowance nothing uses goes


def test_the_forwarder_rule_sees_each_form():
    source = '''
class C:
    def a(self):
        """Doc."""
        return self.x.m(1)

    def b(self):
        yield from self.x.m()

    def c(self):
        return (yield from self.x.m())

    def d(self):
        return self.m()

    def e(self):
        self.n += 1
        return self.x.m()
'''
    cls = ast.parse(source).body[0]
    assert [f.name for f in cls.body if _forwarded_call(f)] == ["a", "b", "c"]
