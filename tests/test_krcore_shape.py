"""The shape of ``repro.krcore``: no forwarders, no reaching into privates.

The module owns its tables and its collaborators own theirs (kernel
messaging, MR validation, the pools); a caller calls the object that owns
a mechanism.  Two rules, each with an empty allow-list:

1. No method under ``krcore/`` only forwards: a body, docstring aside,
   that is just ``return self.<attr>.<m>(...)``, ``yield from
   self.<attr>.<m>(...)`` or ``return (yield from self.<attr>.<m>(...))``.
2. No code under ``src/repro`` outside ``krcore/`` reads a private
   attribute of the module or of a collaborator: a one-underscore name
   that :class:`KrcoreModule`, :class:`KernelMessaging`,
   :class:`MrStore`, :class:`ValidMr` or :class:`HybridQpPool` defines,
   read off anything but ``self``.  Such a reader gets a public name.
"""

import ast
import pathlib

from repro import krcore

KRCORE = pathlib.Path(krcore.__file__).resolve().parent
PACKAGE = KRCORE.parent
COLLABORATORS = ("KrcoreModule", "KernelMessaging", "MrStore", "ValidMr", "HybridQpPool")

FORWARDERS_ALLOWED = set()
PRIVATE_READS_ALLOWED = set()


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


def _collaborator_privates():
    names = set()
    for path in KRCORE.glob("*.py"):
        for cls in ast.walk(ast.parse(path.read_text())):
            if not isinstance(cls, ast.ClassDef) or cls.name not in COLLABORATORS:
                continue
            for node in ast.walk(cls):
                if isinstance(node, ast.FunctionDef) and _private(node.name):
                    names.add(node.name)
                elif (
                    isinstance(node, ast.Attribute)
                    and isinstance(node.ctx, ast.Store)
                    and isinstance(node.value, ast.Name)
                    and node.value.id == "self"
                    and _private(node.attr)
                ):
                    names.add(node.attr)
    return names


def test_no_krcore_method_only_forwards():
    found = set()
    for path in sorted(KRCORE.glob("*.py")):
        for cls in ast.walk(ast.parse(path.read_text())):
            if not isinstance(cls, ast.ClassDef):
                continue
            for function in cls.body:
                if isinstance(function, ast.FunctionDef) and _forwarded_call(function):
                    found.add(f"krcore/{path.name}: {cls.name}.{function.name}")
    assert found == FORWARDERS_ALLOWED, "\n".join(sorted(found - FORWARDERS_ALLOWED))


def test_no_code_outside_krcore_reads_a_collaborator_private():
    privates = _collaborator_privates()
    assert {"_pools", "_recycle", "_cache", "_rc_last_use"} <= privates
    found = set()
    for path in sorted(PACKAGE.rglob("*.py")):
        relative = path.relative_to(PACKAGE).as_posix()
        if relative.startswith("krcore/"):
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if (
                isinstance(node, ast.Attribute)
                and node.attr in privates
                and not (isinstance(node.value, ast.Name) and node.value.id == "self")
            ):
                found.add(f"{relative}:{node.lineno}: .{node.attr}")
    assert found == PRIVATE_READS_ALLOWED, "\n".join(sorted(found - PRIVATE_READS_ALLOWED))


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
