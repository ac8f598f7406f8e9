"""Enum members are read at import time, not on the per-WR / per-op path.

``Opcode.READ`` inside a function is an attribute lookup through
``enum``'s metaclass every time the line runs -- ~100 ns on CPython 3.9
to 3.11 (about 20 ns only from 3.12 on) against a few ns for a module
global, about 25 times per 8 B work request.  It is C-level time, so
cProfile bills it to the caller's self time and no profile names it
(DESIGN.md §17 "Host cost per WR").  ``repro.verbs.types``
binds every member to a module constant once; this file keeps function
bodies under ``src/repro`` on those constants
(``tests/test_no_local_imports.py`` keeps imports out of them).

One rule for the package.  Exempt: ``verbs/types.py`` (defines the
constants).
"""

import ast
import enum

from repro.verbs import types
from tests._source import PACKAGE, files, tree

ENUMS = ("Opcode", "WcStatus", "QpType", "QpState")
EXEMPT = ("verbs/types.py",)


def _violations(path):
    found = set()
    for function in ast.walk(tree(path)):
        if not isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        for node in ast.walk(function):
            if (
                isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id in ENUMS
            ):
                found.add(f"{node.lineno}: {node.value.id}.{node.attr}")
    return sorted(found)


def test_no_enum_member_loads_inside_functions():
    report = []
    for path in files("src/repro"):
        relative = path.relative_to(PACKAGE).as_posix()
        if not relative.startswith(EXEMPT):
            report += [f"src/repro/{relative}:{hit}" for hit in _violations(path)]
    assert not report, "\n".join(report)


def test_constants_are_the_enum_members():
    """The four types stay ``enum.Enum``, and each constant *is* its
    member, so ``is`` tests, reprs and trace JSON cannot tell."""
    prefixes = {
        types.Opcode: "OP_", types.WcStatus: "WC_",
        types.QpType: "QPT_", types.QpState: "QPS_",
    }
    for enum_type, prefix in prefixes.items():
        assert issubclass(enum_type, enum.Enum)
        for member in enum_type:
            assert getattr(types, prefix + member.name) is member
    assert set(types.POSTABLE_OPCODES) == set(types.Opcode) - {types.OP_RECV}
