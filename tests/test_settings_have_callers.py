"""Every setting has a caller.

A defaulted parameter that no call passes is a constant with a second
name: it doubles the configurations the code claims to support and
keeps alive the branches only another value would reach.  This guard
fails on a defaulted parameter of a function in ``src/repro`` (outside
``check/``, the model checker's own harness) that no call in ``src/``,
``tests/``, ``examples/`` or ``benchmarks/`` passes -- by keyword, by
position, or through ``*args`` / ``**kwargs``.

Calls are matched to definitions by name, which over-matches (two
methods called ``run`` share their callers) and so can only hide an
unused setting, never invent one.  A ``Name(...)`` call of a class
resolves to the ``__init__`` it has or inherits from a ``src/repro``
class, ``cls(...)`` inside a class to that class's, and
``super().__init__(...)`` to the next one up; classes sharing a name (a
subclass named after its base in another module) merge into one.  Dunder methods other than
``__init__`` are called by syntax, not by name, and are not scanned.
Definitions are found among the statements of a module, class or
function body, so a function nested in a function is scanned (``fig12``'s
``patched_init`` is one); one defined under an ``if``, ``for`` or
``with`` is not.  ``ALLOWED`` holds the only sites the AST cannot
resolve.
"""

import ast
import functools

from tests import _source

CALLER_DIRS = ("src", "tests", "examples", "benchmarks")

# "<path>:<function>(<param>)" -> why the AST cannot see its caller.
_PATCHED_INIT = "mirrors KrcoreLib.__init__: installed over it, called as KrcoreLib(...)"
_PLANE_LOOKUP = "passed as a function value to KrcoreModule._plane_lookup, called with deadline="
ALLOWED = {
    "src/repro/bench/fig12.py:patched_init(cpu_id)": _PATCHED_INIT,
    "src/repro/bench/fig12.py:patched_init(charge_syscall)": _PATCHED_INIT,
    "src/repro/krcore/meta.py:lookup_dct(deadline)": _PLANE_LOOKUP,
    "src/repro/krcore/meta.py:lookup_mr(deadline)": _PLANE_LOOKUP,
}


def _definitions():
    """``(site, name, kind, params, owner)`` per function with defaults.

    ``params`` is ``[(param, position)]``, ``position`` counting after
    ``self``/``cls`` and ``None`` for keyword-only; ``owner`` the class
    a method sits in.
    """
    found = []
    for relative, tree in _source.trees("src/repro"):
        if relative.startswith("src/repro/check/"):
            continue
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


def _classes():
    """``{class: [base names]}`` and ``{class: has own __init__}``, the
    definitions of one name merged."""
    bases, own_init = {}, {}
    for _, tree in _source.trees(*CALLER_DIRS):
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


def _calls(bases, own_init):
    """``{(callee, owner-or-None): [(positional count, keywords, starred)]}``.

    ``owner`` is set for ``__init__`` calls only: the class whose
    ``__init__`` runs.
    """
    calls = {}
    for _, tree in _source.trees(*CALLER_DIRS):
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
                (len(node.args), {k.arg for k in node.keywords}, starred))
    return calls


@functools.cache
def unused_settings():
    """``"<path>:<function>(<param>)"`` for each parameter no call passes."""
    bases, own_init = _classes()
    calls = _calls(bases, own_init)
    unused = []
    for site, name, params, owner in _definitions():
        key = ("__init__", owner) if name == "__init__" else (name, None)
        seen = calls.get(key, [])
        for param, position in params:
            if not any(
                starred or param in keywords or (position is not None and count > position)
                for count, keywords, starred in seen
            ):
                unused.append(f"{site}:{name}({param})")
    return unused


def test_every_defaulted_parameter_is_passed_somewhere():
    unused = [site for site in unused_settings() if site not in ALLOWED]
    assert not unused, "\n".join(unused)


def test_the_allow_list_is_live():
    assert set(ALLOWED) <= set(unused_settings())
