"""Count each fact once, and only what something reads.

A count nobody reads is work on every pass through its site -- a guard,
a dict lookup, an f-string -- that buys nothing; a fact counted twice,
once in a ``stats_*`` attribute and once in a ``METRICS`` counter, is
two numbers that can drift apart.  Three rules over ``src/repro``:

1. Every metric name pushed through ``.counter(name).inc(...)`` appears
   in a string constant under ``tests/`` or ``benchmarks/`` (not as the
   name of such a push there; ``.counter(name).value`` is a read).  An
   f-string name is matched by its literal head, against a constant
   that starts with it and is not itself a name pushed literally.
2. Every ``stats_*`` attribute assigned is loaded somewhere in
   ``src/``, ``tests/``, ``benchmarks/`` or ``examples/`` (or named by
   a string constant, as ``getattr`` does) -- its own ``+=`` is a
   store, not a load.
3. No function both augments a ``stats_*`` attribute and pushes a
   ``METRICS`` counter, except the facts in ``DOUBLE_COUNTED``: each
   side of those has a reader that cannot move yet.

Rules 1 and 2 have no allow-list.  A fourth check caps the lines that
guard an observer (``TRACER`` / ``METRICS`` / ``CHECKER is None``) in
``src/repro``.
"""

import ast
import functools
import pathlib
import re

from tests import _source

THIS = pathlib.Path(__file__).resolve().relative_to(_source.ROOT).as_posix()

# "<path>:<function>(<stats attribute>)" -> why both sides stay.
_CHAOS_REPORT = (
    "the attribute feeds the ChaosHarness report, digested by the chaos "
    "goldens and the chaos_guarded workload; the metric feeds "
    "tests/observatory_counts.json"
)
DOUBLE_COUNTED = {
    "src/repro/krcore/mrstore.py:MrStore.check_cached(stats_stale_hits)": (
        "the attribute feeds the digested MicroView chaos invariant; the "
        "metric feeds the observatory's krcore.mrstore_hit_ratio"
    ),
    "src/repro/krcore/mrstore.py:MrStore.check(stats_stale_accepts)": _CHAOS_REPORT,
    "src/repro/krcore/vqp.py:Vqp._rc_fallback(stats_rc_fallbacks)": _CHAOS_REPORT,
    "src/repro/krcore/module.py:KrcoreModule._plane_lookup(stats_meta_failovers)": (
        _CHAOS_REPORT
    ),
}

#: Lines in ``src/repro`` matching GUARD.  The ceiling only goes down:
#: lower it when a change removes guards, never raise it.
GUARD = re.compile(r"(TRACER|METRICS|CHECKER) is (not )?None")
GUARD_CEILING = 86


def _parsed(*tops):
    return ((path, tree) for path, tree in _source.trees(*tops) if path != THIS)


def _pushed(node):
    """The name argument of a ``<registry>.counter(name).inc(...)`` push
    at ``node``, or None (``.counter(name).value`` is a read)."""
    if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr == "inc"):
        return None
    counter = node.func.value
    if (isinstance(counter, ast.Call) and isinstance(counter.func, ast.Attribute)
            and counter.func.attr == "counter" and len(counter.args) == 1):
        return counter.args[0]
    return None


def _own_nodes(function):
    """The nodes of ``function``'s body, without those of nested functions
    or classes (they are scanned on their own)."""
    stack = list(function.body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            continue
        yield node
        stack += ast.iter_child_nodes(node)


@functools.cache
def pushes():
    """``(site, name, is_head)`` per counter push in src/repro;
    ``is_head`` for an f-string, whose ``name`` is its literal head."""
    found = []
    for path, tree in _parsed("src/repro"):
        for node in ast.walk(tree):
            arg = _pushed(node)
            if arg is None:
                continue
            site = f"{path}:{node.lineno}"
            if isinstance(arg, ast.Constant) and isinstance(arg.value, str):
                found.append((site, arg.value, False))
            elif isinstance(arg, ast.JoinedStr):
                head = ""
                for part in arg.values:
                    if not isinstance(part, ast.Constant):
                        break
                    head += part.value
                found.append((site, head, True))
            else:  # a name the AST cannot read is never matched
                found.append((site, ast.unparse(arg), False))
    return found


def _read_strings():
    """Every string constant under tests/ and benchmarks/ outside the
    name of a counter push."""
    strings = set()
    for _, tree in _parsed("tests", "benchmarks"):
        pushed = set()
        for node in ast.walk(tree):
            arg = _pushed(node)
            if arg is not None:
                pushed.update(id(inner) for inner in ast.walk(arg))
        for node in ast.walk(tree):
            if (isinstance(node, ast.Constant) and isinstance(node.value, str)
                    and id(node) not in pushed):
                strings.add(node.value)
    return strings


def unread_metrics():
    """``"<site> <name>"`` for each push no test or benchmark reads."""
    found = pushes()
    literal = {name for _, name, is_head in found if not is_head}
    strings = _read_strings()
    unread = []
    for site, name, is_head in found:
        if is_head:
            read = bool(name) and any(
                s.startswith(name) and s not in literal for s in strings
            )
        else:
            read = name in strings
        if not read:
            unread.append(f"{site} {name}{'{...}' if is_head else ''}")
    return unread


def unread_stats():
    """``"<path>:<line> <attribute>"`` per ``stats_*`` attribute that
    ``src/repro`` assigns and nothing loads."""
    assigned = {}
    for path, tree in _parsed("src/repro"):
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute) and node.attr.startswith("stats_")
                    and isinstance(node.ctx, ast.Store)):
                assigned.setdefault(node.attr, f"{path}:{node.lineno}")
    loaded = set()
    for _, tree in _parsed("src", "tests", "benchmarks", "examples"):
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                loaded.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                loaded.add(node.value)
    return sorted(f"{site} {name}" for name, site in assigned.items() if name not in loaded)


@functools.cache
def double_counts():
    """``"<path>:<function>(<stats attribute>)"`` per ``stats_*``
    attribute augmented in a function that also pushes a counter."""
    found = []
    for path, tree in _parsed("src/repro"):
        for name, _, function in _source.functions(tree):
            nodes = list(_own_nodes(function))
            if not any(_pushed(node) is not None for node in nodes):
                continue
            found += sorted({
                f"{path}:{name}({node.target.attr})"
                for node in nodes
                if isinstance(node, ast.AugAssign)
                and isinstance(node.target, ast.Attribute)
                and node.target.attr.startswith("stats_")
            })
    return found


def guard_lines():
    return [
        f"{path.relative_to(_source.ROOT).as_posix()}:{number}"
        for path in _source.files("src/repro")
        for number, line in enumerate(path.read_text().splitlines(), 1)
        if GUARD.search(line)
    ]


def test_every_pushed_metric_is_read():
    unread = unread_metrics()
    assert not unread, "pushed, never read:\n" + "\n".join(unread)


def test_every_stats_attribute_is_read():
    unread = unread_stats()
    assert not unread, "assigned, never loaded:\n" + "\n".join(unread)


def test_no_fact_is_counted_twice():
    doubled = [site for site in double_counts() if site not in DOUBLE_COUNTED]
    assert not doubled, (
        "a stats_* attribute and a METRICS counter in one function; keep "
        "the side something reads:\n" + "\n".join(doubled)
    )


def test_the_double_count_allow_list_is_live():
    assert set(DOUBLE_COUNTED) <= set(double_counts())


def test_guard_lines_stay_under_the_ceiling():
    lines = guard_lines()
    assert len(lines) <= GUARD_CEILING, (
        f"{len(lines)} observer guard lines in src/repro, ceiling "
        f"{GUARD_CEILING}; the ceiling only goes down -- fold the new guard "
        "into an existing one instead of raising it"
    )


def test_the_rules_see_what_they_check():
    """The scans find what they claim to: a literal and an f-string push
    (the allow-list test covers the double-count scan)."""
    names = {name for _, name, _ in pushes()}
    assert {"krcore.qconnects", "degrade.admission_"} <= names
    assert guard_lines()
