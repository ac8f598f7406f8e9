"""Count each fact once, and only what something reads.

A count nobody reads is work on every pass through its site -- a guard,
a dict lookup, an f-string -- that buys nothing; a fact counted twice,
once in a ``stats_*`` attribute and once in a probe's counter, is two
numbers that can drift apart.  Three rules over ``src/repro``, whose
counters are declared once, in :mod:`repro.obs.probes`:

1. Every counter the probe table declares appears in a string constant
   under ``tests/`` or ``benchmarks/`` (not as the name of a
   ``.counter(name).inc(...)`` push there; ``.value`` is a read).  A
   templated name (``degrade.admission_{event}``) is matched by its
   literal head, against a constant that starts with it and is not
   itself a declared name.
2. Every ``stats_*`` attribute assigned is loaded somewhere in
   ``src/``, ``tests/``, ``benchmarks/`` or ``examples/`` (or named by
   a string constant, as ``getattr`` does) -- its own ``+=`` is a
   store, not a load.
3. No function both augments a ``stats_*`` attribute and fires a probe
   that bumps a counter, except the facts in ``DOUBLE_COUNTED``: each
   side of those has a reader that cannot move yet.

Rules 1 and 2 have no allow-list.  A fourth check caps the tests of the
observer seam in ``src/repro`` code: every ``is None`` / ``is not None``
comparison of a seam global (``OBSERVER``), read off its module, by its
own name, or through a local alias, outside docstrings.
"""

import ast
import functools
import pathlib

from repro.obs.probes import PROBES
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

#: Tests of the seam in ``src/repro`` code (see the module docstring).
#: The ceiling only goes down: lower it when a change removes tests,
#: never raise it.
GUARD_CEILING = 66


def _parsed(*tops):
    return ((path, tree) for path, tree in _source.trees(*tops) if path != THIS)


def declared():
    """``(probe, name, is_head)`` per counter the probe table declares;
    ``is_head`` for a templated name, whose ``name`` is its literal head."""
    found = []
    for probe in PROBES.values():
        for name, _ in probe.counters():
            head = name.partition("{")[0]
            found.append((probe.name, head, head != name))
    return found


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
    """``"<probe> <name>"`` for each declared counter no test or
    benchmark reads."""
    found = declared()
    literal = {name for _, name, is_head in found if not is_head}
    strings = _read_strings()
    unread = []
    for probe, name, is_head in found:
        if is_head:
            read = bool(name) and any(
                s.startswith(name) and s not in literal for s in strings
            )
        else:
            read = name in strings
        if not read:
            unread.append(f"{probe} {name}{'{...}' if is_head else ''}")
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
    attribute augmented in a function that also fires a counting probe."""
    counting = {probe.name for probe in PROBES.values() if probe.count}
    found = []
    for path, tree in _parsed("src/repro"):
        for name, _, function in _source.functions(tree):
            _, probes = _source.seam_uses(function)
            if not {_source.probe_name(node) for node in probes} & counting:
                continue
            found += sorted({
                f"{path}:{name}({node.target.attr})"
                for node in _source.own_nodes(function)
                if isinstance(node, ast.AugAssign)
                and isinstance(node.target, ast.Attribute)
                and node.target.attr.startswith("stats_")
            })
    return found


def seam_tests():
    """``"<path>:<line>"`` per test of the seam in src/repro code."""
    return sorted(
        f"{path}:{node.lineno}"
        for path, tree in _parsed("src/repro")
        for scope in _source.scopes(tree)
        for node in _source.seam_uses(scope)[0]
    )


def test_every_declared_metric_is_read():
    unread = unread_metrics()
    assert not unread, "declared, never read:\n" + "\n".join(unread)


def test_every_stats_attribute_is_read():
    unread = unread_stats()
    assert not unread, "assigned, never loaded:\n" + "\n".join(unread)


def test_no_fact_is_counted_twice():
    doubled = [site for site in double_counts() if site not in DOUBLE_COUNTED]
    assert not doubled, (
        "a stats_* attribute and a probe's counter in one function; keep "
        "the side something reads:\n" + "\n".join(doubled)
    )


def test_the_double_count_allow_list_is_live():
    assert set(DOUBLE_COUNTED) <= set(double_counts())


def test_seam_tests_stay_under_the_ceiling():
    tests = seam_tests()
    assert len(tests) <= GUARD_CEILING, (
        f"{len(tests)} tests of the observer seam in src/repro, ceiling "
        f"{GUARD_CEILING}; the ceiling only goes down -- fold the new test "
        "into an existing one instead of raising it"
    )


def test_the_rules_see_what_they_check():
    """The scans find what they claim to: a literal and a templated
    counter, a test through a local alias and one by the global's own
    name, and no docstring (the allow-list test covers the double-count
    scan)."""
    names = {name for _, name, _ in declared()}
    assert {"krcore.qconnects", "degrade.admission_"} <= names
    tests = seam_tests()
    assert any(site.startswith("src/repro/krcore/api.py:") for site in tests)
    assert any(site.startswith("src/repro/obs/__init__.py:") for site in tests)
    assert len(tests) == len(set(tests)) == GUARD_CEILING
