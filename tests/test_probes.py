"""The probe table and the instrumented sites agree.

``src/repro/obs/probes.py`` is the contract for what is observable: a
site fires a probe by calling the observer's ``on_<name>`` attribute,
and the observer derives every trace event, counter and checker call
from the probe's row.  So every probe a site in ``src/repro`` reads off
the seam must be declared there, and every declared probe must be read
by some site (a row no site fires promises an event, a counter or a hook
that never happens).
"""

import ast
import string

from repro import obs
from repro.check.invariants import Checker
from repro.obs.probes import PROBES
from tests import _source


def fired_sites():
    """``name -> ["<path>:<line>", ...]`` per probe fired in src/repro."""
    sites = {}
    for path, tree in _source.trees("src/repro"):
        for scope in _source.scopes(tree):
            for node in _source.seam_uses(scope)[1]:
                sites.setdefault(_source.probe_name(node), []).append(f"{path}:{node.lineno}")
    return sites


def test_every_fired_probe_is_declared():
    undeclared = {name: sites for name, sites in fired_sites().items() if name not in PROBES}
    assert not undeclared, f"fired, not in repro.obs.probes: {undeclared}"


def test_every_declared_probe_is_fired():
    unfired = sorted(set(PROBES) - set(fired_sites()))
    assert not unfired, f"declared in repro.obs.probes, fired by no site: {unfired}"


def test_every_row_compiles_against_all_three_subscribers():
    """A row naming a fact it does not declare, or a Checker method that
    does not exist, fails when an observer is built, not when the probe
    first fires in some rare run; and every row records something."""
    observer = obs.Observer(obs.Tracer(), obs.MetricsRegistry(), Checker())
    assert all(callable(getattr(observer, f"on_{name}")) for name in PROBES)
    assert not {f"on_{name}" for name in PROBES} & set(dir(obs.Observer))
    silent = [
        name for name, probe in PROBES.items()
        if not (probe.trace or probe.count or probe.hook)
    ]
    assert not silent, f"rows that record nothing: {silent}"


def _names(expression):
    return {node.id for node in ast.walk(ast.parse(expression, mode="eval"))
            if isinstance(node, ast.Name)}


def _fields(template):
    """The names an f-string template's fields read."""
    return {name for _, field, _, _ in string.Formatter().parse(template) if field
            for name in _names(field)}


def test_every_row_reads_only_its_own_facts():
    """The generated code takes a row's facts as its parameters, so any
    other name in the row would fail only when the probe fires."""
    for name, probe in PROBES.items():
        used = set()
        if probe.trace is not None:
            ph, _, event = probe.trace.partition(" ")
            assert probe.facts[0] == "ts" and probe.track is not None, name
            assert "track" not in probe.facts, name  # the generated code's own local
            event, _, args = event.partition("(")
            used |= _fields(event) | _fields(probe.track)
            for arg in filter(None, args.rstrip(")").split(", ")):
                key, _, expr = arg.rstrip("?").partition("=")
                used |= _names(expr or key) | ({key} if arg.endswith("?") else set())
            used |= {"end"} if ph == "BE" else set()
            used |= _names(probe.async_id) if probe.async_id else set()
        for metric, by in probe.counters():
            used |= ({by} if by else set()) | _fields(metric)
        if probe.hook is not None:
            used |= _names(probe.hook) - {probe.hook.partition("(")[0]}
        assert used <= set(probe.facts), (name, used - set(probe.facts))


def test_a_fired_probe_reaches_each_subscriber_its_row_names():
    checker = Checker()
    with obs.observe() as (tracer, metrics), obs.attached(checker=checker):
        obs.OBSERVER.on_fault_injected(5, "drop", "node1")
        obs.OBSERVER.on_mr_registered(1, 7, 5)
        obs.OBSERVER.on_dct_meta_miss()
    [event] = [e for e in tracer.events if e["ph"] != "M"]
    assert (event["ph"], event["name"], event["args"]) == ("i", "fault.drop", {"summary": "node1"})
    assert metrics.snapshot() == {"faults.injected": 1, "krcore.dc_cache_misses": 1}
    assert checker.observed == {"mr.registered": 1}
