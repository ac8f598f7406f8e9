"""``repro.obs``: the observer seam -- where a run's simulated time goes.

A :class:`Tracer` (Chrome trace JSON in simulated ns), a
:class:`MetricsRegistry` (named counters) and a
:class:`repro.check.invariants.Checker` subscribe through one global,
:data:`OBSERVER` (None unless installed).  A site tests it once and fires
a probe of :mod:`repro.obs.probes`, whose row says what each records::

    with obs.observe() as (tracer, metrics):
        sim.run_process(...)
    pathlib.Path("trace.json").write_text(tracer.to_json())
"""

import functools
import sys
from contextlib import contextmanager

from repro.obs.metrics import Counter, MetricsRegistry
from repro.obs.probes import PROBES
from repro.obs.trace import Tracer
from repro.sim import Simulator

__all__ = ["OBSERVER", "Counter", "MetricsRegistry", "Observer", "Tracer", "attached",
           "current_metrics", "current_tracer", "install", "observe", "uninstall"]

#: The installed :class:`Observer`, or None.
OBSERVER = None


class Observer:
    """A tracer, a metrics registry and a checker (any may be None).
    Each probe ``name`` of :mod:`repro.obs.probes` is the attribute
    ``on_<name>``: the function, generated from its row, recording what
    they derive from the fact."""

    def __init__(self, tracer=None, metrics=None, checker=None):
        self.tracer, self.metrics, self.checker = tracer, metrics, checker
        for name, probe in PROBES.items():
            setattr(self, f"on_{name}", _compile(self, probe))


def _compile(observer, probe):
    """The function of ``probe``'s facts doing what its row declares for
    each installed subscriber (nothing if none records it).  It is
    generated from the row, so a fact costs the site one call and
    straight-line code, and a track or arg only a tracer reads is derived
    only when one is installed.  A span's end records only to the
    subscribers that saw it open, and nothing at teardown."""
    parts = {}
    if observer.tracer is not None and probe.trace is not None:
        parts["tracer"] = _trace_lines(probe)
    if observer.metrics is not None and probe.count:
        parts["metrics"] = [line for name, by in probe.counters() for line in (
            f"counter = counters.get({_text(name)}) or new_counter({_text(name)})",
            "counter.value += 1" if by is None else f"counter.inc({by})")]
    if observer.checker is not None and probe.hook is not None:
        parts["checker"] = [f"checker.{probe.hook}"]
    if parts and probe.trace is not None and probe.trace.startswith("E "):
        body = ["current = still_open()", "if current is None:", "    return"]
        for kind, lines in parts.items():
            body += [f"if current.{kind} is {kind}:", *(f"    {line}" for line in lines)]
    else:
        body = [line for lines in parts.values() for line in lines] or ["pass"]
    source = f"def on_{probe.name}({', '.join(probe.facts)}):\n" + "".join(
        f"    {line}\n" for line in body)
    namespace = {"still_open": _still_open, "tracer": observer.tracer,
                 "metrics": observer.metrics, "checker": observer.checker}
    if observer.tracer is not None:
        namespace.update(record=observer.tracer.record, next_id=observer.tracer.next_async_id)
    if observer.metrics is not None:
        namespace.update(counters=observer.metrics.counters, new_counter=observer.metrics.counter)
    # The source is the table's own rows: no text from outside the program.
    exec(_code(source, probe.name), namespace)  # noqa: S102
    return namespace[f"on_{probe.name}"]


@functools.cache
def _code(source, name):
    return compile(source, f"<probe {name}>", "exec")


def _text(template):
    """Source of ``template`` as a string, an f-string if it has fields."""
    return f"f{template!r}" if "{" in template else repr(template)


def _trace_lines(probe):
    """Source recording ``probe.trace`` (``"<ph> <event>(<args>)"``) on
    its track."""
    ph, _, event = probe.trace.partition(" ")
    event, _, arg_text = event.partition("(")
    name, fixed, optional = _text(event), [], []
    for arg in filter(None, arg_text.rstrip(")").split(", ")):
        key, _, expr = arg.rstrip("?").partition("=")
        if arg.endswith("?"):  # left out when the fact ``key`` is None
            optional.append(f"if {key} is not None: args[{key!r}] = {expr or key}")
        else:
            fixed.append(f"{key!r}: {expr or key}")
    args = f"{{{', '.join(fixed)}}}" if fixed or optional else "None"
    lines = [f"track = {_text(probe.track)}"]
    lines += [f"args = {args}", *optional] if optional else []
    args = "args" if optional else args
    async_id = probe.async_id
    if ph == "BE":
        return lines + [f"record('B', ts, track, {name}, {args}, None)",
                        f"record('E', end, track, {name}, None, None)"]
    if ph == "b":
        return lines + [f"{async_id} = next_id()",
                        f"record('b', ts, track, {name}, {args}, {async_id})"]
    if ph == "e":
        return [f"if {async_id} is not None:", *(f"    {line}" for line in lines),
                f"    record('e', ts, track, {name}, {args}, {async_id})"]
    return lines + [f"record({ph!r}, ts, track, {name}, {args}, None)"]


def _still_open():
    """The installed observer, or None where a span's end records
    nothing: none is installed, or a ``GeneratorExit`` unwinds."""
    if OBSERVER is None or sys.exc_info()[0] is GeneratorExit:
        return None
    return OBSERVER


def _install(**subscribers):
    """Swap ``subscribers`` in beside the installed others; returns the
    previous observer."""
    previous = OBSERVER
    if previous is not None:
        subscribers = {"tracer": previous.tracer, "metrics": previous.metrics,
                       "checker": previous.checker, **subscribers}
    live = any(value is not None for value in subscribers.values())
    _restore(Observer(**subscribers) if live else None)
    return previous


def _restore(observer):
    global OBSERVER
    OBSERVER = observer
    Simulator.on_run_end = None if OBSERVER is None else OBSERVER.on_run_end


def install(metrics):
    """Install the registry alone, tracing off; a checker stays."""
    _install(tracer=None, metrics=metrics)


def uninstall():
    """Remove tracer and registry (idempotent); a checker stays."""
    _install(tracer=None, metrics=None)


def current_tracer():
    return None if OBSERVER is None else OBSERVER.tracer


def current_metrics():
    return None if OBSERVER is None else OBSERVER.metrics


@contextmanager
def attached(**subscribers):
    """Context manager: install ``subscribers`` (``tracer``, ``metrics``,
    ``checker``) beside the others, then restore the previous observer."""
    previous = _install(**subscribers)
    try:
        yield
    finally:
        _restore(previous)


@contextmanager
def observe(tracer=None, metrics=None):
    """:func:`attached` with a fresh (or given) tracer and registry;
    yields ``(tracer, metrics)``."""
    tracer = Tracer() if tracer is None else tracer
    metrics = MetricsRegistry() if metrics is None else metrics
    with attached(tracer=tracer, metrics=metrics):
        yield tracer, metrics
