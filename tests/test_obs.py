"""Unit and property tests for ``repro.obs`` (tracing + metrics).

Covers the counter (monotonicity), registry semantics (get-or-create,
name-sorted deterministic snapshots and JSON), the tracer's event
model (span pairing, tid interning and clock-restart forking, Chrome
export schema), and the install/observe global plumbing.
"""

import gc
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.krcore import KrcoreLib
from repro.obs import Counter, MetricsRegistry, Tracer
from repro.sim import Simulator
from tests.conftest import krcore_cluster

# ---------------------------------------------------------------------------
# Metrics primitives
# ---------------------------------------------------------------------------


def test_counter_accumulates_and_rejects_negative():
    counter = Counter("ops")
    assert counter.value == 0
    counter.inc(1)
    counter.inc(41)
    assert counter.value == 42
    with pytest.raises(ValueError):
        counter.inc(-1)
    assert counter.value == 42  # the failed inc changed nothing


@given(st.lists(st.integers(min_value=0, max_value=10**9), max_size=50))
def test_counter_is_monotonic(increments):
    counter = Counter("c")
    previous = 0
    for n in increments:
        value = counter.inc(n)
        assert value >= previous
        previous = value
    assert counter.value == sum(increments)


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------


def test_registry_get_or_create_and_kind_mismatch():
    # The registry holds counters only, so no name can be asked for as
    # two kinds; what stays to check is get-or-create and value().
    registry = MetricsRegistry()
    counter = registry.counter("x")
    assert registry.counter("x") is counter
    assert registry.value("missing") == 0
    assert "missing" not in registry.snapshot()  # value() creates nothing
    counter.inc(5)
    assert registry.value("x") == 5


def test_registry_snapshot_is_name_sorted():
    registry = MetricsRegistry()
    registry.counter("zulu").inc(1)
    registry.counter("alpha").inc(2)
    registry.counter("mid").inc(7)
    assert list(registry.snapshot()) == ["alpha", "mid", "zulu"]


@given(
    st.lists(
        st.tuples(
            st.sampled_from(["a", "b", "c", "d"]),
            st.integers(min_value=0, max_value=1000),
        ),
        max_size=60,
    )
)
@settings(max_examples=50)
def test_registry_snapshot_deterministic(ops):
    """The same op sequence always produces byte-identical JSON, and
    insertion order never leaks into the snapshot."""

    def build(sequence):
        registry = MetricsRegistry()
        for name, n in sequence:
            registry.counter(name).inc(n)
        return registry

    assert build(ops).to_json() == build(ops).to_json()
    # Snapshot equality is insensitive to first-touch order.
    totals = {}
    for name, n in ops:
        totals[name] = totals.get(name, 0) + n
    pre_touched = MetricsRegistry()
    for name in sorted(totals, reverse=True):
        pre_touched.counter(name)
    for name, n in ops:
        pre_touched.counter(name).inc(n)
    assert pre_touched.snapshot() == build(ops).snapshot()


def test_registry_export_json():
    registry = MetricsRegistry()
    registry.counter("zulu").inc(1)
    registry.counter("ops").inc(3)
    text = registry.to_json()
    assert json.loads(text) == {"ops": 3, "zulu": 1}
    assert text.index('"ops"') < text.index('"zulu"')
    assert text.endswith("\n")


# ---------------------------------------------------------------------------
# Tracer
# ---------------------------------------------------------------------------


def test_tracer_pairs_nested_spans():
    tracer = Tracer()
    tracer.begin(0, "t", "outer")
    tracer.begin(10, "t", "inner")
    tracer.end(20, "t", "inner")
    tracer.end(30, "t", "outer")
    pairs = tracer.spans()
    assert [(b["name"], b["ts"], e["ts"]) for b, e in pairs] == [
        ("outer", 0, 30),
        ("inner", 10, 20),
    ]
    assert tracer.spans("inner")[0][1]["ts"] == 20


def test_tracer_unmatched_begin_is_omitted():
    tracer = Tracer()
    tracer.begin(0, "t", "aborted")
    tracer.begin(5, "t", "done")
    tracer.end(9, "t", "done")
    assert [b["name"] for b, _ in tracer.spans()] == ["done"]


def test_tracer_interns_tracks_and_forks_on_clock_restart():
    tracer = Tracer()
    tracer.record("i", 100, "engine", "tick", None, None)
    tracer.record("i", 200, "engine", "tick", None, None)
    first_tid = tracer.events[-1]["tid"]
    # Simulated time restarting (a second Simulator under the same
    # tracer) must not produce a backwards clock on the same tid.
    tracer.record("i", 50, "engine", "tick", None, None)
    second_tid = tracer.events[-1]["tid"]
    assert second_tid != first_tid
    names = [
        e["args"]["name"] for e in tracer.events if e["name"] == "thread_name"
    ]
    assert names == ["engine", "engine#2"]
    # Per-tid timestamps are monotonic.
    last_by_tid = {}
    for event in tracer.events:
        if event["name"] == "thread_name":
            continue
        assert event["ts"] >= last_by_tid.get(event["tid"], 0)
        last_by_tid[event["tid"]] = event["ts"]


def test_tracer_async_spans_share_ids():
    tracer = Tracer()
    first = tracer.next_async_id()
    second = tracer.next_async_id()
    assert first != second
    tracer.record("b", 0, "qp", "wr.READ", {}, first)
    tracer.record("b", 5, "qp", "wr.READ", {}, second)
    tracer.record("e", 9, "qp", "wr.READ", {"status": "SUCCESS"}, second)
    tracer.record("e", 12, "qp", "wr.READ", {"status": "SUCCESS"}, first)
    tracer.record("e", 13, "qp", "wr.READ", {"status": "SUCCESS"}, first)  # closed: dropped
    begins = [e for e in tracer.events if e["ph"] == "b"]
    ends = [e for e in tracer.events if e["ph"] == "e"]
    assert {e["id"] for e in begins} == {e["id"] for e in ends} == {first, second}
    assert len(ends) == 2
    assert all(e["cat"] == "async" for e in begins + ends)


def test_tracer_chrome_export_schema():
    tracer = Tracer()
    tracer.begin(1500, "track", "span", detail=7)
    tracer.end(2500, "track", "span")
    tracer.record("i", 2000, "track", "mark", None, None)
    doc = tracer.to_chrome()
    assert doc["displayTimeUnit"] == "ns"
    for event in doc["traceEvents"]:
        assert {"ph", "ts", "pid", "tid", "name"} <= set(event)
    begin = next(e for e in doc["traceEvents"] if e["ph"] == "B")
    assert begin["ts"] == 1.5  # exported in microseconds
    assert begin["args"] == {"detail": 7}
    mark = next(e for e in doc["traceEvents"] if e["ph"] == "i")
    assert mark["s"] == "t"
    # Canonical text round-trips and is stable.
    assert json.loads(tracer.to_json()) == doc
    assert tracer.to_json() == tracer.to_json()
    assert len(tracer.digest()) == 64


# ---------------------------------------------------------------------------
# Global install plumbing
# ---------------------------------------------------------------------------


def test_install_uninstall_and_observe_restore():
    assert obs.current_tracer() is None
    assert obs.current_metrics() is None
    registry = MetricsRegistry()
    obs.install(metrics=registry)
    try:
        assert obs.current_tracer() is None
        assert obs.current_metrics() is registry
        with obs.observe() as (inner_tracer, inner_metrics):
            assert obs.current_tracer() is inner_tracer is not None
            assert obs.current_metrics() is inner_metrics is not registry
        # observe() restored the previously installed pair.
        assert obs.current_tracer() is None
        assert obs.current_metrics() is registry
    finally:
        obs.uninstall()
    assert obs.current_tracer() is None
    assert obs.current_metrics() is None


def test_observe_restores_on_error():
    with pytest.raises(RuntimeError):
        with obs.observe():
            raise RuntimeError("boom")
    assert obs.current_tracer() is None
    assert obs.current_metrics() is None


def _qconnect_cut_off_mid_lookup():
    """An uncached qconnect run to 2 us, inside its meta lookup; returns
    the simulator (dropping every reference to it tears the run down)."""
    sim = Simulator()
    cluster, _meta, _modules = krcore_cluster(sim, num_nodes=4)
    lib = KrcoreLib(cluster.node(2))

    def proc():
        vqp = yield from lib.create_vqp()
        yield from lib.qconnect(vqp, cluster.node(3).gid)

    sim.process(proc())
    sim.run(until=2000)
    return sim


def test_a_dropped_run_writes_no_span_end_into_any_tracer():
    """A span's end goes to the observer that opened it: a run cut off
    mid-qconnect and dropped while a second tracer is installed ends no
    span in it (``meta.rpc`` and ``meta.lookup_dct`` end in ``finally``
    blocks), nor in the first tracer after it was uninstalled
    (``qconnect``)."""
    with obs.observe() as (first, _metrics):
        sim = _qconnect_cut_off_mid_lookup()
    recorded = len(first)
    open_spans = {e["name"] for e in first.events if e["ph"] == "B"}
    assert {"qconnect", "meta.lookup_dct", "meta.rpc"} <= open_spans
    with obs.observe() as (second, _metrics):
        del sim
        gc.collect()
    assert second.events == []
    assert len(first) == recorded


def test_teardown_ends_no_span():
    """A process dropped while its span is open (``GeneratorExit``) ends
    it nowhere, not even in the tracer that opened it: the span did not
    end in the simulation."""
    with obs.observe() as (tracer, _metrics):
        sim = _qconnect_cut_off_mid_lookup()
        recorded = len(tracer)
        del sim
        gc.collect()
        assert len(tracer) == recorded
