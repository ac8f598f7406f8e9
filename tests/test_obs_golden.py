"""Golden-trace tests: fixed seed => byte-identical observability output.

The simulation is deterministic, so an installed tracer is too: the same
scenario always yields the same event stream, canonical JSON, and sha256
digest.  These tests pin that contract three ways:

* a *golden fixture* -- ``tests/golden/qconnect_trace.json`` holds the
  full, human-readable Chrome trace of one KRCORE ``qconnect``, compared
  byte-for-byte (run ``python tests/test_obs_golden.py --regen`` after a
  deliberate timing/instrumentation change and review the diff);
* *twice-in-one-process* determinism for a two-sided RPC and a chaos
  slice, via digests (no fixture, so these survive timing-model tweaks);
* *schema validation*: every exported event is a well-formed Chrome
  trace event and per-tid timestamps never run backwards -- the property
  that makes the files Perfetto-loadable.
"""

import json
import pathlib

import pytest

from repro import obs
from repro.faults.harness import ChaosHarness
from repro.krcore import KrcoreError, KrcoreLib
from repro.sim import Simulator
from repro.verbs import RecvBuffer, WorkRequest
from tests.conftest import krcore_cluster

GOLDEN_DIR = pathlib.Path(__file__).parent / "golden"
QCONNECT_FIXTURE = GOLDEN_DIR / "qconnect_trace.json"


# ---------------------------------------------------------------------------
# Scenario builders (fresh Simulator each call; no shared state)
# ---------------------------------------------------------------------------


def _qconnect_scenario():
    """One cold qconnect from node 1 to node 2; returns (tracer, metrics)."""
    sim = Simulator()
    cluster, meta, modules = krcore_cluster(sim, num_nodes=3)
    lib = KrcoreLib(cluster.node(1))
    target = cluster.node(2).gid

    def proc():
        vqp = yield from lib.create_vqp()
        yield from lib.qconnect(vqp, target)

    with obs.observe() as (tracer, metrics):
        sim.run_process(proc())
    return tracer, metrics


def _two_sided_scenario():
    """The Fig 7 echo roundtrip (client node 1 -> server node 2, port 7)."""
    from repro.cluster import timing

    sim = Simulator()
    cluster, meta, modules = krcore_cluster(sim, num_nodes=4)
    server_node, client_node = cluster.node(2), cluster.node(1)
    lib_s, lib_c = KrcoreLib(server_node), KrcoreLib(client_node)
    PORT = 7

    with obs.observe() as (tracer, metrics):
        def server_buffers():
            addr = server_node.memory.alloc(4096)
            region = yield from lib_s.reg_mr(addr, 4096)
            return addr, region

        def client_buffers():
            addr = client_node.memory.alloc(4096)
            region = yield from lib_c.reg_mr(addr, 4096)
            return addr, region

        saddr, smr = sim.run_process(server_buffers())
        caddr, cmr = sim.run_process(client_buffers())
        client_node.memory.write(caddr, b"ping-krc")

        def setup_server():
            vqp = yield from lib_s.create_vqp()
            yield from lib_s.qbind(vqp, PORT)
            bufs = {}
            for i in range(4):
                buf = RecvBuffer(saddr + i * 512, 512, smr.lkey, wr_id=i)
                bufs[i] = buf
                yield from lib_s.post_recv(vqp, buf)
            return vqp, bufs

        server_vqp, bufs = sim.run_process(setup_server())

        def echo_server():
            results = yield from lib_s.post_and_qpop(server_vqp, [])
            for src_vqp, completion in results:
                buf = bufs[completion.wr_id]
                yield timing.TWO_SIDED_SERVER_CPU_NS
                yield from lib_s.post_send(
                    src_vqp,
                    [WorkRequest.send(buf.addr, completion.byte_len, buf.lkey)],
                )

        sim.process(echo_server(), name="echo-server")

        def client():
            vqp = yield from lib_c.create_vqp()
            yield from lib_c.qconnect(vqp, server_node.gid, PORT)
            reply_buf = RecvBuffer(caddr + 2048, 512, cmr.lkey, wr_id=99)
            yield from lib_c.post_recv(vqp, reply_buf)
            return (yield from lib_c.send_and_recv(
                vqp, WorkRequest.send(caddr, 8, cmr.lkey)
            ))

        completion = sim.run_process(client())
        assert completion.ok
    return tracer, metrics


def _chaos_scenario():
    """A small seeded chaos slice under full observability."""
    with obs.observe() as (tracer, metrics):
        report = ChaosHarness(seed=5, num_clients=2,
                              ops_per_client=30).run()
    return tracer, metrics, report


# ---------------------------------------------------------------------------
# Golden fixture
# ---------------------------------------------------------------------------


def test_qconnect_trace_matches_golden_fixture():
    golden = QCONNECT_FIXTURE.read_text()
    # Twice in one process: interned tids, async ids, and module state
    # must not leak between observe() sessions.
    for _ in range(2):
        tracer, metrics = _qconnect_scenario()
        assert tracer.to_json() == golden


def test_qconnect_trace_has_the_fig3_stages():
    tracer, metrics = _qconnect_scenario()
    span_names = {b["name"] for b, _ in tracer.spans()}
    # The control-path stages Fig 3 charges: kernel entry, the qconnect
    # umbrella, and the meta-server DCT lookup it performs on a cold miss.
    assert {"syscall", "qconnect", "meta.lookup_dct", "meta.rpc"} <= span_names
    (qconnect_begin, qconnect_end), = tracer.spans("qconnect")
    (lookup_begin, lookup_end), = tracer.spans("meta.lookup_dct")
    # The meta lookup nests inside the qconnect span.
    assert qconnect_begin["ts"] <= lookup_begin["ts"]
    assert lookup_end["ts"] <= qconnect_end["ts"]
    # And the cold connect cost is microseconds, not milliseconds (the
    # paper's headline: ~5.25 us vs verbs' 15.7 ms).
    assert qconnect_end["ts"] - qconnect_begin["ts"] < 20_000
    assert metrics.value("krcore.qconnects") == 1
    assert metrics.value("krcore.dc_cache_misses") == 1
    assert metrics.value("krcore.meta_rpcs") == 1
    assert metrics.value("krcore.pool_dc_grabs") == 1


def test_two_sided_rpc_trace_is_deterministic():
    first_tracer, first_metrics = _two_sided_scenario()
    second_tracer, second_metrics = _two_sided_scenario()
    assert first_tracer.digest() == second_tracer.digest()
    assert first_metrics.to_json() == second_metrics.to_json()
    # The roundtrip shows up as posted-send async spans on both sides,
    # each closed by its completion.
    for phase in ("b", "e"):
        send_spans = [e for e in first_tracer.events
                      if e["ph"] == phase and e["name"] == "wr.SEND"]
        assert len(send_spans) >= 2  # client ping + server echo
    assert first_metrics.value("verbs.wr_posted") >= 2


def _assert_spans_balanced(events):
    """Every sync span must close: B/E counts match per (tid, name).

    Chaos runs abort lookups mid-flight (outages, crashes); a span left
    open by an escaping exception would corrupt the nesting of every
    later span on its track."""
    opens = {}
    for event in events:
        key = (event.get("tid"), event.get("name"))
        if event.get("ph") == "B":
            opens[key] = opens.get(key, 0) + 1
        elif event.get("ph") == "E":
            assert opens.get(key, 0) > 0, f"unmatched end for {key}"
            opens[key] -= 1
    leaked = {k: c for k, c in opens.items() if c}
    assert not leaked, f"unbalanced spans: {leaked}"


def test_a_failed_rc_fallback_ends_every_span_it_began():
    """Meta plane dark and the target dead: the qconnect's RC fallback
    fails, and ``rc_fallback``, ``krcore.establish_rc`` and ``rc_connect``
    each end on their track anyway."""
    sim = Simulator()
    cluster, meta, modules = krcore_cluster(sim, num_nodes=3, background_rc=False)
    meta.set_outage(10**12)
    cluster.node(1).fail()
    lib = KrcoreLib(cluster.node(2))

    def proc():
        vqp = yield from lib.create_vqp()
        with pytest.raises(KrcoreError, match="RC fallback to node1 failed"):
            yield from lib.qconnect(vqp, cluster.node(1).gid)

    with obs.observe() as (tracer, _metrics):
        sim.run_process(proc())
    began = {event["name"] for event in tracer.events if event["ph"] == "B"}
    assert {"rc_fallback", "krcore.establish_rc", "rc_connect"} <= began
    _assert_spans_balanced(tracer.events)


def test_chaos_slice_trace_is_deterministic():
    first_tracer, first_metrics, first_report = _chaos_scenario()
    second_tracer, second_metrics, second_report = _chaos_scenario()
    assert first_report.digest() == second_report.digest()
    assert first_tracer.digest() == second_tracer.digest()
    assert first_metrics.to_json() == second_metrics.to_json()
    # Every injected fault appears both in the report log and as an
    # instant on the "faults" track, and the counter agrees.
    fault_instants = [e for e in first_tracer.events
                      if e["ph"] == "i" and e["name"].startswith("fault.")]
    assert len(fault_instants) == len(first_report.fault_log)
    assert first_metrics.value("faults.injected") == len(first_report.fault_log)
    # Even with lookups aborted by faults, no span leaks open.
    _assert_spans_balanced(first_tracer.events)


# ---------------------------------------------------------------------------
# Chrome trace-event schema
# ---------------------------------------------------------------------------


def _validate_chrome(doc):
    assert set(doc) == {"displayTimeUnit", "traceEvents"}
    assert doc["displayTimeUnit"] == "ns"
    last_ts_by_tid = {}
    for event in doc["traceEvents"]:
        assert {"ph", "ts", "pid", "tid", "name"} <= set(event), event
        assert event["pid"] == 1
        assert isinstance(event["tid"], int)
        assert event["ph"] in {"B", "E", "b", "e", "i", "M"}
        if event["ph"] == "M":
            assert event["name"] == "thread_name"
            continue
        assert event["ts"] >= last_ts_by_tid.get(event["tid"], 0.0)
        last_ts_by_tid[event["tid"]] = event["ts"]
        if event["ph"] == "i":
            assert event["s"] == "t"
        if event["ph"] in {"b", "e"}:
            assert event["cat"] == "async"
            assert "id" in event


def test_chaos_trace_export_is_schema_valid():
    tracer, _, _ = _chaos_scenario()
    _validate_chrome(json.loads(tracer.to_json()))


def test_golden_fixture_is_schema_valid():
    _validate_chrome(json.loads(QCONNECT_FIXTURE.read_text()))


# ---------------------------------------------------------------------------
# The bench CLI end-to-end
# ---------------------------------------------------------------------------


def test_bench_cli_exports_fig3_trace(tmp_path, capsys):
    from repro.bench.__main__ import main

    trace_path = tmp_path / "fig03.json"
    metrics_path = tmp_path / "fig03-metrics.json"
    assert main(["fig03", "--trace", str(trace_path),
                 "--metrics", str(metrics_path)]) == 0
    capsys.readouterr()  # swallow the table printout

    doc = json.loads(trace_path.read_text())
    _validate_chrome(doc)
    names = {e["name"] for e in doc["traceEvents"]}
    # Fig 3's control-path breakdown: driver init, queue creation, the
    # connection handshake, and the RTR/RTS configure stage.
    assert {"driver_init", "create_cq", "create_qp", "handshake",
            "rc_connect", "configure"} <= names
    metrics = json.loads(metrics_path.read_text())
    assert metrics["verbs.wr_posted"] > 0
    assert metrics["rnic.command_ops"] > 0


def _regen():
    GOLDEN_DIR.mkdir(exist_ok=True)
    tracer, _ = _qconnect_scenario()
    QCONNECT_FIXTURE.write_text(tracer.to_json())
    print(f"wrote {QCONNECT_FIXTURE} ({len(tracer.events)} events, "
          f"digest {tracer.digest()[:16]})")


if __name__ == "__main__":
    import sys

    if "--regen" in sys.argv:
        _regen()
    else:
        print("usage: PYTHONPATH=src:. python tests/test_obs_golden.py --regen")
