"""Every observable fact of the simulator, declared once.

A site tests the seam once and calls the observer's ``on_<row name>``
with the facts the row names, in order; :class:`repro.obs.Observer`
generates from each row the code that records it for every installed
subscriber::

    if obs.OBSERVER is not None:
        obs.OBSERVER.on_dc_retarget(self.sim.now, self, wr)

A row's ``facts`` are the parameter names of that code; a traced row's
start with ``ts`` (simulated ns), and its ``track`` (the reporter, an
f-string over the facts) and args are derived only when a tracer is
installed.  ``trace`` is ``"<ph> <event>(<args>)"``: Chrome phase
(``i``; ``B`` / ``E``; async ``b`` / ``e``, the id kept at ``async_id``;
``BE``, an interval known in advance, ending at the fact ``end``), event
name (an f-string over the facts) and args, each ``key`` or
``key=expression``, left out when the fact ``key`` is None if marked
``?``.  ``count`` bumps counters by one, or ``"name+=fact"``; ``hook`` is
a :class:`repro.check.invariants.Checker` call.

A span is two rows, ``name`` and ``name_end``.  The end goes to the
observer that opened it: it records nothing once that one is
uninstalled, nor while a ``GeneratorExit`` unwinds (teardown), and an
async end nothing for an id its tracer did not open.  Counter names are
what ``tests/observatory_counts.json`` reads.  ``krcore.dc_cache_hits``
/ ``misses`` have two sources: a qconnect's traced lookup and the
untraced one of a revalidation or RC retirement (``krcore.dct_meta_*``).
``tests/test_probes.py`` holds rows and sites to each other.
"""


class Probe:
    """One row of the table."""

    __slots__ = ("name", "facts", "trace", "count", "hook", "track", "async_id")

    def __init__(self, name, facts="", trace=None, count=(), hook=None, track=None,
                 async_id=None):
        self.name, self.facts, self.trace = name, tuple(facts.split()), trace
        self.count = (count,) if isinstance(count, str) else count
        self.hook, self.track, self.async_id = hook, track, async_id

    def counters(self):
        """``(metric name, increment fact or None)`` per counter bumped."""
        return [(*spec.split("+="), None)[:2] for spec in self.count]


def _span(name, facts, event, track, end_facts=None, count=()):
    """A span's begin row ``name`` and end row ``name_end``.  The end's
    facts default to the begin's first (the track's owner); any after it
    are its args."""
    end_facts = (end_facts or facts.split()[0]).split()
    args = f"({', '.join(end_facts[1:])})" if end_facts[1:] else ""
    yield Probe(name, f"ts {facts}", f"B {event}", count, track=track)
    yield Probe(f"{name}_end", " ".join(["ts", *end_facts]).replace("?", ""),
                f"E {event.partition('(')[0]}{args}", track=track)


#: The tracks: an RNIC engine has its own because inbound spans are
#: stamped ahead of time, and no track may run backwards.
VERBS, QP = "verbs@{node.gid}", "qp{qp.qpn}@{qp.node.gid}"
KRCORE, META = "krcore@{module.node.gid}", "meta@{client.node.gid}"
RNIC = "rnic@{rnic.node.gid}{'' if engine == 'inbound' else '/command'}"

_ROWS = (
    Probe("run_end", "timer_fires", count="sim.timer_fires+=timer_fires"),
    # verbs
    Probe("qp_state", "ts qp", "i qp.state(qpn=qp.qpn, state=qp.state.name)",
          track="verbs@{qp.node.gid}"),
    Probe("qp_error", "ts qp", "i qp.state(qpn=qp.qpn, state=qp.state.name)",
          "verbs.qp_errors", track="verbs@{qp.node.gid}"),
    Probe("wr_post", "ts qp wr",
          "b wr.{wr.opcode.value}(wr_id=wr.wr_id, length=wr.length)", "verbs.wr_posted",
          track=QP, async_id="wr.trace_id"),
    Probe("wr_complete", "ts qp wr status",
          "e wr.{wr.opcode.value}(status=status.name)", hook="wr_completed(qp, wr, status)",
          track=QP, async_id="wr.trace_id"),
    Probe("doorbell_batch", "qp wrs n", None, "verbs.doorbell_batched_wrs+=n",
          "batch_posted(qp, wrs)"),
    Probe("dc_retarget", "ts qp wr", "i dc.retarget(gid=wr.dct_gid, dct=wr.dct_number)",
          "verbs.dc_retargets", track=QP),
    Probe("retransmit", "ts qp wr cause", "i qp.retransmit(wr_id=wr.wr_id, cause)",
          "verbs.retransmits", track=QP),
    Probe("read_executed", "sim gid rkey", hook="read_executed(sim, gid, rkey)"),
    *_span("driver_init", "node", "driver_init", VERBS),
    *_span("create_cq", "node", "create_cq", VERBS),
    *_span("create_qp", "node qp_type", "create_qp(qp_type=qp_type.value)", VERBS),
    *_span("configure", "node qpn", "configure(qpn)", VERBS),
    *_span("rc_connect", "node server", "rc_connect(server)", VERBS, "node qpn?"),
    *_span("handshake", "node", "handshake", VERBS),
    # cluster
    Probe("rnic_command", "ts rnic", "B rnic.command", track="rnic@{rnic.node.gid}/command"),
    Probe("rnic_command_end", "ts rnic start service_ns", "E rnic.command",
          ("rnic.command_ops", "rnic.command_busy_ns+=service_ns"),
          "rnic_busy(rnic, 'command', start, ts)", track="rnic@{rnic.node.gid}/command"),
    Probe("rnic_stall", "ts end rnic engine", "BE rnic.stall(engine)",
          hook="rnic_busy(rnic, engine, ts, end)", track=RNIC),
    Probe("rnic_inbound", "ts end rnic opcode hold_ns", "BE rnic.inbound(opcode=opcode.value?)",
          "rnic.inbound_busy_ns+=hold_ns", "rnic_busy(rnic, 'inbound', ts, end)",
          track="rnic@{rnic.node.gid}"),
    Probe("fabric_hop", "nbytes", count=("fabric.hops", "fabric.bytes+=nbytes")),
    # krcore
    *_span("syscall", "module", "syscall", KRCORE),
    *_span("qconnect", "module gid vqp", "qconnect(gid, vqp=vqp.id)", KRCORE,
           count="krcore.qconnects"),
    Probe("dc_cache_miss", "ts module gid", "i dc_cache.miss(gid)", "krcore.dc_cache_misses",
          track=KRCORE),
    Probe("dc_cache_hit", "ts module gid", "i dc_cache.hit(gid)", "krcore.dc_cache_hits",
          track=KRCORE),
    Probe("dct_meta_miss", count="krcore.dc_cache_misses"),
    Probe("dct_meta_hit", count="krcore.dc_cache_hits"),
    *_span("lookup_dct", "module gid shard", "meta.lookup_dct(gid, shard)", KRCORE),
    *_span("rc_fallback", "module gid", "rc_fallback(gid)", KRCORE, count="krcore.rc_fallbacks"),
    *_span("establish_rc", "module gid", "krcore.establish_rc(gid)", KRCORE),
    Probe("meta_failover", count="krcore.meta_failovers"),
    Probe("meta_failover_probe", "ts module shard", "i meta.failover(shard)", track=KRCORE),
    Probe("dct_revalidate", "ts module gid", "i dct.revalidate(gid)", track=KRCORE),
    Probe("dct_published", "module", hook="dct_published(module)"),
    Probe("dc_cache_insert", "module gid meta", hook="dc_cache_insert(module, gid, meta)"),
    Probe("mr_registered", "module region", hook="mr_registered(module, region.rkey)"),
    Probe("mr_retracted", "module region t", hook="mr_retracted(module, region.rkey, t)"),
    Probe("wr_dispatch", "module wr_id", hook="wr_dispatch(module, wr_id)"),
    Probe("rc_retired", "qp", hook="rc_retired(qp)"),
    Probe("pool_rc_grab", count="krcore.pool_rc_grabs"),
    Probe("pool_dc_grab", count="krcore.pool_dc_grabs"),
    Probe("pool_rc_insert", "pool gid qp out", hook="pool_rc_insert(pool, gid, qp, out)"),
    Probe("meta_write", "server key value", hook="meta_write(server, key, value)"),
    *_span("meta_rpc", "client key",
           "meta.rpc(key=key.decode('latin-1'), shard=client.shard_index)", META,
           "client found", count="krcore.meta_rpcs"),
    Probe("mrstore_hit", count="krcore.mrstore_hits"),
    Probe("mrstore_stale_hit", count=("krcore.mrstore_stale_hits", "krcore.mrstore_hits")),
    *_span("mrstore_miss", "module gid rkey", "mrstore.check(gid, rkey)", KRCORE,
           count="krcore.mrstore_misses"),
    Probe("mrstore_stale_accept", count="krcore.mrstore_stale_accepts"),
    Probe("mr_accept", "store gid rkey epoch now stale",
          hook="mr_accept(store, gid, rkey, epoch, now, stale)"),
    # degrade, faults
    Probe("breaker", "ts breaker prev state", "i breaker.{state}(prev)",
          hook="breaker_transition(breaker, prev, state, ts)", track="degrade/{breaker.name}"),
    Probe("admission", "gate op_id event t", None, "degrade.admission_{event}",
          "admission_event(gate, op_id, event, t)"),
    Probe("fault_injected", "ts kind summary", "i fault.{kind}(summary)", "faults.injected",
          track="faults"),
)

#: Probe name -> :class:`Probe`.
PROBES = {row.name: row for row in _ROWS}
