"""WR hop budget: exact engine-event counts per work request.

One work request costs a fixed number of engine records (DESIGN.md §17
lists them hop by hop).  The counts are exact and repeat on every run, so
they are pinned here: a hop that creeps back into ``_Flight`` /
``QueuePair._sender_loop`` fails this file instead of waiting for a timing
run.

Two shapes, idle two-node system, connection warm:

* one signaled 8 B WR, posted and polled by one process -- per
  (transport, opcode);
* a 16-WR window posted with one ``post_send`` (last WR signaled) -- the
  per-WR cost of a backlog, where the per-doorbell and per-CQE records
  amortize.

``make hop-budget`` prints the table (``pytest -s -k hop_budget``).
"""

import inspect
import sys

import pytest

import repro.sim
from repro import obs
from repro.cluster import Cluster, timing
from repro.cluster.fabric import LinkFault
from repro.sim import Simulator
from repro.verbs import CompletionQueue, Opcode, QpType, RecvBuffer, WorkRequest
from tests.conftest import quick_dc_qp, quick_rc_pair, register

WINDOW = 16

#: (transport, opcode) -> (events_dispatched, timer_fires) for one signaled
#: WR.  Before the PR 13 hop fusion every row cost (16, 6), and (18, 7)
#: for the two opcodes that deliver a receiver-side CQE; with the inbound
#: engine a FIFO Resource (PR 13) it cost (12, 5) / (14, 6) -- the two
#: records since gone were the service-end wake.
SINGLE_WR_BUDGET = {
    ("RC", "READ"): (10, 4),
    ("RC", "WRITE"): (10, 4),
    ("RC", "SEND"): (12, 5),
    ("RC", "CAS"): (10, 4),
    ("RC", "READ_V"): (10, 4),
    ("RC", "WRITE_IMM"): (12, 5),
    ("DC", "READ"): (10, 4),
    ("DC", "WRITE"): (10, 4),
    ("DC", "SEND"): (12, 5),
    ("DC", "CAS"): (10, 4),
    ("DC", "READ_V"): (10, 4),
    ("DC", "WRITE_IMM"): (12, 5),
}

#: transport -> (events_dispatched, timer_fires) for the whole 16-READ
#: window.  Before the fusion the RC window cost 241 events (15.06 per
#: WR); with a Resource behind the inbound engine, 162 (10.12).
WINDOW_BUDGET = {
    "RC": (130, 64),
    "DC": (130, 64),
}

#: (transport, opcode) -> (CQE byte_len, post-to-poll ns, receiver-side CQE
#: opcode, its immediate) for the same single WR: what it *does*, recorded
#: at the commit before enum members became import-time constants (PR 15).
#: Not to be regenerated for a change that moves no simulated timestamp.
SINGLE_WR_BEHAVIOUR = {
    ("RC", "READ"): (8, 1809, None, None),
    ("RC", "WRITE"): (8, 1819, None, None),
    ("RC", "SEND"): (8, 4260, "RECV", None),
    ("RC", "CAS"): (8, 1823, None, None),
    ("RC", "READ_V"): (16, 1814, None, None),
    ("RC", "WRITE_IMM"): (8, 2319, "RECV_IMM", 9),
    ("DC", "READ"): (8, 1810, None, None),
    ("DC", "WRITE"): (8, 1820, None, None),
    ("DC", "SEND"): (8, 4260, "RECV", None),
    ("DC", "CAS"): (8, 1824, None, None),
    ("DC", "READ_V"): (16, 1815, None, None),
    ("DC", "WRITE_IMM"): (8, 2320, "RECV_IMM", 9),
}


class _Rig:
    """Two idle nodes, one warm requester QP of the given transport."""

    def __init__(self, transport):
        self.sim = sim = Simulator()
        cluster = Cluster(sim, num_nodes=2)
        self.client, self.server = cluster.nodes
        self.laddr, self.lmr = register(self.client, 4096)
        self.raddr, self.rmr = register(self.server, 4096)
        self.recv_addr, self.recv_mr = register(self.server, 4096)
        if transport == "RC":
            self.qp, self.peer = quick_rc_pair(self.client, self.server)
            self.addressing = {}
            self.recv_queue = self.peer.post_recv
            self.recv_cq = self.peer.recv_cq
        else:
            self.qp = quick_dc_qp(self.client)
            target = self.server.rnic.create_dct_target(dc_key=5)
            target.recv_cq = self.recv_cq = CompletionQueue(sim)
            self.addressing = dict(
                dct_gid=self.server.gid, dct_number=target.number, dct_key=target.key
            )
            self.recv_queue = target.post_srq
        # Warm: the first WR pays the DC (re)connection and fills the
        # per-size caches; the budget is the steady state.
        self.run([self.wr(Opcode.READ)])

    def wr(self, opcode, signaled=True, slot=0):
        laddr, raddr = self.laddr + 8 * slot, self.raddr + 8 * slot
        common = dict(signaled=signaled, **self.addressing)
        lkey, rkey = self.lmr.lkey, self.rmr.rkey
        if opcode is Opcode.READ:
            return WorkRequest.read(laddr, 8, lkey, raddr, rkey, **common)
        if opcode is Opcode.WRITE:
            return WorkRequest.write(laddr, 8, lkey, raddr, rkey, **common)
        if opcode is Opcode.CAS:
            return WorkRequest.cas(laddr, lkey, raddr, rkey, 0, 1, **common)
        if opcode is Opcode.READ_V:
            sges = [(raddr, rkey, 8), (raddr + 64, rkey, 8)]
            return WorkRequest.read_vectored(laddr, lkey, sges, **common)
        self.recv_queue(RecvBuffer(self.recv_addr, 64, self.recv_mr.lkey))
        if opcode is Opcode.WRITE_IMM:
            return WorkRequest.write_imm(laddr, 8, lkey, raddr, rkey, imm=9, **common)
        return WorkRequest.send(laddr, 8, lkey, **common)

    def run(self, wrs):
        """Post ``wrs`` with one ``post_send``, poll the last one's CQE;
        returns the (events, timer fires) the engine spent on them."""
        sim, qp = self.sim, self.qp

        def driver():
            posted_at = sim.now
            qp.post_send(wrs)
            completions = yield from qp.send_cq.wait_poll()
            assert [c.ok for c in completions] == [True]
            self.cqe = _cqe_row(completions[0]) + (sim.now - posted_at,)

        events, fires = sim.events_dispatched, sim.timer_fires
        sim.run_process(driver())
        # The driver process's own start record is not WR work.
        return sim.events_dispatched - events - 1, sim.timer_fires - fires


def _cqe_row(completion):
    return (
        completion.wr_id, completion.status.name, completion.opcode.name,
        completion.byte_len, completion.covers,
    )


def _single_wr_table():
    table = {}
    for transport, opcode in SINGLE_WR_BUDGET:
        rig = _Rig(transport)
        table[transport, opcode] = rig.run([rig.wr(Opcode[opcode])])
    return table


def _window_table():
    table = {}
    for transport in WINDOW_BUDGET:
        rig = _Rig(transport)
        table[transport] = rig.run([
            rig.wr(Opcode.READ, signaled=(slot == WINDOW - 1), slot=slot)
            for slot in range(WINDOW)
        ])
    return table


def _single_wr_behaviour():
    """Per row: the WR's CQE (+ post-to-poll ns), the receiver-side CQEs
    it raised, and its ``wr.<opcode>`` span events if a tracer is on."""
    rows = {}
    tracer = obs.current_tracer()
    for wr_id, (transport, opcode) in enumerate(SINGLE_WR_BUDGET, start=1):
        rig = _Rig(transport)
        wr = rig.wr(Opcode[opcode])
        wr.wr_id = wr_id
        mark = len(tracer.events) if tracer is not None else 0
        rig.run([wr])
        received = [_cqe_row(c) + (c.imm,) for c in rig.recv_cq.poll(4)]
        spans = [
            (event["ph"], event["name"], event.get("args", {}).get("status"))
            for event in (tracer.events[mark:] if tracer is not None else ())
            if event["name"].startswith("wr.")
        ]
        rows[transport, opcode] = (rig.cqe, received, spans)
    return rows


def test_single_wr_behaviour_matches_the_parent_recording():
    """The budgets count records; this pins what the WRs did, traced and
    untraced, so a mistyped opcode / status constant on the WR path
    (``WRITE`` for ``WRITE_IMM``) cannot pass silently."""
    expected = {}
    for wr_id, (row, recorded) in enumerate(SINGLE_WR_BEHAVIOUR.items(), start=1):
        byte_len, latency_ns, recv_opcode, imm = recorded
        expected[row] = (
            (wr_id, "SUCCESS", row[1], byte_len, 1, latency_ns),
            [(0, "SUCCESS", recv_opcode, 8, 0, imm)] if recv_opcode else [],
            [("b", f"wr.{row[1]}", None), ("e", f"wr.{row[1]}", "SUCCESS")],
        )
    untraced = _single_wr_behaviour()
    with obs.observe():
        traced = _single_wr_behaviour()
    assert traced == expected
    assert untraced == {row: (cqe, recv, []) for row, (cqe, recv, _) in expected.items()}


def test_single_wr_hop_budget():
    table = _single_wr_table()
    print(f"\nWR hop budget, one signaled 8 B WR")
    print(f"  {'transport':<10}{'opcode':<11}{'events':>7}{'timer_fires':>13}")
    for (transport, opcode), (events, fires) in table.items():
        print(f"  {transport:<10}{opcode:<11}{events:>7}{fires:>13}")
    assert table == SINGLE_WR_BUDGET


def test_window_hop_budget():
    table = _window_table()
    print(f"\nWR hop budget, {WINDOW}-READ window, one post_send")
    print(f"  {'transport':<10}{'events':>7}{'per WR':>8}{'timer_fires':>13}")
    for transport, (events, fires) in table.items():
        print(f"  {transport:<10}{events:>7}{events / WINDOW:>8.2f}{fires:>13}")
    assert table == WINDOW_BUDGET


@pytest.mark.parametrize("transport", WINDOW_BUDGET)
def test_window_hop_budget_builds_no_process_and_no_generator_per_wr(transport, monkeypatch):
    """The host side of the budget: a flight is a record, so the window
    constructs one ``Process`` (the driver below) and runs no generator
    but the caller's own (the driver and the CQ wait it delegates to) and
    the QP's sender loop, which was there before the window."""
    rig = _Rig(transport)
    wrs = [
        rig.wr(Opcode.READ, signaled=(slot == WINDOW - 1), slot=slot)
        for slot in range(WINDOW)
    ]
    processes, generators = [], set()
    process_init = repro.sim.Process.__init__

    def counted_init(self, sim, gen, name=None):
        processes.append(gen.__name__)
        process_init(self, sim, gen, name)

    def profile(frame, event, _arg):
        if event == "call" and frame.f_code.co_flags & inspect.CO_GENERATOR:
            generators.add(frame.f_code.co_name)

    monkeypatch.setattr(repro.sim.Process, "__init__", counted_init)
    sys.setprofile(profile)
    try:
        rig.run(wrs)
    finally:
        sys.setprofile(None)
    assert processes == ["driver"]
    assert generators == {"driver", "wait_poll", "wait_notify", "_sender_loop"}


@pytest.mark.parametrize("qp_type", [QpType.RC, QpType.DC])
def test_hop_budget_is_the_same_at_a_busy_engine(qp_type):
    """A WR that arrives while the inbound engine is busy costs the same
    records as one that finds it idle: the engine is a busy-until clock,
    so queue wait, service and pipeline are one timer.  It completes when
    the FIFO server would have let it: stall end + service + pipeline +
    response."""
    rig = _Rig(qp_type.value)
    sim, rnic = rig.sim, rig.server.rnic
    idle = rig.run([rig.wr(Opcode.READ)])

    stall_end = sim.now + 3000
    sim.process(rnic.stall(3000, engine="inbound"))
    busy = rig.run([rig.wr(Opcode.READ)])
    # The stall process itself: a start record and one timer.
    assert (busy[0] - 3, busy[1] - 1) == idle
    service = timing.onesided_service_ns(True, 8, qp_type is QpType.DC)
    hold = rnic._inbound_free_at - stall_end
    assert hold in (int(service), int(service) + 1)  # sub-ns carry
    assert sim.now == (
        stall_end + hold + timing.NIC_RESPONDER_PIPELINE_NS
        + rig.client.fabric.one_way_ns(8) + timing.NIC_RX_COMPLETION_NS
    )


def test_hop_budget_keeps_the_flight_start_record_under_link_faults():
    """Link-fault draws come off one LCG per directed link, shared by
    every connection crossing it, so their order inside a nanosecond is
    an outcome.  While any fault is installed the flight therefore starts
    through the scheduler, in the dispatch position it always had; the
    responder wait is the one timer it is everywhere."""
    rig = _Rig("RC")
    idle = rig.run([rig.wr(Opcode.READ)])
    fabric = rig.client.fabric
    fabric.set_link_fault("elsewhere", "nowhere", LinkFault(extra_ns=1))
    assert rig.run([rig.wr(Opcode.READ)]) == (idle[0] + 1, idle[1]) == (11, 4)
    fabric.clear_link_fault("elsewhere", "nowhere")
    assert rig.run([rig.wr(Opcode.READ)]) == idle
