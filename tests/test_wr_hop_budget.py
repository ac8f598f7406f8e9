"""WR hop budget: exact engine-event counts per work request.

One work request costs a fixed number of engine records (DESIGN.md §17
lists them hop by hop).  The counts are exact and repeat on every run, so
they are pinned here: a hop that creeps back into ``_Flight`` /
the ``QueuePair`` sender fails this file instead of waiting for a timing
run.

Two shapes, idle two-node system, connection warm:

* one signaled 8 B WR, posted and polled by one process -- per
  (transport, opcode);
* a 16-WR window posted with one ``post_send`` (last WR signaled) -- the
  per-WR cost of a backlog, where the per-doorbell and per-CQE records
  amortize;
* one KRCORE sync op on a warm VQP, RC- and DC-backed -- the WR's records
  plus the ioctl's own timers (syscall, virtualization check, posting and
  polling CPU).

The host side is pinned too: the generators one ``create_vqp`` +
``qconnect`` or ``read_sync`` starts (the frame budget), and the Python
calls into ``src/repro`` one signaled 8 B READ on RC and on DC, one
DCCache-miss ``create_vqp`` + ``qconnect`` and one warm ``read_sync`` make
(the call budget).

``make hop-budget`` prints the tables (``pytest -s -k "hop_budget or
frame_budget or call_budget"``).
"""

import gc
import inspect
import os
import sys

import pytest

import repro
import repro.sim
from repro import obs
from repro.apps.race import KrcoreBackend
from repro.bench.setups import plant_rc
from repro.cluster import Cluster, timing
from repro.cluster.fabric import LinkFault
from repro.krcore import KrcoreLib
from repro.sim import Simulator
from repro.verbs import CompletionQueue, DctTarget, Opcode, QpType, RecvBuffer, WorkRequest
from tests.conftest import krcore_cluster, quick_dc_qp, quick_rc_pair, register

WINDOW = 16

#: The call budget counts code under this directory.
_SRC = os.path.dirname(repro.__file__) + os.sep
#: Comprehension code, a frame of its own only before Python 3.12.
_INLINED = {"<listcomp>", "<dictcomp>", "<setcomp>"}

_CONNECT = ["create_vqp", "qconnect", "connect"]

#: op -> the generators one KRCORE op starts, in start order, its own
#: process aside; warm meta client, pool and MR record.
FRAME_BUDGET = {
    "create_vqp + qconnect, DCCache miss": _CONNECT + [
        "retry_meta",
        "_plane_lookup",
        "_lookup",
        "lookup",  # both READs, the bucket's and the record's
    ],
    "create_vqp + qconnect, DCCache hit": _CONNECT,
    # The blocking ioctl: syscall, post and wait in the VQP's one frame.
    "read_sync, warm VQP": ["_post_chunk"],
}

#: The same counts while the syscall charge (``enter_kernel``), the
#: admission check, the plane-lookup trampoline, the event-mode CQ waits
#: (``wait_poll`` / ``wait_notify``), the bucket reader (``unpack_slots``)
#: and, in a sync op, ``read_sync``, ``post_send_and_wait``, ``post_send``
#: and ``wait_send_completion`` were generators of their own.
FRAME_BUDGET_BEFORE = {
    "create_vqp + qconnect, DCCache miss": 20,
    "create_vqp + qconnect, DCCache hit": 5,
    "read_sync, warm VQP": 7,
}

#: op -> Python calls into ``src/repro`` it makes, generator resumes
#: included (``_HostLog``); the engine's run loop and the op's process
#: start and finish are in, the driving test code is not.
CALL_BUDGET = {
    "RC READ, one signaled 8 B": 58,
    "DC READ, one signaled 8 B": 59,
    "create_vqp + qconnect, DCCache miss": 184,
    "read_sync, warm VQP": 80,
}

#: The same counts before the one-method inbound admission, the inline
#: bounds checks and dict reads, the memoized responder service time, the
#: response wire armed in ``_execute``, the meta lookup chain of 7
#: generators instead of 11 and the sync ioctl in one generator instead
#: of 5.
CALL_BUDGET_BEFORE = {
    "RC READ, one signaled 8 B": 70,
    "DC READ, one signaled 8 B": 71,
    "create_vqp + qconnect, DCCache miss": 232,
    "read_sync, warm VQP": 96,
}

#: (transport, opcode) -> (events_dispatched, timer_fires) for one signaled
#: WR.  Before the PR 13 hop fusion every row cost (16, 6), and (18, 7)
#: for SEND, which delivers a receiver-side CQE; with the inbound engine
#: a FIFO Resource (PR 13) it cost (12, 5) / (14, 6) -- the two records
#: since gone were the service-end wake.
SINGLE_WR_BUDGET = {
    ("RC", "READ"): (10, 4),
    ("RC", "WRITE"): (10, 4),
    ("RC", "SEND"): (12, 5),
    ("RC", "CAS"): (10, 4),
    ("RC", "READ_V"): (10, 4),
    ("DC", "READ"): (10, 4),
    ("DC", "WRITE"): (10, 4),
    ("DC", "SEND"): (12, 5),
    ("DC", "CAS"): (10, 4),
    ("DC", "READ_V"): (10, 4),
}

#: transport -> (events_dispatched, timer_fires) for the whole 16-READ
#: window.  Before the fusion the RC window cost 241 events (15.06 per
#: WR); with a Resource behind the inbound engine, 162 (10.12).
WINDOW_BUDGET = {
    "RC": (130, 64),
    "DC": (130, 64),
}

#: (transport, op) -> (events_dispatched, timer_fires) for one KRCORE sync
#: op on a warm VQP: the WR's (10, 4) plus the ioctl's four timers (the
#: syscall, the virtualization check, the posting CPU and the CQ poll).
#: CAS and FETCH_ADD go through the RACE ``KrcoreBackend``.  Recorded
#: while each op still ran as a chain of five generators; a change to the
#: host side of the ioctl moves none of them.
KRCORE_SYNC_BUDGET = {
    (transport, op): (18, 8)
    for transport in ("RC", "DC")
    for op in ("read_sync", "write_sync", "CAS", "FETCH_ADD", "read_vectored_sync")
}

#: (transport, opcode) -> (CQE byte_len, post-to-poll ns, receiver-side CQE
#: opcode) for the same single WR: what it *does*, recorded
#: at the commit before enum members became import-time constants (PR 15).
#: Not to be regenerated for a change that moves no simulated timestamp.
SINGLE_WR_BEHAVIOUR = {
    ("RC", "READ"): (8, 1809, None),
    ("RC", "WRITE"): (8, 1819, None),
    ("RC", "SEND"): (8, 4260, "RECV"),
    ("RC", "CAS"): (8, 1823, None),
    ("RC", "READ_V"): (16, 1814, None),
    ("DC", "READ"): (8, 1810, None),
    ("DC", "WRITE"): (8, 1820, None),
    ("DC", "SEND"): (8, 4260, "RECV"),
    ("DC", "CAS"): (8, 1824, None),
    ("DC", "READ_V"): (16, 1815, None),
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
            target = DctTarget(self.server, 5)
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


class _Profiled:
    """Run the body under the profile hook ``hook`` with the cyclic
    collector held off.  A collection closes the suspended generators an
    earlier test left in reference cycles, and each close is a generator
    "call" the hook would count against the op it happened to land in.
    A class, not ``contextlib.contextmanager``: that would be a generator
    resumed under the hook."""

    def __init__(self, hook):
        self.hook = hook

    def __enter__(self):
        gc.collect()
        self.gc_was_enabled = gc.isenabled()
        gc.disable()
        sys.setprofile(self.hook)

    def __exit__(self, *_exc):
        sys.setprofile(None)
        if self.gc_was_enabled:
            gc.enable()


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
        received = [_cqe_row(c) for c in rig.recv_cq.poll(4)]
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
    (``READ`` for ``READ_V``) cannot pass silently."""
    expected = {}
    for wr_id, (row, recorded) in enumerate(SINGLE_WR_BEHAVIOUR.items(), start=1):
        byte_len, latency_ns, recv_opcode = recorded
        expected[row] = (
            (wr_id, "SUCCESS", row[1], byte_len, 1, latency_ns),
            [(0, "SUCCESS", recv_opcode, 8, 0)] if recv_opcode else [],
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
    """The host side of the budget: a flight and the QP's sender are
    records, so the window constructs one ``Process`` (the driver below)
    and runs no generator but the caller's own (the driver and
    ``wait_poll``, which waits on an event-mode CQ in its own frame)."""
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
    with _Profiled(profile):
        rig.run(wrs)
    assert processes == ["driver"]
    assert generators == {"driver", "wait_poll"}


class _KrcoreRig:
    """Three booted KRCORE nodes (node 0 the meta server), node 1 the
    caller with one warm VQP to node 2 -- on the pooled RCQP or a DCQP --
    through the RACE backend: its MR records cached, its first READ done."""

    def __init__(self, transport):
        self.sim = sim = Simulator()
        cluster, _meta, modules = krcore_cluster(sim, num_nodes=3)
        client, server = cluster.nodes[1], cluster.nodes[2]
        if transport == "RC":
            plant_rc(modules[1], modules[2])
        self.backend = KrcoreBackend(client)
        self.lib, self.gid = self.backend.lib, server.gid
        self.laddr = client.memory.alloc(4096)
        self.lkey = sim.run_process(self.lib.reg_mr(self.laddr, 4096)).lkey
        self.raddr = server.memory.alloc(4096)
        self.rkey = sim.run_process(KrcoreLib(server).reg_mr(self.raddr, 4096)).rkey
        sim.run(until=sim.now + timing.MS)  # the MR publication lands
        sim.run_process(self.backend.connect([self.gid]))
        self.vqp = self.backend.vqps[self.gid]
        assert self.vqp.is_rc_backed == (transport == "RC")
        self.run("read_sync")

    def op(self, name):
        """The generator of one sync op ``name`` on the warm VQP."""
        lib, vqp, backend, gid = self.lib, self.vqp, self.backend, self.gid
        laddr, lkey, raddr, rkey = self.laddr, self.lkey, self.raddr, self.rkey
        if name == "read_sync":
            return lib.read_sync(vqp, laddr, lkey, raddr, rkey, 8)
        if name == "write_sync":
            return lib.write_sync(vqp, laddr, lkey, raddr, rkey, 8)
        if name == "read_vectored_sync":
            sges = [(raddr, rkey, 8), (raddr + 64, rkey, 8)]
            return lib.read_vectored_sync(vqp, laddr, lkey, sges)
        if name == "CAS":
            return backend.cas(gid, laddr, lkey, raddr + 128, rkey, 0, 0)
        return backend.fetch_add(gid, laddr, lkey, raddr + 136, rkey, 1)

    def run(self, name):
        """Run one op in its own process; the (events, timer fires) it
        cost, the process's start record aside."""
        sim = self.sim
        events, fires = sim.events_dispatched, sim.timer_fires

        def driver():
            yield from self.op(name)

        sim.run_process(driver())
        return sim.events_dispatched - events - 1, sim.timer_fires - fires


def test_krcore_sync_op_hop_budget():
    """The schedule of the blocking ioctl: one sync op per row costs the
    records it did while it ran as a chain of generators."""
    table = {}
    for transport, op in KRCORE_SYNC_BUDGET:
        rig = _KrcoreRig(transport)
        table[transport, op] = rig.run(op)
    print("\nKRCORE sync-op hop budget, one op on a warm VQP")
    print(f"  {'transport':<10}{'op':<20}{'events':>7}{'timer_fires':>13}")
    for (transport, op), (events, fires) in table.items():
        print(f"  {transport:<10}{op:<20}{events:>7}{fires:>13}")
    assert table == KRCORE_SYNC_BUDGET


class _HostLog:
    """A profile hook recording each generator frame the first time it
    runs, so a generator resumed by an op but started before it (a
    daemon started at boot) is not counted; and counting the Python calls
    whose code lives under ``src/repro``, generator resumes included.
    Standard-library calls are not counted (they differ between Python
    versions), nor are comprehensions, which are frames of their own only
    before 3.12."""

    def __init__(self):
        self._seen = {}  # id(frame) -> frame, kept alive so ids stay unique
        self.started = []
        self.calls = 0

    def __call__(self, frame, event, _arg):
        if event != "call":
            return
        code = frame.f_code
        if code.co_filename.startswith(_SRC) and code.co_name not in _INLINED:
            self.calls += 1
        if code.co_flags & inspect.CO_GENERATOR and id(frame) not in self._seen:
            self._seen[id(frame)] = frame
            self.started.append(code.co_name)


def _krcore_ops():
    """Four booted KRCORE nodes, node 1 the caller; per op, the generators
    it starts (its own process aside) and the calls into ``src/repro`` it
    makes."""
    log = _HostLog()
    with _Profiled(log):
        sim = Simulator()
        cluster, _meta, _modules = krcore_cluster(sim, num_nodes=4)
        nodes = cluster.nodes
        lib = KrcoreLib(nodes[1])
        laddr, raddr = nodes[1].memory.alloc(4096), nodes[2].memory.alloc(4096)
        lmr = sim.run_process(lib.reg_mr(laddr, 4096))
        rmr = sim.run_process(KrcoreLib(nodes[2]).reg_mr(raddr, 4096))
        sim.run(until=sim.now + timing.MS)  # the MR publication lands

        def connect(gid):
            vqp = yield from lib.create_vqp()
            yield from lib.qconnect(vqp, gid)
            return vqp

        def read():
            yield from lib.read_sync(vqp, laddr, lmr.lkey, raddr, rmr.rkey, 8)

        def op(gen):
            mark, calls = len(log.started), log.calls
            sim.run_process(gen)
            return log.started[mark + 1 :], log.calls - calls

        # Warm: the meta client's QP, node 1's pool and node 2's MR record.
        vqp = sim.run_process(connect(nodes[2].gid))
        sim.run_process(read())
        return {
            "create_vqp + qconnect, DCCache miss": op(connect(nodes[3].gid)),
            "create_vqp + qconnect, DCCache hit": op(connect(nodes[2].gid)),
            "read_sync, warm VQP": op(read()),
        }


def test_krcore_frame_budget():
    """Generators started per KRCORE op: an ioctl adds a generator only
    where it must wait (DESIGN.md §8).  Each is one resume hop for every
    event the op waits on, so a trampoline or a wrapper creeping back in
    fails here."""
    table = {op: names for op, (names, _calls) in _krcore_ops().items()}
    print("\nKRCORE frame budget, generators started per op")
    print(f"  {'op':<38}{'before':>7}{'now':>5}")
    for op, names in table.items():
        print(f"  {op:<38}{FRAME_BUDGET_BEFORE[op]:>7}{len(names):>5}")
    assert table == FRAME_BUDGET


def _call_table():
    table = {}
    for transport in ("RC", "DC"):
        rig = _Rig(transport)
        wr = rig.wr(Opcode.READ)
        log = _HostLog()
        with _Profiled(log):
            rig.run([wr])
        table[f"{transport} READ, one signaled 8 B"] = log.calls
    ops = _krcore_ops()
    for op in ("create_vqp + qconnect, DCCache miss", "read_sync, warm VQP"):
        table[op] = ops[op][1]
    return table


def test_call_budget():
    """Python calls into ``src/repro`` per op, generator resumes included:
    the host cost the engine-record and frame budgets do not see -- a
    helper call for a comparison or a dict read on a hop fails here."""
    table = _call_table()
    print("\nCall budget, Python calls into src/repro per op")
    print(f"  {'op':<38}{'before':>7}{'now':>5}")
    for op, calls in table.items():
        print(f"  {op:<38}{CALL_BUDGET_BEFORE[op]:>7}{calls:>5}")
    assert table == CALL_BUDGET


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
