"""WR timeline golden: no simulated timestamp on the verbs WR path may move.

``tests/golden/wr_timeline.json`` was recorded on the commit *before* the
WR-path hop fusion (PR 13) and is committed unchanged.  It holds, for a
seeded mixed stream, every WR's ``(post_ns, cqe_ns, status, byte_len,
covers)``, every receiver-side CQE, the simulated time every responder
op left the inbound engine (each ``Rnic.stats_inbound_ops`` increment,
when that was a stored counter), and a digest of the memory the stream
touched.  The stream covers what the figure CSVs never reach:

* RC, DC and UD side by side, two clients contending for one responder;
* 8 B - 64 KiB, batched and unbatched posts, unsignaled runs;
* a small WR chasing a large one (the RC PSN-order clamp);
* link drop / duplicate / delay faults on request and response links
  (timeout retransmissions, duplicate re-serves, exactly-once replays);
* a responder crash in the middle of a window (retry exhaustion);
* the three NAK arms (malformed, RNR with and without a retry budget,
  unreachable), an overflow, ERR flushes and posts refused on an ERR QP.

``tests/golden/wr_timeline_faulted_links.json``, recorded on the same
commit, is the second stream: three nodes, an RC connection per directed
pair, a drop / duplicate / delay fault on all six directed links.  Every
link then carries one connection's requests and another's responses, and
both draw from the link's single LCG -- so the *order* of two draws at
one nanosecond decides which packet is lost.  That is the interleaving
the first stream misses; starting the flight inline under link faults
moves this file from its 22nd WR on.

A change to ``repro.verbs.qp`` (or the engine under it) that moves a
completion, a memory op, a responder occupancy or a fault draw does not
leave these files byte-equal.  Regenerate only for a deliberate
timing-model change (``PYTHONPATH=src:. python tests/test_wr_timeline.py
--regen``) and review the diff.
"""

import hashlib
import json
import pathlib
import random
import sys

import pytest

from repro.cluster import Cluster, timing
from repro.cluster.fabric import LinkFault
from repro.cluster.rnic import Rnic
from repro.sim import AllOf, Simulator
from repro.verbs import (
    CompletionQueue,
    DriverContext,
    Opcode,
    QpError,
    QpState,
    QpType,
    RecvBuffer,
    WorkRequest,
)

GOLDEN = pathlib.Path(__file__).parent / "golden"

SEED = 13
FAULTED_SEED = 79
LOCAL_BYTES = 128 << 10
REMOTE_BYTES = 256 << 10
RECV_BYTES = 4096
SIZES = (8, 8, 8, 64, 256, 4096, 65536)
SEND_SIZES = (0, 8, 64, 1024)


class _RecordingRnic(Rnic):
    """Logs the service-end instant of every op the inbound engine admits
    (the simulated time ``stats_inbound_ops`` counts it from)."""

    def inbound_readmit(self, hold_ns, opcode=None):
        start, end = super().inbound_readmit(hold_ns, opcode)
        self.inbound_log.append(end)
        return start, end


def _record_inbound(node):
    rnic = node.rnic
    rnic.inbound_log = []
    rnic.__class__ = _RecordingRnic
    return rnic.inbound_log


class _RecordingCq(CompletionQueue):
    """Logs ``(push time, completion)`` for every CQE."""

    def __init__(self, sim, log):
        super().__init__(sim)
        self.log = log

    def push(self, completion):
        self.log.append((self.sim.now, completion))
        super().push(completion)


class _Target:
    """Where a stream's WRs land: remote region, recv queue, DC addressing."""

    def __init__(self, node, recv_cq, peer_qp=None, dct=None):
        self.node = node
        self.peer_qp = peer_qp
        self.dct = dct
        self.addr = node.memory.alloc(REMOTE_BYTES)
        self.region = node.memory.register(self.addr, REMOTE_BYTES)
        self.recv_addr = node.memory.alloc(RECV_BYTES)
        self.recv_region = node.memory.register(self.recv_addr, RECV_BYTES)
        node.memory.write(self.addr, bytes(range(256)) * (REMOTE_BYTES // 256))
        if dct is not None:
            dct.recv_cq = recv_cq

    def addressing(self):
        if self.dct is not None:
            return dict(dct_gid=self.node.gid, dct_number=self.dct.number,
                        dct_key=self.dct.key)
        if self.peer_qp is not None and self.peer_qp.qp_type is QpType.UD:
            return dict(dct_gid=self.node.gid, dct_number=self.peer_qp.qpn)
        return {}

    def post_recv(self, wr_id):
        buf = RecvBuffer(self.recv_addr, RECV_BYTES, self.recv_region.lkey, wr_id=wr_id)
        if self.dct is not None:
            self.dct.post_srq(buf)
        else:
            self.peer_qp.post_recv(buf)


class _Stream:
    """One requester QP plus the bookkeeping the golden file records."""

    def __init__(self, world, label, qp, targets):
        self.world = world
        self.label = label
        self.qp = qp
        self.targets = targets
        node = qp.node
        self.laddr = node.memory.alloc(LOCAL_BYTES)
        self.lmr = node.memory.register(self.laddr, LOCAL_BYTES)
        node.memory.write(self.laddr, bytes(reversed(range(256))) * (LOCAL_BYTES // 256))
        self.posted = 0
        self.covered = 0

    # -- WR construction ----------------------------------------------------

    def wr(self, opcode, length=8, target=0, signaled=True, **override):
        world = self.world
        tgt = self.targets[target]
        wr_id = world.next_wr_id()
        fields = dict(
            wr_id=wr_id, signaled=signaled, laddr=self.laddr + (wr_id * 8) % 4096,
            length=length, lkey=self.lmr.lkey,
            raddr=tgt.addr + (wr_id * 64) % 8192, rkey=tgt.region.rkey,
        )
        fields.update(tgt.addressing())
        if opcode is Opcode.READ_V:
            seg = max(length // 4, 8)
            fields["sges"] = [
                (tgt.addr + 16384 * i, tgt.region.rkey, seg) for i in range(4)
            ]
            fields["length"] = seg * 4
        elif opcode in (Opcode.CAS, Opcode.FETCH_ADD):
            fields.update(length=8, compare=wr_id, swap=wr_id + 1,
                          raddr=tgt.addr + 8 * (wr_id % 64))
        elif opcode is Opcode.WRITE_IMM:
            fields["imm"] = wr_id & 0xFFFFFFFF
        elif opcode is Opcode.SEND:
            fields["header"] = {"seq": wr_id}
        fields.update(override)
        world.meta[fields["wr_id"]] = [
            self.label, opcode.value, fields["length"], int(fields["signaled"])
        ]
        return WorkRequest(opcode, **fields)

    def random_wr(self, rng, signaled, target=None):
        if target is None:
            target = rng.randrange(len(self.targets))
        if self.qp.qp_type is QpType.UD:
            self.targets[target].post_recv(self.world.next_wr_id())
            return self.wr(Opcode.SEND, rng.choice(SEND_SIZES), target, signaled)
        draw = rng.random()
        if draw < 0.40:
            return self.wr(Opcode.READ, rng.choice(SIZES), target, signaled)
        if draw < 0.72:
            return self.wr(Opcode.WRITE, rng.choice(SIZES), target, signaled)
        if draw < 0.78:
            return self.wr(Opcode.CAS, 8, target, signaled)
        if draw < 0.82:
            return self.wr(Opcode.FETCH_ADD, 8, target, signaled)
        if draw < 0.88:
            return self.wr(Opcode.READ_V, rng.choice((32, 1024, 16384)), target, signaled)
        self.targets[target].post_recv(self.world.next_wr_id())
        if draw < 0.94:
            return self.wr(Opcode.WRITE_IMM, rng.choice(SIZES[:6]), target, signaled)
        return self.wr(Opcode.SEND, rng.choice(SEND_SIZES), target, signaled)

    def random_window(self, rng, n, target=None):
        """``n`` WRs with seeded unsignaled runs; the last is signaled."""
        return [
            self.random_wr(rng, signaled=(i == n - 1 or rng.random() < 0.4), target=target)
            for i in range(n)
        ]

    # -- posting and draining ----------------------------------------------

    def post(self, wrs, batched=False):
        now = self.qp.sim.now
        for wr in wrs:
            self.world.post_ns[wr.wr_id] = now
        try:
            if batched:
                self.qp.post_send_batch(wrs)
            else:
                self.qp.post_send(wrs)
        except QpError as err:
            for wr in wrs:
                self.world.rejected[wr.wr_id] = type(err).__name__
            return False
        self.posted += len(wrs)
        return True

    def drain(self):
        """Poll until every accepted WR is covered by a polled CQE."""
        while self.covered < self.posted:
            for completion in (yield from self.qp.send_cq.wait_poll(64)):
                self.covered += completion.covers

    def recover(self):
        yield from self.drain()
        if self.qp.state is QpState.ERR:
            yield from self.qp.reconfigure()


class _World:
    """Bookkeeping and QP plumbing shared by the two recorded streams."""

    def __init__(self, num_nodes, servers):
        self.sim = sim = Simulator()
        self.cluster = Cluster(sim, num_nodes=num_nodes)
        self.send_log = []
        self.recv_log = []
        self.meta = {}
        self.post_ns = {}
        self.rejected = {}
        self._wr_id = 0
        servers = [self.cluster.nodes[index] for index in servers]
        self.inbound = {node.gid: _record_inbound(node) for node in servers}
        self.recv_cq = {node.gid: _RecordingCq(sim, self.recv_log) for node in servers}

    def next_wr_id(self):
        self._wr_id += 1
        return self._wr_id

    def _qp(self, node, qp_type, recv_cq=None):
        """A ready DC or UD QP (both address per work request)."""
        ctx = DriverContext(node, kernel=True)
        send_cq = _RecordingCq(self.sim, self.send_log)
        qp = ctx.create_qp_fast(qp_type, send_cq, recv_cq=recv_cq or send_cq)
        qp.to_init()
        qp.to_rtr()
        qp.to_rts()
        return qp

    def _rc_stream(self, label, client, server, sq_depth=292, **attrs):
        # RTR needs the peer's qpn: build both ends, then wire them.
        ctx_c = DriverContext(client, kernel=True)
        ctx_s = DriverContext(server, kernel=True)
        cq_c = _RecordingCq(self.sim, self.send_log)
        cq_s = _RecordingCq(self.sim, self.send_log)
        qp_c = ctx_c.create_qp_fast(QpType.RC, cq_c, recv_cq=cq_c, sq_depth=sq_depth)
        qp_s = ctx_s.create_qp_fast(QpType.RC, cq_s, recv_cq=self.recv_cq[server.gid])
        for name, value in attrs.items():
            setattr(qp_c, name, value)
        for qp, peer in ((qp_c, qp_s), (qp_s, qp_c)):
            qp.to_init()
            qp.to_rtr((peer.node.gid, peer.qpn))
            qp.to_rts()
        return _Stream(self, label, qp_c, [_Target(server, self.recv_cq[server.gid], peer_qp=qp_s)])

    def join(self, gens):
        return AllOf([self.sim.process(gen) for gen in gens])

    def mixed(self, stream, seed, rounds, target=None, window=(1, 1, 2, 4, 8, 16)):
        rng = random.Random(seed)
        for _ in range(rounds):
            yield rng.choice((0, 0, 37, 150, 420))
            wrs = stream.random_window(rng, rng.choice(window), target=target)
            if not stream.post(wrs, batched=rng.random() < 0.5):
                yield from stream.recover()
                continue
            if rng.random() < 0.6 or stream.qp.free_slots < 16:
                yield from stream.drain()
                if stream.qp.state is QpState.ERR:
                    yield from stream.recover()
        yield from stream.recover()

    def timeline(self):
        self.sim.run_process(self.script())
        cqe = {}
        for ns, completion in self.send_log:
            assert completion.wr_id not in cqe, "one CQE per WR"
            cqe[completion.wr_id] = [
                ns, completion.status.value, completion.byte_len, completion.covers
            ]
        wrs = []
        for wr_id in sorted(self.meta):
            if wr_id in self.rejected:
                outcome = [None, self.rejected[wr_id], 0, 0]
            else:
                outcome = cqe.get(wr_id, [None, None, 0, 0])
            wrs.append([wr_id, *self.meta[wr_id], self.post_ns[wr_id], *outcome])
        memory = hashlib.sha256()
        for stream in self.streams:
            memory.update(stream.qp.node.memory.read(stream.laddr, LOCAL_BYTES))
            for target in stream.targets:
                if target.node.alive:
                    memory.update(target.node.memory.read(target.addr, REMOTE_BYTES))
                    memory.update(target.node.memory.read(target.recv_addr, RECV_BYTES))
        return {
            "columns": ["wr_id", "stream", "opcode", "length", "signaled", "post_ns",
                        "cqe_ns", "status", "byte_len", "covers"],
            "wrs": wrs,
            "recv_cqes": [
                [ns, c.wr_id, c.opcode.value, c.byte_len, c.imm, list(c.src)]
                for ns, c in self.recv_log
            ],
            "inbound_op_ns": self.inbound,
            "memory_sha256": memory.hexdigest(),
            "end_ns": self.sim.now,
        }


class _MixedWorld(_World):
    """Two clients, two servers; RC, DC and UD; every arm of ``_flight``."""

    def __init__(self, seed=SEED):
        super().__init__(num_nodes=4, servers=(2, 3))
        self.seed = seed
        self.c0, self.c1, self.s2, self.s3 = self.cluster.nodes
        recv_cq = self.recv_cq
        dct = {
            node.gid: node.rnic.create_dct_target(dc_key=77) for node in (self.s2, self.s3)
        }
        dc_targets = {
            gid: _Target(node, recv_cq[gid], dct=dct[gid])
            for gid, node in ((self.s2.gid, self.s2), (self.s3.gid, self.s3))
        }
        self.rc0 = self._rc_stream("rc0", self.c0, self.s2, sq_depth=48)
        self.rc1 = self._rc_stream("rc1", self.c1, self.s2, rnr_retry=2)
        self.rc2 = self._rc_stream("rc2", self.c1, self.s3)
        self.dc0 = _Stream(self, "dc0", self._qp(self.c0, QpType.DC),
                           [dc_targets[self.s2.gid], dc_targets[self.s3.gid]])
        self.dc1 = _Stream(self, "dc1", self._qp(self.c1, QpType.DC),
                           [dc_targets[self.s3.gid]])
        ud_peer = self._qp(self.s3, QpType.UD, recv_cq=recv_cq[self.s3.gid])
        self.ud0 = _Stream(self, "ud0", self._qp(self.c0, QpType.UD),
                           [_Target(self.s3, recv_cq[self.s3.gid], peer_qp=ud_peer)])
        self.streams = [self.rc0, self.rc1, self.rc2, self.dc0, self.dc1, self.ud0]

    def chase(self, stream):
        """A small WR right behind a large one, unbatched then batched."""
        for batched in (False, True):
            stream.post(
                [stream.wr(Opcode.WRITE, 65536, signaled=False), stream.wr(Opcode.READ, 8)],
                batched=batched,
            )
            yield from stream.drain()
            yield 90

    def crash_window(self, stream, seed):
        rng = random.Random(seed)
        wrs = [
            stream.wr(rng.choice((Opcode.READ, Opcode.WRITE)), rng.choice(SIZES[:6]),
                      signaled=(i % 4 == 3))
            for i in range(16)
        ]
        stream.post(wrs, batched=True)
        yield from stream.drain()

    def error_arms(self):
        rc0, rc1, dc0 = self.rc0, self.rc1, self.dc0
        # Malformed remote key in the middle of an unbatched window: the
        # WRs behind it flush, and a post on the ERR QP is refused.
        window = [
            rc0.wr(Opcode.READ, 8), rc0.wr(Opcode.WRITE, 64, signaled=False),
            rc0.wr(Opcode.WRITE, 8, signaled=False),
            rc0.wr(Opcode.READ, 8, rkey=0xDEAD), rc0.wr(Opcode.READ, 4096),
            rc0.wr(Opcode.WRITE, 256, signaled=False), rc0.wr(Opcode.CAS),
        ]
        rc0.post(window)
        yield from rc0.drain()
        rc0.post([rc0.wr(Opcode.READ, 8)])
        yield from rc0.recover()
        rc0.post([rc0.wr(Opcode.READ, 8), rc0.wr(Opcode.WRITE, 8)], batched=True)
        yield from rc0.drain()
        # Bad local key on DC: LOC_PROT_ERR found at issue time.
        dc0.post([dc0.wr(Opcode.WRITE, 8, signaled=False),
                  dc0.wr(Opcode.READ, 64, lkey=0xBEEF), dc0.wr(Opcode.READ, 8)])
        yield from dc0.recover()
        # RNR with a retry budget: the buffer shows up before it runs dry.
        rc1.post([rc1.wr(Opcode.SEND, 64)])
        yield 25_000
        rc1.targets[0].post_recv(self.next_wr_id())
        yield from rc1.drain()
        # RNR budget exhausted (no buffer ever arrives).
        rc1.post([rc1.wr(Opcode.SEND, 8), rc1.wr(Opcode.READ, 8)])
        yield from rc1.recover()
        # No budget at all: the classic immediate RNR_ERR, via WRITE_IMM.
        rc0.post([rc0.wr(Opcode.WRITE_IMM, 64)])
        yield from rc0.recover()
        # Overflow: more WRs than free slots wrecks the QP and flushes
        # what is still queued behind the one WR already issued.
        rc0.post([rc0.wr(Opcode.READ, 8, signaled=False) for _ in range(6)])
        rc0.post([rc0.wr(Opcode.READ, 8) for _ in range(rc0.qp.free_slots + 1)])
        yield from rc0.recover()
        rc0.post([rc0.wr(Opcode.READ, 8)])
        yield from rc0.drain()

    def script(self):
        sim, join, seed = self.sim, self.join, self.seed
        # 1. Everything at once, fault-free.
        yield join(
            self.mixed(stream, seed * 100 + index, rounds=24)
            for index, stream in enumerate(self.streams)
        )
        # 2. Small chasing large.
        yield join([self.chase(self.rc0), self.chase(self.dc0)])
        # 3. Link faults on request and response links.
        fabric = self.cluster.fabric
        c0, s2, s3 = self.c0.gid, self.s2.gid, self.s3.gid
        fabric.set_link_fault(c0, s2, LinkFault(drop_prob=0.15, dup_prob=0.2, extra_ns=300, seed=7))
        fabric.set_link_fault(s2, c0, LinkFault(drop_prob=0.1, latency_mult=1.5, seed=8))
        fabric.set_link_fault(c0, s3, LinkFault(drop_prob=0.3, dup_prob=0.1, seed=9))
        yield join([
            self.mixed(self.rc0, seed * 100 + 31, rounds=16, window=(1, 2, 4)),
            self.mixed(self.dc0, seed * 100 + 32, rounds=16, target=0, window=(1, 2, 4)),
            self.mixed(self.ud0, seed * 100 + 33, rounds=12, window=(1, 2)),
            self.mixed(self.rc1, seed * 100 + 34, rounds=12, window=(1, 4, 8)),
        ])
        for link in ((c0, s2), (s2, c0), (c0, s3)):
            fabric.clear_link_fault(*link)
        # 4. The responder dies 1.5 us into two windows.
        sim.schedule(1500, self.s3.fail)
        yield join([self.crash_window(self.rc2, seed * 100 + 41),
                    self.crash_window(self.dc1, seed * 100 + 42)])
        self.ud0.post([self.ud0.wr(Opcode.SEND, 8), self.ud0.wr(Opcode.SEND, 8)])
        yield from self.ud0.drain()
        # 5. The NAK arms, one by one.
        yield from self.error_arms()


class _FaultedLinksWorld(_World):
    """Three nodes, one RC connection per directed pair, every directed
    link faulted: each link's LCG serves one connection's requests and
    the opposite connection's responses."""

    def __init__(self, seed=FAULTED_SEED):
        super().__init__(num_nodes=3, servers=(0, 1, 2))
        self.seed = seed
        nodes = self.cluster.nodes
        pairs = [(a, b) for a in nodes for b in nodes if a is not b]
        self.streams = [
            self._rc_stream(f"rc{a.gid[-1]}{b.gid[-1]}", a, b) for a, b in pairs
        ]
        rng = random.Random(seed)
        for index, (a, b) in enumerate(pairs):
            self.cluster.fabric.set_link_fault(a.gid, b.gid, LinkFault(
                drop_prob=rng.choice((0.05, 0.1, 0.2)), dup_prob=rng.choice((0.0, 0.1, 0.2)),
                extra_ns=rng.choice((0, 0, 100)), seed=seed * 10 + index,
            ))

    def script(self):
        yield self.join(
            self.mixed(stream, self.seed * 100 + index, rounds=40, window=(1, 1, 2, 4, 8))
            for index, stream in enumerate(self.streams)
        )


#: golden file name -> the world whose timeline it records.
RECORDINGS = {
    "wr_timeline.json": _MixedWorld,
    "wr_timeline_faulted_links.json": _FaultedLinksWorld,
}


def _to_json(timeline):
    """One record per line, so a moved timestamp is a one-line diff."""
    out = ["{"]
    for key in sorted(timeline):
        value = timeline[key]
        if key in ("wrs", "recv_cqes"):
            rows = ",\n".join("  " + json.dumps(row) for row in value)
            out.append(f' "{key}": [\n{rows}\n ],')
        else:
            out.append(f' "{key}": {json.dumps(value, sort_keys=True)},')
    out[-1] = out[-1].rstrip(",")
    out.append("}")
    return "\n".join(out) + "\n"


@pytest.mark.parametrize("name", RECORDINGS)
def test_wr_timeline_matches_the_parent_commit_recording(name):
    golden = json.loads((GOLDEN / name).read_text())
    timeline = json.loads(_to_json(RECORDINGS[name]().timeline()))
    for got, want in zip(timeline["wrs"], golden["wrs"]):
        assert got == want  # the first WR that moved, before the bulk diff
    assert timeline == golden


def test_wr_timeline_covers_what_it_claims():
    """The recording is only worth pinning while it reaches every arm."""
    golden = json.loads((GOLDEN / "wr_timeline.json").read_text())
    wrs = golden["wrs"]
    statuses = {row[7] for row in wrs}
    assert {
        "SUCCESS", "REM_ACCESS_ERR", "LOC_PROT_ERR", "RNR_ERR", "RNR_RETRY_EXC_ERR",
        "RETRY_EXC_ERR", "FLUSH_ERR", "QpError", "QpOverflowError", None,
    } <= statuses
    assert {row[2] for row in wrs} == {
        "READ", "READ_V", "WRITE", "WRITE_IMM", "SEND", "CAS", "FETCH_ADD"
    }
    assert {row[1] for row in wrs} == {"rc0", "rc1", "rc2", "dc0", "dc1", "ud0"}
    assert {row[3] for row in wrs} >= {0, 8, 64, 256, 4096, 65536}
    assert any(row[9] > 1 for row in wrs), "no unsignaled run was covered"
    assert {row[2] for row in golden["recv_cqes"]} == {"RECV", "RECV_IMM"}
    assert all(golden["inbound_op_ns"].values())
    # The faulted-links stream: every connection waited out at least one
    # retransmission timer.
    faulted = json.loads((GOLDEN / "wr_timeline_faulted_links.json").read_text())
    slowest = dict.fromkeys(("rc01", "rc02", "rc10", "rc12", "rc20", "rc21"), 0)
    for row in faulted["wrs"]:
        if row[6] is not None:
            slowest[row[1]] = max(slowest[row[1]], row[6] - row[5])
    assert min(slowest.values()) > timing.QP_TIMEOUT_NS


if __name__ == "__main__":
    if "--regen" in sys.argv:
        GOLDEN.mkdir(exist_ok=True)
        for name, world in RECORDINGS.items():
            recording = world().timeline()
            (GOLDEN / name).write_text(_to_json(recording))
            print(f"wrote {name} ({len(recording['wrs'])} WRs, end {recording['end_ns']} ns)")
    else:
        print("usage: PYTHONPATH=src:. python tests/test_wr_timeline.py --regen")
