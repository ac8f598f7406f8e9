"""The YCSB chaos scenario: YCSB over KRCORE under a seeded fault plan.

:class:`ChaosHarness` boots a meta server (or a sharded plane) and a
KRCORE cluster, starts client processes running a YCSB read/update mix
as one-sided READ/WRITEs against server-resident value slots, lets a
:class:`FaultPlan` (by default a random one over the servers) fire
underneath, and checks the robustness invariants:

* **exactly-once** -- every signaled WR completes or errors exactly
  once: the wr_id token table drains to empty, and Algorithm 2's covers
  cross-check (an AssertionError if violated) never fires;
* **no corruption** -- every delivered READ payload is self-consistent
  (all value words identical and tagged with the slot's rank, or the
  slot is still zero);
* **metadata convergence** -- after every fault has fired (including
  crash + restart), fresh qconnects and reads against every server
  succeed again;
* **lease safety** -- a retracted MR stops being readable at most one
  lease after retraction.

It asserts no checker invariant, so it runs unchecked unless a checker
is installed around it (see :mod:`repro.faults.chaos`).
"""

from collections import namedtuple

from repro.cluster import timing
from repro.faults.chaos import ChaosRun
from repro.faults.plan import FaultPlan
from repro.krcore import KrcoreLib
from repro.verbs.types import WC_REM_ACCESS_ERR
from repro.verbs.errors import KrcoreError, MetaUnavailableError
from repro.workloads.ycsb import YCSB_A, YcsbWorkload

#: Bytes per value slot; a multiple of the 8-byte tag word.
VALUE_BYTES = 64
_WORD = 8


def _value_word(rank, counter):
    """The 8-byte tag every word of a written value carries."""
    return (((rank + 1) << 32) | (counter & 0xFFFFFFFF)).to_bytes(_WORD, "big")


def _verify_value(rank, data):
    """True iff ``data`` is an uncorrupted slot image for ``rank``:
    either still all-zero, or every word identical and rank-tagged."""
    if data == b"\x00" * len(data):
        return True
    first = data[:_WORD]
    if int.from_bytes(first, "big") >> 32 != rank + 1:
        return False
    return all(
        data[i : i + _WORD] == first for i in range(_WORD, len(data), _WORD)
    )


#: One server's data region (replaced when the server restarts).
_ServerInfo = namedtuple("_ServerInfo", "gid base rkey")


class ChaosHarness(ChaosRun):
    """The YCSB scenario.  Layout: meta shards, then ``num_servers``
    servers (the fault victims), then ``num_clients`` clients.  Meta and
    client nodes are never crashed, so every client process runs to
    completion and the meta QPs survive -- meta failures are injected as
    (possibly per-shard) outage windows instead."""

    def __init__(
        self,
        seed,
        plan=None,
        num_servers=2,
        num_clients=2,
        ops_per_client=150,
        mix=None,
        num_keys=64,
        mr_lease_ns=2 * timing.MS,
        horizon_ns=8 * timing.MS,
        max_attempts=500,
        op_gap_ns=None,
        meta_shards=1,
    ):
        self.num_servers = num_servers
        self.num_keys = num_keys
        self.ops_per_client = ops_per_client
        self.mix = YCSB_A if mix is None else mix
        self.mr_lease_ns = mr_lease_ns
        self.horizon_ns = horizon_ns
        self.max_attempts = max_attempts
        # Pace each client across the fault horizon: back-to-back sync ops
        # would finish in microseconds, long before the plan fires.
        if op_gap_ns is None:
            op_gap_ns = max(horizon_ns // max(ops_per_client, 1), 0)
        self.op_gap_ns = op_gap_ns
        self._robust_seq = 0  # distinct jitter salt per _robust call
        self._clients_done = 0
        super().__init__(
            seed, plan, meta_shards, num_servers + num_clients,
            ops_ok=0, ops_failed=0, retried_ops=0, stale_accepts=0,
            # Shard failovers, and qconnects that degraded to a full RC
            # handshake because every owner shard was unreachable.
            meta_failovers=0, rc_fallbacks=0,
        )
        self._done_event = self.sim.event()

    # ------------------------------------------------------------------ setup

    def place(self, nodes):
        self.server_nodes = nodes[: self.num_servers]
        self.client_nodes = nodes[self.num_servers :]

    def module_kwargs(self, node):
        return {"mr_lease_ns": self.mr_lease_ns}

    def setup(self):
        # Server data regions: one VALUE_BYTES slot per key rank.
        self.servers = {}
        for node in self.server_nodes:
            self.reload(node)

    def reload(self, node):
        length = self.num_keys * VALUE_BYTES
        addr = node.memory.alloc(length)
        region = node.memory.register(addr, length)
        self.modules[node.gid].valid_mr.record(region)
        self.meta.publish_mr(node.gid, region.rkey, region.addr, region.length)
        self.servers[node.gid] = _ServerInfo(node.gid, addr, region.rkey)

    def default_plan(self):
        return FaultPlan.random(
            self.seed,
            [n.gid for n in self.server_nodes],
            self.horizon_ns,
            meta_gid=self.meta_nodes[0].gid,
        )

    def drive(self):
        for cnum, node in enumerate(self.client_nodes):
            self.sim.process(
                self._client(cnum, node), name=f"chaos-client-{cnum}"
            )
        self.sim.process(self._controller(), name="chaos-controller")

    def summary_fields(self):
        report = self.report
        return [
            f"ok={report.ops_ok}", f"failed={report.ops_failed}",
            f"retried={report.retried_ops}", f"faults={len(report.fault_log)}",
        ]

    # ----------------------------------------------------------------- clients

    def _client(self, client_id, node):
        lib = KrcoreLib(node, cpu_id=0)
        workload = YcsbWorkload(
            mix=self.mix,
            num_keys=self.num_keys,
            seed=self.seed * 7919 + client_id,
        )
        scratch = node.memory.alloc(VALUE_BYTES)
        scratch_region = yield from self.modules[node.gid].reg_mr(scratch, VALUE_BYTES)
        vqps = {}
        for info in self.servers.values():
            vqp = yield from lib.create_vqp()
            yield from self._robust(
                lambda v=vqp, g=info.gid: lib.qconnect(v, g), vqp=vqp
            )
            vqps[info.gid] = vqp
        counter = 0
        server_gids = sorted(self.servers)
        for index in range(self.ops_per_client):
            if self.op_gap_ns:
                yield self.op_gap_ns
            kind, key = workload.next_op()
            rank = int(key[4:].decode())
            gid = server_gids[rank % len(server_gids)]
            if kind == "update":
                counter += 1
            outcome, attempts = yield from self._robust(
                lambda k=kind, r=rank, g=gid, c=counter: self._attempt(
                    lib, vqps[g], scratch, scratch_region, node, k, r, g, c
                ),
                vqp=vqps[gid],
            )
            self.report.record(
                f"t={self.sim.now} c{client_id} op{index} {kind} rank={rank} "
                f"srv={gid} {outcome} attempts={attempts}"
            )
        self._clients_done += 1
        if self._clients_done == len(self.client_nodes):
            self._done_event.trigger(None)

    def _attempt(self, lib, vqp, scratch, scratch_region, node, kind, rank, gid, counter):
        info = self.servers[gid]
        raddr = info.base + rank * VALUE_BYTES
        if kind == "read":
            yield from lib.read_sync(
                vqp, scratch, scratch_region.lkey, raddr, info.rkey, VALUE_BYTES
            )
            data = node.memory.read(scratch, VALUE_BYTES)
            if not _verify_value(rank, data):
                raise AssertionError(
                    f"corrupt read: rank={rank} data={data[:16].hex()}..."
                )
        else:
            node.memory.write(
                scratch, _value_word(rank, counter) * (VALUE_BYTES // _WORD)
            )
            yield from lib.write_sync(
                vqp, scratch, scratch_region.lkey, raddr, info.rkey, VALUE_BYTES
            )

    def _robust(self, make_process, vqp=None):
        """Process: run ``make_process()`` with the recovery policy --
        revalidate ``vqp`` on REM_ACCESS (stale DCT key after a restart),
        back off exponentially on everything else, give up after
        ``max_attempts``.

        Returns ("ok"|"failed:<reason>", attempts).
        """
        attempts = 0
        # Shared with the in-kernel retry loops (lookup_dct_robust): the
        # harness and control plane must not drift apart on backoff shape.
        backoff = timing.KRCORE_BACKOFF_BASE_NS
        # Seed-derived salt: each _robust call jitters its own way, so
        # clients knocked down by the same fault do not re-arrive as one
        # synchronized herd -- while (seed, workload) still fixes the run.
        self._robust_seq += 1
        salt = f"{self.seed}:{self._robust_seq}"
        last = "unknown"
        while attempts < self.max_attempts:
            attempts += 1
            try:
                yield from make_process()
                if attempts > 1:
                    self.report.retried_ops += 1
                self.report.ops_ok += 1
                return ("ok", attempts)
            except MetaUnavailableError:
                last = "meta_unavailable"
            except KrcoreError as err:
                code = err.code
                last = getattr(code, "value", None) or type(err).__name__
                if code is WC_REM_ACCESS_ERR and vqp is not None:
                    # Stale metadata is the likely culprit (the server
                    # restarted with a new DCT key, or its data region is
                    # not re-registered yet): refresh and try again.
                    try:
                        yield from vqp.revalidate()
                    except KrcoreError:
                        pass
            yield backoff + timing.backoff_jitter_ns(backoff, salt, attempts)
            backoff = min(backoff * 2, timing.KRCORE_BACKOFF_MAX_NS)
        self.report.ops_failed += 1
        return (f"failed:{last}", attempts)

    # ------------------------------------------------------------ verification

    def _controller(self):
        """Process: wait for clients + the full fault schedule, then run
        the convergence, lease, and exactly-once checks (in simulated
        time: they issue qconnects and reads of their own)."""
        yield self._done_event
        deadline = self._plan_end() + 500 * timing.US
        if self.sim.now < deadline:
            yield deadline - self.sim.now
        yield from self._check_convergence()
        yield from self._check_lease()
        self._check_exactly_once()
        modules, report = self.modules.values(), self.report
        report.stale_accepts = sum(m.mr_store.stats_stale_accepts for m in modules)
        report.meta_failovers = sum(m.stats_meta_failovers for m in modules)
        report.rc_fallbacks = sum(m.stats_rc_fallbacks for m in modules)

    def _plan_end(self):
        end = self.horizon_ns
        for event in self.plan.events:
            end = max(end, event.at_ns + event.params.get("duration_ns", 0))
        return end

    def _check_convergence(self):
        """Fresh qconnect + verified read against every server, from every
        client node: DCT metadata and MR records converged post-faults."""
        ok = True
        for cnum, node in enumerate(self.client_nodes):
            lib = KrcoreLib(node, cpu_id=1)
            scratch = node.memory.alloc(VALUE_BYTES)
            region = yield from self.modules[node.gid].reg_mr(scratch, VALUE_BYTES)
            for gid in sorted(self.servers):
                vqp = yield from lib.create_vqp()
                outcome, attempts = yield from self._robust(
                    lambda v=vqp, g=gid: self._verify_one(
                        lib, v, scratch, region, node, g
                    ),
                    vqp=vqp,
                )
                self.report.record(
                    f"t={self.sim.now} verify c{cnum} srv={gid} {outcome} "
                    f"attempts={attempts}"
                )
                if outcome != "ok":
                    ok = False
        self.report.invariants["convergence"] = ok

    def _verify_one(self, lib, vqp, scratch, region, node, gid):
        yield from lib.qconnect(vqp, gid)
        info = self.servers[gid]
        yield from lib.read_sync(
            vqp, scratch, region.lkey, info.base, info.rkey, VALUE_BYTES
        )
        data = node.memory.read(scratch, VALUE_BYTES)
        if not _verify_value(0, data):
            raise AssertionError(f"corrupt verify read from {gid}")

    def _check_lease(self):
        """Register, read, retract; one lease later the MR is unreadable."""
        crashed = self.plan.crash_targets()
        stable = [g for g in sorted(self.servers) if g not in crashed]
        gid = stable[0] if stable else sorted(self.servers)[0]
        server_node = next(n for n in self.cluster.nodes if n.gid == gid)
        smod = self.modules[gid]
        addr = server_node.memory.alloc(VALUE_BYTES)
        region = yield from smod.reg_mr(addr, VALUE_BYTES)
        yield 200 * timing.US  # let the publish land at the meta server

        node = self.client_nodes[0]
        lib = KrcoreLib(node, cpu_id=2)
        scratch = node.memory.alloc(VALUE_BYTES)
        sregion = yield from self.modules[node.gid].reg_mr(scratch, VALUE_BYTES)
        vqp = yield from lib.create_vqp()
        yield from lib.qconnect(vqp, gid)
        readable = True
        try:
            yield from lib.read_sync(
                vqp, scratch, sregion.lkey, addr, region.rkey, VALUE_BYTES
            )
        except KrcoreError:
            readable = False

        yield from smod.dereg_mr(region)
        yield self.mr_lease_ns + 200 * timing.US
        still_readable = True
        try:
            yield from lib.read_sync(
                vqp, scratch, sregion.lkey, addr, region.rkey, VALUE_BYTES
            )
        except KrcoreError:
            still_readable = False
        self.report.invariants["lease_safety"] = readable and not still_readable
        self.report.record(
            f"t={self.sim.now} lease srv={gid} before={readable} "
            f"after={still_readable}"
        )

    def _check_exactly_once(self):
        """The wr_id token table drains: every signaled WR's completion
        was dispatched exactly once (duplicates would KeyError / covers-
        mismatch during the run; leftovers would mean a lost one)."""
        leftover = {
            gid: len(module._wrid_tokens)
            for gid, module in self.modules.items()
            if module._wrid_tokens
        }
        self.report.invariants["exactly_once"] = not leftover
        self.report.invariants["no_corruption"] = True  # reads assert inline
        self.report.invariants["all_ops_resolved"] = self.report.ops_failed == 0
        if leftover:
            self.report.record(f"leftover_tokens={leftover}")
