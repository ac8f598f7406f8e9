"""Calibration constants for the simulated hardware, in nanoseconds.

Every number here is taken from (or derived to be consistent with) the
paper's own measurements on its testbed: ConnectX-4 MCX455A 100 Gbps
InfiniBand RNICs, Mellanox SB7890 switch, 2x12-core Xeon E5-2650 v4.

The figures the constants must reproduce:

* Fig 3  -- verbs control path 15.7 ms vs data path 2.15 us (8B READ);
            create_qp 413 us of which 87% is the RNIC building hardware
            queues; Handshake is 2.4% of the total control path.
* Fig 8  -- KRCORE qconnect 5.4 us uncached / 0.9 us cached; 22M conn/s at
            240 clients; verbs/LITE server-side limit of 712 QP/s.
* Fig 10 -- async inbound peaks: READ 138M/s (RC) vs 118M/s (DC);
            WRITE 145M/s (RC) vs 132M/s (DC).
* Fig 11 -- two-sided echo: verbs 7.9 us, KRCORE(RC) 9.6 us; async peaks
            42.3M/s (verbs) vs 33.7M/s (KRCORE).
* Fig 12 -- factor analysis: +1 us syscall, +4.5 us MR-validation miss,
            <0.5 us for DCQP use and for Algorithm-2 checks.
* Fig 15 -- per-RCQP memory >= 159 KB (292 sq entries x 448 B, 257 cq
            entries x 64 B, rounded to hardware granularity).
"""

from repro.sim import MS, US

# ---------------------------------------------------------------------------
# Wire / fabric (100 Gbps InfiniBand through one switch)
# ---------------------------------------------------------------------------

#: One-way propagation through NIC serdes + switch, small frame.
WIRE_ONE_WAY_NS = 600

#: Per-byte serialization at 100 Gbps (= 12.5 GB/s): 0.08 ns/B.
WIRE_NS_PER_BYTE = 0.08

#: Extra per-byte cost for one-sided WRITE payloads (client-side DMA fetch +
#: store-and-forward).  Calibrated so the Fig 13 WRITE slowdown crossover
#: lands near the paper's 8 KB while READ's stays near 256 KB.
WRITE_EXTRA_NS_PER_BYTE = 1.2

# ---------------------------------------------------------------------------
# Data path: one-sided (Fig 3a / Fig 10).  Fixed parts sum to 2150 ns, the
# paper's 8B READ latency with one client.
# ---------------------------------------------------------------------------

#: CPU cost of writing a WQE + ringing the doorbell (per request).
POST_SEND_CPU_NS = 150

#: Client NIC processing a WQE and emitting the packet.
NIC_TX_NS = 200

#: Responder-side fixed pipeline latency for a one-sided op.
NIC_RESPONDER_PIPELINE_NS = 150

#: Client NIC receiving the response and generating the CQE.
NIC_RX_COMPLETION_NS = 250

#: CPU cost of a (successful) poll_cq.
POLL_CQ_CPU_NS = 200

# ---------------------------------------------------------------------------
# Data-plane throughput modes: doorbell batching and CQ polling models
# (ROADMAP item 4; ATR's rdma_transport_design playbook).
# ---------------------------------------------------------------------------

#: CPU cost of writing one additional WQE into a doorbell-batched chain.
#: The first WR of a chain pays the full POST_SEND_CPU_NS (WQE write +
#: doorbell ring); each linked successor only adds a WQE write -- the
#: doorbell is rung once for the whole chain.
DOORBELL_WQE_CPU_NS = 40

#: Client NIC issue cost for a *chained* WQE: the doorbell's first WQE
#: pays NIC_TX_NS (doorbell decode + WQE fetch + packet emit); successors
#: ride the same chain fetch and only pay per-WQE processing.
NIC_TX_CHAINED_NS = 60

#: Receiver-side cost of landing a WRITE_WITH_IMM completion: the payload
#: already DMA-ed straight to the target address, so only the recv WQE is
#: consumed and a CQE carrying the immediate is generated (no payload
#: copy, cheaper than SEND_DELIVERY_HEADER_NS's host notification path).
WRITE_IMM_DELIVERY_NS = 500

#: Adaptive CQ polling: how long the caller spins before arming the CQ
#: event (ibv_req_notify_cq) and sleeping.
CQ_ADAPTIVE_SPIN_NS = 1_000

#: CPU cost of arming the CQ notification (ibv_req_notify_cq + the
#: read-another-poll race check the verbs man page mandates).
CQ_NOTIFY_REARM_NS = 100

#: Latency of waking out of the armed-event sleep (interrupt + scheduler
#: wakeup) before the woken thread re-polls.
CQ_EVENT_WAKE_NS = 300


def doorbell_batch_cpu_ns(num_wrs):
    """CPU cost of posting ``num_wrs`` WRs as one doorbell-batched chain.

    One full post (WQE + doorbell) plus a WQE write per linked successor.
    """
    if num_wrs <= 1:
        return POST_SEND_CPU_NS
    return POST_SEND_CPU_NS + (num_wrs - 1) * DOORBELL_WQE_CPU_NS

#: Responder occupancy per inbound 8B READ: 1 / 138 M/s.
READ_RESPONDER_SERVICE_NS = 7.25

#: Responder occupancy per inbound 8B WRITE: 1 / 145 M/s.
WRITE_RESPONDER_SERVICE_NS = 6.90

#: Extra responder occupancy for DCT transport (READ: 138M -> 118M/s).
DC_READ_SERVICE_EXTRA_NS = 1.22

#: Extra responder occupancy for DCT transport (WRITE: 145M -> 132M/s).
DC_WRITE_SERVICE_EXTRA_NS = 0.68

#: Payload-dependent responder occupancy (DMA engine time), tiered:
#: the first RESPONDER_SERVICE_FREE_BYTES ride along free (8B ops hit the
#: Fig 10 peaks); the next RESPONDER_SMALL_TIER_BYTES pay a random-access
#: IOPS penalty (which caps KV-sized 64B lookups near the 22M conn/s
#: ceiling of Fig 8a); bytes beyond that stream at wire bandwidth.
RESPONDER_SERVICE_NS_PER_BYTE = 0.45
RESPONDER_SERVICE_FREE_BYTES = 16
RESPONDER_SMALL_TIER_BYTES = 240
RESPONDER_BULK_NS_PER_BYTE = WIRE_NS_PER_BYTE


_payload_service_cache = {}


def responder_payload_service_ns(nbytes):
    """Extra responder occupancy for a payload of ``nbytes``.

    Memoized: called once per WR, and a figure sweep uses a handful of
    distinct payload sizes.
    """
    cached = _payload_service_cache.get(nbytes)
    if cached is not None:
        return cached
    extra = max(0, nbytes - RESPONDER_SERVICE_FREE_BYTES)
    small = min(extra, RESPONDER_SMALL_TIER_BYTES) * RESPONDER_SERVICE_NS_PER_BYTE
    bulk = max(0, extra - RESPONDER_SMALL_TIER_BYTES) * RESPONDER_BULK_NS_PER_BYTE
    _payload_service_cache[nbytes] = result = small + bulk
    return result


def onesided_service_ns(read, nbytes, dc):
    """Responder engine occupancy (fractional ns) of one READ (``read``
    true) or WRITE of ``nbytes``, on the DC transport if ``dc``."""
    if read:
        service = READ_RESPONDER_SERVICE_NS + responder_payload_service_ns(nbytes)
        if dc:
            service += DC_READ_SERVICE_EXTRA_NS
    else:
        service = WRITE_RESPONDER_SERVICE_NS + responder_payload_service_ns(nbytes)
        if dc:
            service += DC_WRITE_SERVICE_EXTRA_NS
    return service


#: RDMA request header bytes on the wire (simplified BTH+RETH).
REQUEST_HEADER_BYTES = 30

# ---------------------------------------------------------------------------
# Multi-rack topology (repro.cluster.topology / repro.sim.partition).  The
# single-switch fabric above models one rack; the partitioned engine
# simulates many racks joined by a spine.  Inter-rack wire latency is the
# *lookahead bound* of the conservative synchronization protocol: no
# cross-rack (hence cross-partition) interaction can take effect sooner
# than one spine traversal, so every partition may safely advance
# ``INTER_RACK_ONE_WAY_NS`` past the global minimum next-event time.
# ---------------------------------------------------------------------------

#: One-way latency between nodes in *different* racks: NIC serdes + ToR +
#: spine hop + ToR (vs WIRE_ONE_WAY_NS for the single in-rack switch).
INTER_RACK_ONE_WAY_NS = 2_000

#: Control-plane service occupancy for one uncached qconnect at the target
#: (Fig 8: 5.4 us end-to-end uncached; minus two wire traversals and
#: client-side issue cost, the target-side share is ~4 us of meta lookup +
#: DCT attach work).
QCONNECT_UNCACHED_SERVICE_NS = 4_000

#: Target-side occupancy when the connecting client's metadata is already
#: cached (Fig 8: 0.9 us cached end-to-end; the target only validates the
#: lease and hands out the DCT key).
QCONNECT_CACHED_SERVICE_NS = 550

# ---------------------------------------------------------------------------
# Vectored (multi-SGE) gather READ: one request that names several remote
# segments and scatters them back into one contiguous local buffer.  The
# request carries one descriptor per remote SGE; the responder pays a DMA
# setup per *extra* discontiguous segment on top of the usual READ service
# (the payload-size cost is charged once, on the summed length).
# ---------------------------------------------------------------------------

#: Wire bytes per remote-SGE descriptor (8B addr + 4B rkey + 4B length).
VECTORED_SGE_WIRE_BYTES = 16

#: Responder DMA-setup occupancy per gather segment after the first.
VECTORED_SGE_SERVICE_NS = 1.6

#: Max remote SGEs one vectored READ may carry (ibv max_sge-like cap).
MAX_VECTORED_SGES = 16

# ---------------------------------------------------------------------------
# Reliability: retransmission timers and retry budgets (§3.1 C#3; the
# transport-level retries that make lease-based MR caching safe).  Scaled
# for the simulated rack (a real IB local-ACK timeout is 4.096us * 2^n).
# ---------------------------------------------------------------------------

#: Requester-side retransmission timer: how long a reliable QP waits for a
#: response before retrying the request.
QP_TIMEOUT_NS = 16 * US

#: How many times a reliable QP retransmits before completing with
#: RETRY_EXC_ERR.  (Retries only trigger on lost packets or unreachable
#: responders, so the fault-free figure paths never pay this.)
QP_RETRY_CNT = 3

#: RNR retry budget: 0 reproduces the classic immediate RNR_ERR wreck;
#: a positive budget waits QP_RNR_TIMER_NS per retry and completes with
#: RNR_RETRY_EXC_ERR on exhaustion.
QP_RNR_RETRY = 0

#: Receiver-not-ready backoff timer between RNR retries.
QP_RNR_TIMER_NS = 20 * US

# ---------------------------------------------------------------------------
# Data path: two-sided (Fig 11)
# ---------------------------------------------------------------------------

#: Responder NIC occupancy for an inbound SEND (before the CPU touches it).
SEND_RESPONDER_SERVICE_NS = 7.0

#: Fixed cost of landing an inbound SEND: consuming the receive WQE,
#: DMA-ing the payload, generating the receive CQE, and host notification.
#: Calibrated so a verbs 8B echo costs 7.9 us end-to-end (Fig 11a).
SEND_DELIVERY_NS = 2_450

#: Landing a header-only message (e.g. a zero-copy descriptor or a kernel
#: control message): no payload DMA or user notification, just the CQE.
SEND_DELIVERY_HEADER_NS = 800

#: Responder occupancy for an 8-byte atomic (CAS / fetch-add): RNICs do
#: atomics at roughly 1/3 the READ rate (~46 M/s on ConnectX-4).
ATOMIC_RESPONDER_SERVICE_NS = 21.7

#: Server CPU cost to receive+handle+reply one message in user space:
#: 24 cores saturate at 42.3 M/s  =>  24 / 42.3M = 567 ns per message.
TWO_SIDED_SERVER_CPU_NS = 567

#: Extra per-message server CPU when the receive path crosses the kernel
#: (KRCORE): 24 / 33.7 M/s = 712 ns per message.
TWO_SIDED_SERVER_CPU_KERNEL_NS = 712

# ---------------------------------------------------------------------------
# DCT (§3, Fig 14)
# ---------------------------------------------------------------------------

#: Hardware-offloaded DCT (re)connection: "less than 1 us" (§3).
DCT_RECONNECT_NS = 600

#: Tail penalty when a reconnect needs an extra network round (connect
#: packet collision/retransmit); DC reaches ~6 us at the 99.9th percentile
#: under fan-out (Fig 14b).
DCT_RECONNECT_TAIL_NS = 2_200

#: One in this many reconnects pays the tail penalty (deterministic, so
#: runs are reproducible; ~0.8% of retargets, which puts the fan-out
#: workload's 99.9th percentile near the paper's 6 us).
DCT_RECONNECT_TAIL_EVERY = 128

#: Extra reconnection cost when retargets arrive back-to-back on one DCQP
#: (the previous connection's teardown has not drained yet).  This is why
#: a 1-DCQP pool serializes badly on multi-target batches (Fig 14a).
DCT_RECONNECT_BUSY_NS = 900
DCT_RECONNECT_BUSY_WINDOW_NS = 1_000

#: DCT metadata size: number + key (§4.2: "12B is sufficient").
DCT_METADATA_BYTES = 12

# ---------------------------------------------------------------------------
# Control path: verbs (Fig 3b).
#
# The simulated connection flow is:
#   client: [driver init once] -> create_cq -> create_qp -> UD handshake
#           (the server creates its QP inside the handshake window and
#           replies with its QPN before configuring itself) -> RTR -> RTS
# Client-observed first-connection latency:
#   13,287 + 187 + 413 + 377 + 413 + 612 + 411 = 15,700 us   (Fig 3a)
# LITE (kernel context + shared CQ already exist):
#   413 + 377 + 413 + 612 + 411 = 2,226 us                   (~2 ms, Fig 3a)
# Server-side command-processor occupancy per accepted connection:
#   361 + 612 + 411 = 1,384 us  =>  ~722 QP/s                (Fig 8a's 712/s)
# ---------------------------------------------------------------------------

#: User-space driver context: open device, alloc PD, register memory.
DRIVER_INIT_NS = 13_287 * US

#: create_qp: total driver-visible latency...
CREATE_QP_NS = 413 * US
#: ...of which 87% (361 us) is the RNIC allocating hardware queues (§2.3.1).
CREATE_QP_HW_NS = 361 * US

#: Creating a completion queue (hardware queue as well).
CREATE_CQ_NS = 187 * US
CREATE_CQ_HW_NS = 163 * US

#: modify_qp to ready-to-receive (RNIC configuration; holds the command
#: processor for the full duration).
MODIFY_RTR_NS = 612 * US

#: modify_qp to ready-to-send.
MODIFY_RTS_NS = 411 * US

#: Fixed overhead of the UD-optimized handshake exchange (daemon scheduling
#: plus protocol processing): 2.4% of the 15.7 ms total (§2.3.1).
HANDSHAKE_NS = 377 * US

#: Expected client-observed first-connection latency for user-space verbs.
VERBS_CONTROL_PATH_NS = (
    DRIVER_INIT_NS
    + CREATE_CQ_NS
    + CREATE_QP_NS
    + HANDSHAKE_NS
    + CREATE_QP_NS  # waiting for the server's create_qp before its reply
    + MODIFY_RTR_NS
    + MODIFY_RTS_NS
)
assert VERBS_CONTROL_PATH_NS == 15_700 * US

#: Expected client-observed per-connection latency for (optimized) LITE.
LITE_CONTROL_PATH_NS = (
    CREATE_QP_NS + HANDSHAKE_NS + CREATE_QP_NS + MODIFY_RTR_NS + MODIFY_RTS_NS
)

#: Serialized RNIC command-processor occupancy per accepted connection
#: (hardware part of create_qp + both modify_qp calls): the server-side
#: ceiling of Fig 8a (paper: 712 QP/s; model: ~722 QP/s).
QP_SETUP_HW_SERVICE_NS = CREATE_QP_HW_NS + MODIFY_RTR_NS + MODIFY_RTS_NS

#: Registering memory is cheap: "registering 4MB only takes 1.4us" (§5.1).
REG_MR_BASE_NS = 400
REG_MR_NS_PER_MB = 250

# ---------------------------------------------------------------------------
# KRCORE (Figs 8, 12)
# ---------------------------------------------------------------------------

#: One user/kernel crossing ("~1 us overhead communicating with the kernel").
SYSCALL_NS = 900

#: One DrTM-KV lookup from the meta server = 2 one-sided READs; qconnect
#: uncached = syscall + lookup = 0.9 + 4.5 = 5.4 us (Fig 8a).
META_KV_READS_PER_LOOKUP = 2
META_KV_READ_RTT_NS = 2_250

#: Responder occupancy at the meta server per KV READ.  Calibrated to the
#: 22M conn/s ceiling at 240 clients (2 READs per connect => 44M READ/s).
META_KV_READ_SERVICE_NS = 22.5

#: Algorithm-2 integrity checks per request ("+Checks ... trivial, <0.5us").
VIRTUALIZATION_CHECK_NS = 120

#: Remote MR validation on an MRStore miss: +4.5 us (Fig 12a).
MR_CHECK_MISS_NS = 4_500

#: MRStore/DCCache lease period: cached MRs flushed every second (§4.2).
MR_LEASE_NS = 1_000 * MS

#: Bounded-retry budget for KRCORE control-plane operations that touch the
#: meta server (qconnect lookups, MR validation): attempts before the
#: caller degrades (stale-entry acceptance or the full RC handshake).
KRCORE_META_RETRIES = 4

#: Exponential-backoff base between those retries (doubles per attempt,
#: capped at KRCORE_BACKOFF_MAX_NS).
KRCORE_BACKOFF_BASE_NS = 10 * US
KRCORE_BACKOFF_MAX_NS = 320 * US

#: Cost of *discovering* a meta-server outage: the pre-connected QP's
#: timed-out READ (one retransmission window's worth of waiting).
META_OUTAGE_PROBE_NS = (QP_RETRY_CNT + 1) * QP_TIMEOUT_NS

#: Backoff jitter span as a fraction of the current backoff step.
KRCORE_BACKOFF_JITTER_FRAC = 0.25


def backoff_jitter_ns(backoff_ns, salt, attempt):
    """Deterministic seed-derived jitter in ``[0, frac * backoff_ns)``.

    Perfectly synchronized retries re-arrive as the same thundering herd
    they backed off from; this desynchronizes them without RNG state, as
    a pure hash of ``(salt, attempt)`` -- one (seed, workload) still
    yields one schedule.  Only fault/overload paths ever back off, so
    fault-free figure CSVs are untouched by construction.
    """
    span = int(backoff_ns * KRCORE_BACKOFF_JITTER_FRAC)
    if span <= 0:
        return 0
    value = 0
    for ch in f"{salt}#{attempt}".encode():
        value = (value * 131 + ch) % 1_000_000_007
    return value % span


# ---------------------------------------------------------------------------
# Overload protection defaults (repro.degrade; all knobs off unless a
# DegradePolicy is installed on the module)
# ---------------------------------------------------------------------------

#: Consecutive meta-lookup failures before a per-shard breaker opens.
DEGRADE_BREAKER_FAILURES = 3

#: How long an open breaker fast-fails before letting one probe through.
DEGRADE_BREAKER_RECOVERY_NS = 200 * US

#: A lookup slower than this counts as a failure for the breaker even if
#: it succeeded -- the "slow but alive" gray-failure signal.  Well above
#: the worst queueing an admission-bounded client self-inflicts
#: (~(burst + pending) lookups), so only genuinely lagging shards trip.
DEGRADE_BREAKER_LATENCY_NS = 150 * US

#: Token-bucket refill for qconnect admission: one meta client's lookup
#: capacity (1 / (2 READs x 2.25 us) ~ 222 K/s).
DEGRADE_ADMISSION_RATE_PER_SEC = 1e9 / (
    META_KV_READS_PER_LOOKUP * META_KV_READ_RTT_NS
)

#: Tokens the admission bucket may accumulate (burst tolerance).
DEGRADE_ADMISSION_BURST = 4

#: Bound on the pending-qconnect queue behind the bucket; beyond this the
#: oldest waiter is shed (LIFO service keeps fresh arrivals fast).
DEGRADE_ADMISSION_MAX_PENDING = 8

#: Kernel memcpy for dispatching two-sided payloads to user buffers
#: (~4 GB/s effective on cold buffers; significant above 16 KB, Fig 9b).
MEMCPY_NS_PER_BYTE = 0.25

#: Default kernel pre-posted receive buffer size (zero-copy kicks in above).
KERNEL_RECV_BUFFER_BYTES = 4_096

# ---------------------------------------------------------------------------
# Elastic applications (Fig 16, §5.3.1)
# ---------------------------------------------------------------------------

#: Spawning one RACE worker process (fork+exec+runtime init), serialized
#: per node's spawner.  26 workers/node x 9.4 ms = ~244 ms: the KRCORE
#: bootstrap time of Fig 16, which is process-creation-bound.
PROCESS_SPAWN_NS = 9_400 * US

# ---------------------------------------------------------------------------
# FaSST-style RPC baseline for metadata queries (Fig 9a)
# ---------------------------------------------------------------------------

#: Per-query CPU at the (single) RPC kernel thread.  22M / 11.8 = ~1.86M/s.
RPC_HANDLER_CPU_NS = 537

#: UD send/recv fixed costs for the RPC round.
UD_SEND_NS = 300
UD_RECV_NS = 300

# ---------------------------------------------------------------------------
# Memory accounting (Fig 15a)
# ---------------------------------------------------------------------------

SQ_ENTRY_BYTES = 448
SQ_DEPTH_DEFAULT = 292
CQ_ENTRY_BYTES = 64
CQ_DEPTH_DEFAULT = 257

#: KRCORE's DCQPs use a shallower CQ (they are multiplexed in the kernel).
DC_CQ_DEPTH = 101

#: Minimum hardware queue allocation (one page).
HW_QUEUE_GRANULARITY = 4_096


def round_to_hw(nbytes):
    """Round a queue buffer up to the hardware allocation granularity.

    The driver rounds queue buffers to the next power of two (at least one
    page) -- the "round queues to fit the hardware granularity" behaviour of
    the paper's footnote 3, which turns 292x448B + 257x64B into ~160 KB.
    """
    size = HW_QUEUE_GRANULARITY
    while size < nbytes:
        size *= 2
    return size


def rc_qp_memory_bytes(sq_depth=SQ_DEPTH_DEFAULT, cq_depth=CQ_DEPTH_DEFAULT):
    """Driver memory for one RCQP: paper footnote 3 => >= 159 KB."""
    return round_to_hw(sq_depth * SQ_ENTRY_BYTES) + round_to_hw(cq_depth * CQ_ENTRY_BYTES)


def dc_qp_memory_bytes(sq_depth=SQ_DEPTH_DEFAULT, cq_depth=DC_CQ_DEPTH):
    """Driver memory for one kernel DCQP (shallower CQ)."""
    return round_to_hw(sq_depth * SQ_ENTRY_BYTES) + round_to_hw(cq_depth * CQ_ENTRY_BYTES)


def reg_mr_ns(nbytes):
    """Latency of registering ``nbytes`` of memory."""
    return int(REG_MR_BASE_NS + REG_MR_NS_PER_MB * (nbytes / (1 << 20)))


def wire_transfer_ns(nbytes):
    """Serialization time for ``nbytes`` on the 100 Gbps wire."""
    return int(nbytes * WIRE_NS_PER_BYTE)
