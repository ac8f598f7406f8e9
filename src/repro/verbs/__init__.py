"""A verbs-like RDMA API over the simulated RNIC.

This package models the de-facto standard interface the paper builds on
(§2.2): driver contexts, protection domains, memory regions, completion
queues, and queue pairs in their three transports:

* **RC** -- reliable connected: one-to-one, supports one-sided READ/WRITE,
  atomics, and two-sided SEND/RECV; completions delivered in FIFO order.
* **UD** -- unreliable datagram: connectionless two-sided only; used for the
  optimized connection handshake and the FaSST-style RPC baseline.
* **DC** -- dynamically connected transport: RC semantics, but the initiator
  can target any node's *DCT target* per request; the NIC (re)connects in
  hardware in <1 us (§3).

Data content is real: one-sided ops move actual bytes between the nodes'
simulated physical memories.
"""

from repro.verbs.cq import POLL_MODES, Completion, CompletionQueue
from repro.verbs.device import DriverContext, ProtectionDomain
from repro.verbs.errors import (
    KrcoreError,
    MetaUnavailableError,
    QpError,
    QpOverflowError,
    RdmaError,
    VerbsError,
)
from repro.verbs.qp import DctTarget, QueuePair
from repro.verbs.types import Opcode, QpState, QpType, WcStatus
from repro.verbs.wr import RecvBuffer, WorkRequest
from repro.verbs.connection import ConnectionManager, rc_connect, wire_rc_pair

__all__ = [
    "POLL_MODES",
    "Completion",
    "CompletionQueue",
    "ConnectionManager",
    "DctTarget",
    "DriverContext",
    "KrcoreError",
    "MetaUnavailableError",
    "Opcode",
    "ProtectionDomain",
    "QpError",
    "RdmaError",
    "QpOverflowError",
    "QpState",
    "QpType",
    "QueuePair",
    "RecvBuffer",
    "VerbsError",
    "WcStatus",
    "WorkRequest",
    "rc_connect",
    "wire_rc_pair",
]
