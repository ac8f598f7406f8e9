"""Enumerations mirroring the verbs API's constants."""

import enum


class QpType(enum.Enum):
    RC = "RC"  # reliable connected
    UD = "UD"  # unreliable datagram
    DC = "DC"  # dynamically connected (initiator side)


class QpState(enum.Enum):
    RESET = "RESET"
    INIT = "INIT"
    RTR = "RTR"  # ready to receive
    RTS = "RTS"  # ready to send
    ERR = "ERR"


class Opcode(enum.Enum):
    READ = "READ"
    READ_V = "READ_V"  # vectored gather READ: one WR, many remote SGEs
    WRITE = "WRITE"
    WRITE_IMM = "WRITE_IMM"  # RDMA write with immediate (receiver CQE)
    SEND = "SEND"
    CAS = "CAS"  # compare-and-swap, 8 bytes
    FETCH_ADD = "FETCH_ADD"  # fetch-and-add, 8 bytes
    RECV = "RECV"  # appears only in completions
    RECV_IMM = "RECV_IMM"  # receiver side of WRITE_IMM (completion-only)


class WcStatus(enum.Enum):
    SUCCESS = "SUCCESS"
    LOC_PROT_ERR = "LOC_PROT_ERR"  # bad local key / bounds
    REM_ACCESS_ERR = "REM_ACCESS_ERR"  # bad rkey / bounds / permission
    BAD_OPCODE_ERR = "BAD_OPCODE_ERR"  # malformed operation code
    FLUSH_ERR = "FLUSH_ERR"  # flushed after the QP entered ERR
    RNR_ERR = "RNR_ERR"  # receiver not ready (no recv buffer)
    RNR_RETRY_EXC_ERR = "RNR_RETRY_EXC_ERR"  # receiver not ready, retries exhausted
    RETRY_EXC_ERR = "RETRY_EXC_ERR"  # remote unreachable (dead/dropped, retries exhausted)


# Every member, bound once at import time.  ``Opcode.READ`` inside a
# function is an attribute lookup through Enum's metaclass on every
# execution -- ~100 ns up to CPython 3.11 against a few ns for a module
# global, ~25 times per 8 B work request -- and it is C-level time, so a
# profiler bills it to the caller's self time
# (DESIGN.md §17 "Host cost per WR").  Code under ``src/repro`` reads
# members through these names (pinned by
# ``tests/test_hot_path_enums.py``); the enums above stay the types.
QPT_RC, QPT_UD, QPT_DC = QpType.RC, QpType.UD, QpType.DC

QPS_RESET, QPS_INIT, QPS_RTR = QpState.RESET, QpState.INIT, QpState.RTR
QPS_RTS, QPS_ERR = QpState.RTS, QpState.ERR

OP_READ, OP_READ_V = Opcode.READ, Opcode.READ_V
OP_WRITE, OP_WRITE_IMM = Opcode.WRITE, Opcode.WRITE_IMM
OP_SEND = Opcode.SEND
OP_CAS, OP_FETCH_ADD = Opcode.CAS, Opcode.FETCH_ADD
OP_RECV, OP_RECV_IMM = Opcode.RECV, Opcode.RECV_IMM

WC_SUCCESS = WcStatus.SUCCESS
WC_LOC_PROT_ERR = WcStatus.LOC_PROT_ERR
WC_REM_ACCESS_ERR = WcStatus.REM_ACCESS_ERR
WC_BAD_OPCODE_ERR = WcStatus.BAD_OPCODE_ERR
WC_FLUSH_ERR = WcStatus.FLUSH_ERR
WC_RNR_ERR = WcStatus.RNR_ERR
WC_RNR_RETRY_EXC_ERR = WcStatus.RNR_RETRY_EXC_ERR
WC_RETRY_EXC_ERR = WcStatus.RETRY_EXC_ERR

# Opcode classes tested once or more per WR.  Tuples, not sets: ``in``
# then compares by identity in C, where a set would hash the member
# through Enum's Python ``__hash__``.

#: Opcodes a requester may post (RECV/RECV_IMM are completion-only), most
#: frequent first.
POSTABLE_OPCODES = (
    OP_READ, OP_WRITE, OP_SEND, OP_READ_V, OP_WRITE_IMM, OP_CAS, OP_FETCH_ADD
)
#: The request carries the local buffer's bytes.
PAYLOAD_OPCODES = (OP_WRITE, OP_WRITE_IMM, OP_SEND)
#: 8-byte remote atomics.
ATOMIC_OPCODES = (OP_CAS, OP_FETCH_ADD)
#: One-sided on a single remote ``(raddr, rkey)`` segment (READ_V names a
#: gather list instead).
RKEY_OPCODES = (OP_READ, OP_WRITE, OP_WRITE_IMM, OP_CAS, OP_FETCH_ADD)
