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


#: Opcodes a requester may post (RECV/RECV_IMM are completion-only), most
#: frequent first.  A tuple, not a set: ``in`` then compares by identity in
#: C, where a set would hash the member through Enum's Python ``__hash__``
#: -- and this is tested once per WR on the post and flight paths.
POSTABLE_OPCODES = (
    Opcode.READ,
    Opcode.WRITE,
    Opcode.SEND,
    Opcode.READ_V,
    Opcode.WRITE_IMM,
    Opcode.CAS,
    Opcode.FETCH_ADD,
)
