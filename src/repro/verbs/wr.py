"""Work requests and receive buffers."""

from repro.verbs.types import OP_CAS, OP_READ, OP_READ_V, OP_SEND, OP_WRITE


class WorkRequest:
    """One entry for the send queue (ibv_send_wr, flattened to one SGE).

    For READ/WRITE/atomics, ``laddr``/``lkey`` name the local buffer and
    ``raddr``/``rkey`` the remote one.  For SEND, the payload is the local
    buffer; ``header`` carries KRCORE's piggybacked metadata (sender address,
    DCT metadata, zero-copy descriptors).

    When posted on a DC QP, ``dct_gid``/``dct_number``/``dct_key`` select the
    remote DCT target per request (§3: "the host only needs to specify the
    target node's RDMA address and its DCT metadata in each request").
    """

    __slots__ = (
        "opcode",
        "wr_id",
        "signaled",
        "laddr",
        "length",
        "lkey",
        "raddr",
        "rkey",
        "compare",
        "swap",
        "header",
        "dct_gid",
        "dct_number",
        "dct_key",
        "sges",
        "chained",
        "trace_id",
        "__weakref__",  # the checker watches a batched chain's WRs weakly
    )

    def __init__(
        self,
        opcode,
        wr_id=0,
        signaled=True,
        laddr=0,
        length=0,
        lkey=0,
        raddr=0,
        rkey=0,
        compare=0,
        swap=0,
        header=None,
        dct_gid=None,
        dct_number=None,
        dct_key=None,
        sges=None,
    ):
        self.opcode = opcode
        self.wr_id = wr_id
        self.signaled = signaled
        self.laddr = laddr
        self.length = length
        self.lkey = lkey
        self.raddr = raddr
        self.rkey = rkey
        self.compare = compare
        self.swap = swap
        self.header = header
        self.dct_gid = dct_gid
        self.dct_number = dct_number
        self.dct_key = dct_key
        #: Remote gather list for READ_V: ``[(raddr, rkey, length), ...]``.
        #: Segments land back-to-back at ``laddr``; ``length`` is the sum.
        self.sges = sges
        #: True for every WR after the first in a doorbell-batched chain
        #: (set by ``QueuePair.post_send_batch``): the NIC fetches the
        #: whole chain on one doorbell, so chained WQEs issue cheaper.
        self.chained = False
        #: Async-span id assigned by post_send when a tracer is installed;
        #: never cloned (each posted WR is its own span).
        self.trace_id = None

    @classmethod
    def read(cls, laddr, length, lkey, raddr, rkey, wr_id=0, signaled=True, **kwargs):
        return cls(
            OP_READ,
            wr_id=wr_id,
            signaled=signaled,
            laddr=laddr,
            length=length,
            lkey=lkey,
            raddr=raddr,
            rkey=rkey,
            **kwargs,
        )

    @classmethod
    def write(cls, laddr, length, lkey, raddr, rkey, wr_id=0, **kwargs):
        return cls(
            OP_WRITE,
            wr_id=wr_id,
            laddr=laddr,
            length=length,
            lkey=lkey,
            raddr=raddr,
            rkey=rkey,
            **kwargs,
        )

    @classmethod
    def read_vectored(cls, laddr, lkey, sges, wr_id=0, **kwargs):
        """A vectored gather READ: one WR naming several remote segments.

        ``sges`` is a list of ``(raddr, rkey, length)`` tuples; the
        segments are read in order and scattered back-to-back into the
        local buffer at ``laddr``, whose registered span must cover the
        summed length.
        """
        sges = [tuple(sge) for sge in sges]
        return cls(
            OP_READ_V,
            wr_id=wr_id,
            laddr=laddr,
            length=sum(sge[2] for sge in sges),
            lkey=lkey,
            sges=sges,
            **kwargs,
        )

    @classmethod
    def send(cls, laddr, length, lkey, wr_id=0, signaled=True, header=None, **kwargs):
        return cls(
            OP_SEND,
            wr_id=wr_id,
            signaled=signaled,
            laddr=laddr,
            length=length,
            lkey=lkey,
            header=header,
            **kwargs,
        )

    @classmethod
    def cas(cls, laddr, lkey, raddr, rkey, compare, swap, wr_id=0, **kwargs):
        return cls(
            OP_CAS,
            wr_id=wr_id,
            laddr=laddr,
            length=8,
            lkey=lkey,
            raddr=raddr,
            rkey=rkey,
            compare=compare,
            swap=swap,
            **kwargs,
        )

    def clone(self):
        """A copy that can be posted on its own: every field but
        ``trace_id`` (each posted WR is its own span)."""
        clone = WorkRequest.__new__(WorkRequest)
        clone.opcode = self.opcode
        clone.wr_id = self.wr_id
        clone.signaled = self.signaled
        clone.laddr = self.laddr
        clone.length = self.length
        clone.lkey = self.lkey
        clone.raddr = self.raddr
        clone.rkey = self.rkey
        clone.compare = self.compare
        clone.swap = self.swap
        clone.header = self.header
        clone.dct_gid = self.dct_gid
        clone.dct_number = self.dct_number
        clone.dct_key = self.dct_key
        clone.sges = self.sges
        clone.chained = self.chained
        clone.trace_id = None
        return clone

    def __repr__(self):
        return f"WorkRequest({self.opcode.value}, wr_id={self.wr_id}, signaled={self.signaled})"


class RecvBuffer:
    """One entry for the receive queue (ibv_recv_wr)."""

    __slots__ = ("addr", "length", "lkey", "wr_id")

    def __init__(self, addr, length, lkey, wr_id=0):
        self.addr = addr
        self.length = length
        self.lkey = lkey
        self.wr_id = wr_id
