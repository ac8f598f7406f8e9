"""RC connection establishment with the UD-optimized handshake.

The paper (§2.3.1) carefully optimizes the handshake with RDMA's
connectionless datagram and finds it contributes only 2.4% of the control
path; the dominant cost is the RNIC hardware setup.  We model the exchange
as a fixed protocol overhead (HANDSHAKE_NS) plus wire time, while the QP
creation/configuration on both sides charges the respective RNIC command
processors -- which is what produces the ~712 connections/second server-side
ceiling of Fig 8a.

To overlap work like the optimized implementations do, the accepting daemon
replies with its QPN right after ``create_qp`` and performs its own
RTR/RTS configuration concurrently with the client's.
"""

from repro.cluster import timing
from repro.obs import trace as _trace
from repro.sim import Store
from repro.verbs.cq import CompletionQueue
from repro.verbs.errors import VerbsError
from repro.verbs.types import QPT_RC


class ConnectError(VerbsError):
    """The remote node is unreachable or refused the connection."""


#: Size of a handshake datagram on the wire (QP info + addresses).
_HANDSHAKE_BYTES = 64


class ConnectionManager:
    """Per-node daemon accepting RC connection requests.

    Applications register listeners by port; when a connection to that port
    completes, the listener callback receives ``(qp, client_gid)``.
    """

    SERVICE = "connmgr"

    def __init__(self, node, context):
        self.node = node
        self.sim = node.sim
        self.context = context
        self._inbox = Store(self.sim)
        self._listeners = {}
        self._accept_cq = None
        node.services[self.SERVICE] = self
        self.sim.process(self._daemon(), name=f"connmgr@{node.gid}")

    def listen(self, port, on_accept):
        """Register ``on_accept(qp, client_gid)`` for connections to ``port``."""
        if port in self._listeners:
            raise VerbsError(f"port {port} already bound on {self.node.gid}")
        self._listeners[port] = on_accept

    def unlisten(self, port):
        self._listeners.pop(port, None)

    def accept_cq(self):
        """The shared CQ used for daemon-accepted QPs (created lazily,
        boot-time cost not charged)."""
        if self._accept_cq is None:
            self._accept_cq = CompletionQueue(self.sim)
        return self._accept_cq

    def _daemon(self):
        while True:
            request, reply_event = yield self._inbox.get()
            port = request.get("port", 0)
            if port and port not in self._listeners:
                reply_event.fail(ConnectError(f"nothing bound to port {port}"))
                continue
            qp = yield from self.context.create_qp(QPT_RC, self.accept_cq())
            reply_event.trigger({"qpn": qp.qpn})
            self.sim.process(
                self._finish_accept(qp, request), name=f"accept@{self.node.gid}"
            )

    def _finish_accept(self, qp, request):
        remote = (request["gid"], request["qpn"])
        yield from self.context.modify_to_ready(qp, remote=remote)
        listener = self._listeners.get(request.get("port", 0))
        if listener is not None:
            listener(qp, request["gid"])

    def submit(self, request):
        """Enqueue a handshake request; returns the reply event."""
        reply_event = self.sim.event()
        self._inbox.put((request, reply_event))
        return reply_event


def rc_connect(context, send_cq, server_gid, port=0, sq_depth=None):
    """Process: establish an RC connection from ``context``'s node.

    Creates the local QP, runs the UD-optimized handshake against the
    remote :class:`ConnectionManager`, configures RTR/RTS, and returns the
    ready-to-send QP.  The caller is responsible for having initialized the
    driver context (``ensure_init``) and created ``send_cq``.
    """
    node = context.node
    if _trace.TRACER is not None:
        _trace.TRACER.begin(
            node.sim.now, f"verbs@{node.gid}", "rc_connect", server=server_gid
        )
    kwargs = {} if sq_depth is None else {"sq_depth": sq_depth}
    qp = yield from context.create_qp(QPT_RC, send_cq, recv_cq=send_cq, **kwargs)
    if not node.fabric.has_node(server_gid):
        raise ConnectError(f"no route to {server_gid}")
    server = node.fabric.node(server_gid)
    manager = server.services.get(ConnectionManager.SERVICE)
    if manager is None:
        raise ConnectError(f"{server_gid} runs no connection manager")
    # Fixed protocol overhead of the UD handshake (both directions).
    if _trace.TRACER is not None:
        _trace.TRACER.begin(node.sim.now, f"verbs@{node.gid}", "handshake")
    yield timing.HANDSHAKE_NS
    yield node.fabric.one_way_ns(_HANDSHAKE_BYTES)
    reply = yield manager.submit({"gid": node.gid, "qpn": qp.qpn, "port": port})
    yield node.fabric.one_way_ns(_HANDSHAKE_BYTES)
    if _trace.TRACER is not None:
        _trace.TRACER.end(node.sim.now, f"verbs@{node.gid}", "handshake")
    yield from context.modify_to_ready(qp, remote=(server_gid, reply["qpn"]))
    if _trace.TRACER is not None:
        _trace.TRACER.end(
            node.sim.now, f"verbs@{node.gid}", "rc_connect", qpn=qp.qpn
        )
    return qp
