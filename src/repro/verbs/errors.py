"""Error taxonomy for the simulated RDMA stack.

Every layer's errors derive from :class:`RdmaError`, which carries an
optional ``code`` -- a :class:`repro.verbs.types.WcStatus` member naming
the transport-level condition behind the failure.  Callers branch on
``err.code`` (e.g. ``err.code is WC_RETRY_EXC_ERR``, the module constant
``repro.verbs.types`` binds to ``WcStatus.RETRY_EXC_ERR``) instead of
string-matching messages; the message stays free-form for humans.
"""


class RdmaError(Exception):
    """Base class for all stack errors; ``code`` is a WcStatus or None."""

    def __init__(self, message="", code=None):
        super().__init__(message)
        self.code = code


class VerbsError(RdmaError):
    """Generic misuse of the verbs API (wrong state, wrong transport...)."""


class QpError(VerbsError):
    """The QP is (or just entered) the ERR state."""


class QpOverflowError(QpError):
    """Posting exceeded the physical send-queue capacity.

    Overflowing a shared QP is exactly the corruption KRCORE's Algorithm 2
    guards against (§3.1 C#3): the QP transitions to ERR and must be fully
    reconfigured before it can carry traffic again.
    """


class KrcoreError(RdmaError):
    """A KRCORE operation was rejected or failed (invalid request, unknown
    node, unreachable peer...).

    Crucially this surfaces *to the caller* -- the shared physical QP is
    never corrupted by a bad request (§3.1, C#3).  When the failure maps to
    a transport condition, ``code`` carries the matching WcStatus.
    """


class MetaUnavailableError(KrcoreError):
    """The meta server could not be reached (outage window, dead meta node,
    or a wrecked pre-connected QP).  Callers retry with backoff and fall
    back to the full RC handshake when the budget is exhausted."""


class DeadlineExceededError(KrcoreError):
    """The operation's deadline budget ran out before it completed.

    Deliberately *not* a :class:`MetaUnavailableError`: the meta plane may
    be perfectly healthy -- the caller simply no longer has time for the
    answer.  Retry loops and RC-handshake fallbacks must not fire on it;
    the typed error surfaces straight to the caller (repro.degrade)."""


class OverloadRejectedError(KrcoreError):
    """Admission control shed this request before it consumed capacity
    (token bucket empty and the bounded pending queue full, or an RNIC
    command queue over its limit).  The EAGAIN of this stack: callers
    back off -- with jitter -- and try again later (repro.degrade)."""
