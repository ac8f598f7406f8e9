"""Fixed bugs, re-injectable: each is a context manager that puts one bug
back into the shipping code for the duration of a ``with`` block, so a
test can show a checker, harness or test still catches it.  No second code
path ships: a mutant patches the real method and the block restores it.

Most mutants are *source edits*: :func:`_edited` recompiles one method from
its own source with a few literal substitutions, each of which must match
exactly once, so a refactor that moves the fixed code makes the mutant
fail loudly instead of silently injecting nothing.

A patch that acts at module construction (a bound method handed to a
daemon at boot) must be active while the cluster is built.

``tests/test_mutants.py`` runs each against its detector; DESIGN.md §10
has the kill matrix.
"""

import contextlib
import inspect
import textwrap

from repro.apps.race.backends import KrcoreBackend, LiteBackend, VerbsBackend
from repro.apps.race.client import RaceClient
from repro.apps.race.hashing import RaceStorage
from repro.krcore.messaging import KernelMessaging
from repro.krcore.module import KrcoreModule
from repro.krcore.vqp import Vqp
from repro.verbs.qp import QueuePair
from repro.verbs.types import QPS_ERR, WC_FLUSH_ERR


def _edited(owner, name, *edits):
    """``owner.name`` recompiled from its source with each ``(old, new)``
    substitution applied; ``old`` must occur exactly once."""
    func = owner.__dict__[name]
    if func.__closure__:
        raise TypeError(f"{owner.__name__}.{name} closes over variables")
    source = textwrap.dedent(inspect.getsource(func))
    for old, new in edits:
        count = source.count(old)
        if count != 1:
            raise AssertionError(
                f"{owner.__name__}.{name}: {old!r} occurs {count} times, not once"
            )
        source = source.replace(old, new)
    namespace = {}
    code = compile(source, f"<mutant of {owner.__name__}.{name}>", "exec")
    exec(code, func.__globals__, namespace)  # noqa: S102  (test-only mutant)
    return namespace[name]


@contextlib.contextmanager
def _patched(*patches):
    """Set ``(owner, name, value)`` attributes for the block (``value``
    None deletes), then restore every original."""
    saved = [(owner, name, owner.__dict__.get(name)) for owner, name, _ in patches]
    try:
        for owner, name, value in patches:
            if value is None:
                delattr(owner, name)
            else:
                setattr(owner, name, value)
        yield
    finally:
        for owner, name, original in saved:
            if original is None:
                if name in owner.__dict__:
                    delattr(owner, name)
            else:
                setattr(owner, name, original)


# ------------------------------------------------------------ control plane


@contextlib.contextmanager
def accept_leak():
    """The accept-path RC leak: an accepted RC QP that LRU-evicts a pool
    entry drops the victim instead of retiring it, so the evicted QP stays
    registered on the RNIC.  Only the accept path is mutated; the module's
    own ``establish_rc`` still retires its victims."""
    accept = KrcoreModule._on_rc_accept

    def leaky_accept(self, qp, client_gid):
        self._insert_rc = lambda pool, gid, rc_qp: pool.insert_rc(gid, rc_qp)
        try:
            accept(self, qp, client_gid)
        finally:
            del self._insert_rc

    with _patched((KrcoreModule, "_on_rc_accept", leaky_accept)):
        yield


def transfer_post_gate():
    """The lost completion across a QP transfer: with no post gate, a
    WR the owner posts between the fence's post and its completion lands
    on the old QP behind the fence, and nobody polls it for the VQP once
    it has moved."""
    post_chunk = _edited(
        Vqp, "_post_chunk", ("if self._transfer_waiters is not None:", "if False:")
    )
    return _patched((Vqp, "_post_chunk", post_chunk))


def recycle_skips_owed():
    """The dry-pool slot leak: a kernel receive slot freed while the pool
    is dry goes back to the pool instead of to the oldest receive queue
    owed one, so that queue (the SRQ included) stays short for good."""
    return _patched(
        (KernelMessaging, "_recycle", lambda self, slot: self.free_slots.append(slot))
    )


def unbind_keeps_slots():
    """The port slot leak: ``unbind`` (and so ``destroy_vqp`` of a bound
    VQP) drops the messages queued on the port without freeing their
    kernel receive slots."""
    unbind = _edited(KernelMessaging, "unbind", ("self.release(msg)", "pass"))
    return _patched((KernelMessaging, "unbind", unbind))


# ---------------------------------------------------------------- verbs QP


def reset_stale_completion():
    """The reset crash: ``reset`` keeps no incarnation boundary, so a
    CQE of a WR posted before the reset reclaims slots the new incarnation
    never posted ("reclaimed more slots than posted")."""
    reset = _edited(
        QueuePair, "reset",
        ("self._reset_ticket = self._issued", "pass"),
        ("self.send_cq.disown(self)", "pass"),
    )
    return _patched((QueuePair, "reset", reset))


def err_flush_order():
    """The ERR flush order: entering ERR completes the WRs still in the
    send queue at once, ahead of their predecessors in flight."""
    enter_error = QueuePair.enter_error

    def eager_enter_error(self):
        was_err = self.state is QPS_ERR
        enter_error(self)
        if not was_err and self._sq:
            for wr in self._sq:
                self._complete(wr, WC_FLUSH_ERR)
            self._sq.clear()

    return _patched((QueuePair, "enter_error", eager_enter_error))


def reset_keeps_queued_wr():
    """The ERR-recovery crash: a WR already handed to the sender
    survives ``reset`` and is issued on the fresh incarnation, where it
    fails and wrecks it again."""
    reset = _edited(QueuePair, "reset", ("self._sq.clear()", "pass"))
    return _patched((QueuePair, "reset", reset))


def sender_pins_flight():
    """The pinned flight: an idle sender keeps its last flight (and
    through it the WR, its payload and the remote node) alive, as the
    parked sender generator's frame did."""
    launch = _edited(
        QueuePair, "_launch",
        ("self._tx_wr = None", "self._tx_wr = None\n    self._last_flight = flight"),
    )
    return _patched((QueuePair, "_launch", launch))


# -------------------------------------------------------------------- apps


def batch_stale_completion():
    """The stale completion: a batched read returns at its first
    failed completion without reaping the rest, so the next synchronous
    READ on the QP eats a stale completion."""
    reap = ("failed += 1", "return bytes_ok, failed + 1")
    return _patched(
        (VerbsBackend, "read_batch", _edited(VerbsBackend, "read_batch", reap)),
        (KrcoreBackend, "read_batch", _edited(KrcoreBackend, "read_batch", reap)),
    )


def lite_no_read_batch():
    """The broken LITE ``get_batch``: LITE's transport has no
    ``read_batch``, so a batched GET over LITE raises."""
    return _patched((LiteBackend, "read_batch", None))


def _first_hole(owner, name, empty_addr):
    """``owner.name`` (a probe-window scan) returning at the first hole,
    before it has scanned the rest of the window for the key."""
    return _edited(
        owner, name,
        (f"if empty_at is None and empty is not None:\n            empty_at = {empty_addr}",
         f"if empty is not None:\n            return None, {empty_addr}, None"),
    )


def race_put_first_hole():
    """The put after a delete: ``put`` installs into the first hole it
    meets before it has scanned the rest of the window, so an overflowed
    key gets a second slot (a later delete resurrects the old value)."""
    early = _first_hole(RaceClient, "_find", "bucket_addr + empty * SLOT_BYTES")
    put = _edited(RaceClient, "put", ("self._find(", "self._find_first_hole("))
    return _patched((RaceClient, "_find_first_hole", early), (RaceClient, "put", put))


def race_get_batch_home_only():
    """The ``get_batch`` misses: a key past its home bucket or behind
    a fingerprint twin reads as absent (no fallback scan)."""
    get_batch = _edited(
        RaceClient, "get_batch",
        ("found = yield from self._find(catalog, fp12, key, home)\n"
         "            results[key] = found[2]", "results[key] = None"),
    )
    return _patched((RaceClient, "get_batch", get_batch))


def race_load_first_hole():
    """The put bug's copy in the bulk load: ``load`` writes into
    the first hole before it has scanned the rest of the window."""
    early = _first_hole(
        RaceStorage, "_find_local", "self._bucket_addr(home + probe) + empty * SLOT_BYTES"
    )
    load = _edited(RaceStorage, "load", ("self._find_local(", "self._find_local_first_hole("))
    return _patched((RaceStorage, "_find_local_first_hole", early), (RaceStorage, "load", load))
