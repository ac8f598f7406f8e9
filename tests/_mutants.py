"""Fixed bugs, re-injectable: each is a context manager that puts one bug
back into the shipping code for the duration of a ``with`` block, so a
test can show a checker or harness still catches it.  No second code path
ships: a mutant patches the real method and the block restores it.

A patch that acts at module construction (a bound method handed to a
daemon at boot) must be active while the cluster is built.
"""

import contextlib

from repro.krcore.module import KrcoreModule


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

    KrcoreModule._on_rc_accept = leaky_accept
    try:
        yield
    finally:
        KrcoreModule._on_rc_accept = accept
