"""The checker hook point consulted by instrumented control-plane code.

Mirrors the ``repro.obs`` pay-for-what-you-use contract: the module-level
global :data:`CHECKER` is ``None`` unless a model-checking run installed
a :class:`repro.check.invariants.Checker`, and every hook site guards
with exactly one falsy check::

    from repro.check import hooks as _check
    ...
    if _check.CHECKER is not None:
        _check.CHECKER.pool_rc_insert(self, gid, qp, evicted)

so production runs (benchmarks, figure CSVs, chaos digests) pay one
module-attribute load per site and nothing else.  Hooks never yield and
never advance simulated time: an installed checker observes the run
without perturbing it.

This module is intentionally dependency-free (it is imported by
``repro.krcore`` and ``repro.cluster``, which the rest of ``repro.check``
imports in turn).
"""

from contextlib import contextmanager

#: The process-wide invariant checker, or None (checks disabled).
CHECKER = None


@contextmanager
def checking(checker):
    """Context manager: install ``checker``, restore the previous one on
    exit (so nested tests never leak global state)."""
    global CHECKER
    previous = CHECKER
    CHECKER = checker
    try:
        yield checker
    finally:
        CHECKER = previous
