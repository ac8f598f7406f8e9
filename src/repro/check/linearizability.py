"""A Wing & Gong linearizability checker over recorded op histories.

A run records its ops in a list: one ``(key, Op)`` pair per
invocation, whose ``response`` (and, for a read, ``value``) it fills in
when the op returns.  :func:`by_key` groups that list into the per-key
histories the checker takes.

The checker itself is the classic Wing & Gong DFS with the two standard
accelerations:

* **P-compositionality**: linearizability is compositional, so each
  key's history is checked independently (:func:`check_histories`) --
  exponential state collapses to per-key history sizes.
* **Memoization** on (linearized-set, register value): two DFS paths
  that linearized the same subset of ops and reached the same register
  value are equivalent, so each such state is explored once
  (Lowe's just-in-time linearizability optimisation).

Semantics are a single register per key: a read returns the value of
the latest linearized write (0 before any).  An operation with
``response=None`` is *incomplete* (invoked, never returned): it may be
linearized anywhere after its invocation or not at all -- required for
histories with crashed clients or writes acknowledged only by a later
observation.
"""

__all__ = ["Op", "by_key", "check_register", "check_histories"]


class Op:
    """One operation in a history.

    ``kind`` is ``'r'`` or ``'w'``; ``value`` is the value written (for
    writes) or returned (for reads).  ``response is None`` marks an
    incomplete op.  Times are simulated ns; only their order matters.
    """

    __slots__ = ("proc", "kind", "value", "invoke", "response")

    def __init__(self, proc, kind, value, invoke, response):
        self.proc = proc
        self.kind = kind
        self.value = value
        self.invoke = int(invoke)
        self.response = None if response is None else int(response)

    def __repr__(self):
        span = f"{self.invoke}..{'?' if self.response is None else self.response}"
        return f"Op({self.proc} {self.kind}{self.value!r} @{span})"


def by_key(history):
    """Group ``(key, Op)`` pairs into ``{key: [Op]}``.  An open write is
    kept as incomplete (it may have taken effect); an open read is
    dropped, since no answer observes nothing."""
    histories = {}
    for key, op in history:
        if op.response is not None or op.kind == "w":
            histories.setdefault(key, []).append(op)
    return histories


def check_register(ops):
    """True iff ``ops`` is linearizable as a single read/write register.

    Iterative DFS over partial linearizations.  A state is the bitmask
    of linearized ops plus the current register value; a candidate next
    op is any un-linearized op whose invocation does not come after the
    response of another un-linearized *complete* op (it must be allowed
    to go first: ops are candidates iff their invoke time is <= the
    minimum response among pending complete ops).  Incomplete ops never
    constrain others and may be left un-linearized at the end.
    """
    ops = sorted(ops, key=lambda op: (op.invoke, 0 if op.response is None else 1))
    n = len(ops)
    if n == 0:
        return True
    complete_mask = 0
    for index, op in enumerate(ops):
        if op.response is not None:
            complete_mask |= 1 << index
    all_mask = (1 << n) - 1
    seen = set()
    # Each frame: (mask_of_linearized, register_value).
    stack = [(0, 0)]
    while stack:
        mask, value = stack.pop()
        if mask & complete_mask == complete_mask:
            return True
        if (mask, value) in seen:
            continue
        seen.add((mask, value))
        pending = all_mask & ~mask
        # The earliest response among pending *complete* ops bounds which
        # ops may linearize next: anything invoked after it must wait.
        horizon = None
        probe = pending & complete_mask
        while probe:
            low = probe & -probe
            response = ops[low.bit_length() - 1].response
            if horizon is None or response < horizon:
                horizon = response
            probe ^= low
        probe = pending
        while probe:
            low = probe & -probe
            probe ^= low
            index = low.bit_length() - 1
            op = ops[index]
            if horizon is not None and op.invoke > horizon:
                continue
            if op.kind == "w":
                stack.append((mask | low, op.value))
            elif op.value == value:
                stack.append((mask | low, value))
    return False


def check_histories(histories):
    """Check each key's history independently (P-compositionality).

    ``histories`` maps key -> list of :class:`Op`.  Returns the list of
    keys whose history is NOT linearizable (empty == pass).
    """
    return [key for key in sorted(histories) if not check_register(histories[key])]
