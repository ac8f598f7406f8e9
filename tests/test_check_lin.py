"""The Wing & Gong linearizability checker and its op histories, and a
meta-plane run that records them (the KRCORE KVS run is in
``tests/test_check_runs.py``)."""

from repro.bench.setups import krcore_cluster
from repro.check.linearizability import Op, by_key, check_histories, check_register

US = 1_000


def _op(proc, kind, value, invoke, response):
    return Op(proc, kind, value, invoke, response)


# ---------------------------------------------------------------- unit layer


def test_sequential_history_linearizes():
    ops = [
        _op("a", "w", 1, 0, 10),
        _op("b", "r", 1, 20, 30),
        _op("a", "w", 2, 40, 50),
        _op("b", "r", 2, 60, 70),
    ]
    assert check_register(ops)


def test_read_of_never_written_value_fails():
    ops = [_op("a", "w", 1, 0, 10), _op("b", "r", 99, 20, 30)]
    assert not check_register(ops)


def test_stale_read_after_write_completes_fails():
    # w(1) responded at 10; a read invoked at 20 cannot still see 0.
    ops = [_op("a", "w", 1, 0, 10), _op("b", "r", 0, 20, 30)]
    assert not check_register(ops)


def test_concurrent_read_may_see_old_or_new():
    # A read overlapping w(1) may return either 0 or 1.
    assert check_register([_op("a", "w", 1, 0, 100), _op("b", "r", 0, 10, 20)])
    assert check_register([_op("a", "w", 1, 0, 100), _op("b", "r", 1, 10, 20)])


def test_new_old_inversion_fails():
    # Two sequential reads during one long write: 1 then 0 is an
    # inversion (the write cannot un-happen).
    ops = [
        _op("a", "w", 1, 0, 1000),
        _op("b", "r", 1, 10, 20),
        _op("b", "r", 0, 30, 40),
    ]
    assert not check_register(ops)
    # The other order is fine.
    ops = [
        _op("a", "w", 1, 0, 1000),
        _op("b", "r", 0, 10, 20),
        _op("b", "r", 1, 30, 40),
    ]
    assert check_register(ops)


def test_incomplete_write_may_or_may_not_take_effect():
    # The pending write may linearize before the read...
    assert check_register([_op("a", "w", 5, 0, None), _op("b", "r", 5, 10, 20)])
    # ...or never.
    assert check_register([_op("a", "w", 5, 0, None), _op("b", "r", 0, 10, 20)])
    # But it cannot take effect before its invocation.
    assert not check_register([_op("b", "r", 5, 0, 5), _op("a", "w", 5, 10, None)])


def test_incomplete_write_cannot_unhappen():
    ops = [
        _op("a", "w", 5, 0, None),
        _op("b", "r", 5, 10, 20),
        _op("b", "r", 0, 30, 40),
    ]
    assert not check_register(ops)


def test_per_key_composition():
    histories = {
        "good": [_op("a", "w", 1, 0, 10), _op("b", "r", 1, 20, 30)],
        "bad": [_op("a", "w", 1, 0, 10), _op("b", "r", 0, 20, 30)],
    }
    assert check_histories(histories) == ["bad"]


def test_checker_scales_past_naive_factorial():
    # 16 sequential write/read pairs: naive DFS would be 32! orderings;
    # memoization + the horizon rule make this instant.
    ops = []
    for index in range(16):
        ops.append(_op("w", "w", index, 100 * index, 100 * index + 10))
        ops.append(_op("r", "r", index, 100 * index + 20, 100 * index + 30))
    assert check_register(ops)


# ------------------------------------------------------------- op histories


def test_recorded_ops_group_by_key_keeping_open_writes_only():
    write = Op("c0", "w", 7, 5, None)
    read = Op("c1", "r", None, 20, None)
    open_write = Op("c0", "w", 9, 40, None)  # crashed client: never responds
    lost_read = Op("c1", "r", None, 50, None)  # constrains nothing: dropped
    history = [("k0", write), ("k0", read), ("k1", open_write), ("k1", lost_read)]
    write.response = 15
    read.value, read.response = 7, 30

    histories = by_key(history)
    assert sorted(histories) == ["k0", "k1"]
    assert [(op.kind, op.value, op.invoke, op.response) for op in histories["k0"]] == [
        ("w", 7, 5, 15),
        ("r", 7, 20, 30),
    ]
    (k1,) = histories["k1"]
    assert (k1.kind, k1.value, k1.response) == ("w", 9, None)
    assert check_histories(histories) == []


def test_meta_histories_linearize_on_single_shard_plane():
    """MR publication / retraction with lookups across a shard outage:
    with one shard (no replica to race) the lookup histories must
    linearize.  A replicated plane promises convergence only, which the
    checker holds every sharded run to (DESIGN.md §10)."""
    writers, rounds = 2, 3
    sim, cluster, _meta, modules = krcore_cluster(num_nodes=1 + writers, background_rc=False)
    plane = modules[0].meta_plane
    modules = {module.node.gid: module for module in modules}
    history = []

    def outage():
        yield 300 * US
        plane.set_outage(400 * US, shard=0)

    def writer(wnum, node):
        # Each writer churns its own MR records: no two race on one key.
        module = modules[node.gid]
        for index in range(rounds):
            yield 200 * US
            addr = node.memory.alloc(64)
            # Publication rides async kernel messages: the write stays
            # open-ended until a later lookup observes it.
            history.append((f"mr:{node.gid}", Op(f"w{wnum}", "w", addr, sim.now, None)))
            region = yield from module.reg_mr(addr, 64)
            yield 200 * US
            for reader_gid in sorted(modules):
                if reader_gid == node.gid:
                    continue
                op = Op(reader_gid, "r", None, sim.now, None)
                history.append((f"mr:{node.gid}", op))
                try:
                    record = yield from modules[reader_gid].plane_lookup_mr(
                        0, node.gid, region.rkey)
                except Exception:
                    continue  # no answer observes nothing: the read stays open
                op.value, op.response = 0 if record is None else record[0], sim.now
            if index + 1 < rounds:
                yield from module.dereg_mr(region)

    sim.process(outage())
    for wnum, node in enumerate(cluster.nodes[1:]):
        sim.process(writer(wnum, node))
    sim.run()
    histories = by_key(history)
    assert histories
    assert check_histories(histories) == []
