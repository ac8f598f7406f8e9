"""The Wing & Gong linearizability checker and its op histories."""

from repro.check.linearizability import Op, by_key, check_histories, check_register
from repro.check.runner import run_once
from repro.check import scenarios


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


# ----------------------------------------------------------- scenario layer


def test_kvs_lin_scenario_records_and_linearizes():
    result = run_once("kvs_lin")
    assert result.ok, result.violations
    assert result.histories, "kvs_lin recorded no histories"
    total_ops = sum(len(ops) for ops in result.histories.values())
    assert total_ops == result.summary["ops"]
    assert result.nonlinearizable == []


def test_meta_histories_linearize_on_single_shard_plane(monkeypatch):
    """With one shard (no replica to race), the recorded meta lookup
    histories must linearize; the replicated plane only promises
    convergence, which is why meta_failover reports instead of enforces."""
    monkeypatch.setattr(scenarios, "META_FAILOVER_SHARDS", 1)
    result = run_once("meta_failover")
    assert result.ok, result.violations
    assert result.histories
    assert result.nonlinearizable == []
