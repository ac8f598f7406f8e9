"""Tests for the workload generators."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.workloads import (
    YCSB_A,
    YCSB_B,
    YCSB_C,
    YcsbWorkload,
    ZipfGenerator,
)
from repro.workloads import zipf


def _draws(gen, count):
    return [gen.sample() for _ in range(count)]


def test_zipf_is_deterministic_per_seed():
    a = ZipfGenerator(1000, seed=5)
    b = ZipfGenerator(1000, seed=5)
    assert _draws(a, 50) == _draws(b, 50)


def test_zipf_draws_match_the_recording_made_before_the_shared_cdf():
    """Draws for fixed seeds, recorded when every generator still built
    its own CDF; a generator built second (cache hit) draws the same."""
    for _ in range(2):
        assert _draws(ZipfGenerator(1024, seed=7), 24) == [
            6, 1, 78, 0, 33, 8, 0, 26, 0, 15, 0, 0,
            14, 289, 0, 2, 66, 700, 45, 11, 862, 0, 365, 4,
        ]
        with pytest.MonkeyPatch.context() as monkeypatch:
            monkeypatch.setattr(zipf, "THETA", 0.5)
            assert _draws(ZipfGenerator(1024, seed=7), 12) == [
                117, 29, 444, 8, 305, 147, 5, 275, 3, 203, 7, 12,
            ]
        assert _draws(ZipfGenerator(3, seed=1), 12) == [
            0, 2, 1, 0, 0, 0, 1, 1, 0, 0, 2, 0,
        ]


def test_zipf_different_seeds_differ():
    a = ZipfGenerator(1000, seed=5)
    b = ZipfGenerator(1000, seed=6)
    assert _draws(a, 50) != _draws(b, 50)


def test_zipf_skews_towards_low_ranks():
    gen = ZipfGenerator(1000, seed=1)
    samples = _draws(gen, 5000)
    head = sum(1 for s in samples if s < 10)
    assert head / len(samples) > 0.25  # the hot head dominates


@settings(max_examples=20, deadline=None)
@given(n=st.integers(min_value=1, max_value=500), seed=st.integers(0, 1000))
def test_zipf_samples_in_range(n, seed):
    gen = ZipfGenerator(n, seed=seed)
    for _ in range(20):
        assert 0 <= gen.sample() < n


def test_zipf_rejects_empty_keyspace():
    with pytest.raises(ValueError):
        ZipfGenerator(0)


def test_ycsb_c_is_read_only():
    workload = YcsbWorkload(YCSB_C, num_keys=100)
    assert all(workload.next_op()[0] == "read" for _ in range(200))


def test_ycsb_a_is_half_updates():
    workload = YcsbWorkload(YCSB_A, num_keys=100, seed=3)
    updates = sum(1 for _ in range(2000) if workload.next_op()[0] == "update")
    assert 0.4 < updates / 2000 < 0.6


def test_ycsb_b_is_mostly_reads():
    workload = YcsbWorkload(YCSB_B, num_keys=100, seed=3)
    reads = sum(1 for _ in range(2000) if workload.next_op()[0] == "read")
    assert reads / 2000 > 0.9


def test_ycsb_rejects_bad_mix():
    with pytest.raises(ValueError):
        YcsbWorkload({"read": 0.5, "update": 0.2})


def test_ycsb_load_keys_covers_keyspace():
    workload = YcsbWorkload(num_keys=10)
    keys = workload.load_keys()
    assert len(keys) == 10
    assert len(set(keys)) == 10
