"""Tests for measurement helpers."""

import pytest

from repro.sim import LatencyRecorder, percentile


def test_percentile_endpoints():
    samples = [10, 20, 30, 40]
    assert percentile(samples, 0.0) == 10
    assert percentile(samples, 1.0) == 40


def test_percentile_interpolates():
    assert percentile([0, 10], 0.5) == 5.0


def test_percentile_single_sample():
    assert percentile([7], 0.99) == 7


def test_percentile_rejects_empty_and_bad_fraction():
    with pytest.raises(ValueError):
        percentile([], 0.5)
    with pytest.raises(ValueError):
        percentile([1], 1.5)


def test_latency_recorder_summary():
    recorder = LatencyRecorder()
    for value in (1_000, 2_000, 3_000):
        recorder.record(value)
    assert len(recorder) == 3
    assert recorder.mean() == 2_000
    assert recorder.p(0.5) == 2_000


def test_latency_recorder_rejects_negative():
    recorder = LatencyRecorder()
    with pytest.raises(ValueError):
        recorder.record(-1)


def test_percentile_exact_integer_rank_skips_interpolation():
    # rank 0.5 * (3 - 1) = 1.0 lands exactly on an element: the low ==
    # high branch must return it untouched (no float blending).
    assert percentile([10, 20, 30], 0.5) == 20
    assert isinstance(percentile([10, 20, 30], 0.5), int)


def test_percentile_single_sample_any_fraction():
    assert percentile([42], 0.0) == 42
    assert percentile([42], 1.0) == 42


def test_empty_recorder_summaries_raise():
    recorder = LatencyRecorder()
    with pytest.raises(ValueError):
        recorder.mean()
    with pytest.raises(ValueError):
        recorder.p(0.5)
    assert len(recorder) == 0
