import pytest

import stats


def test_p90_needs_ten_samples_beyond_it():
    assert stats.percentile(range(1, 100), 0.9) is None  # rank 90 of 99: 9 beyond
    assert stats.percentile(range(1, 101), 0.9) == 90  # rank 90 of 100: 10 beyond
    assert stats.percentile(range(1, 201), 0.9) == 180


def test_percentile_is_nearest_rank_on_unsorted_input():
    values = [5.0, 1.0, 4.0, 2.0, 3.0]
    assert stats.percentile(values, 0.5, min_beyond=0) == 3.0
    assert stats.percentile(values, 0.9, min_beyond=0) == 5.0
    assert stats.percentile([], 0.5, min_beyond=0) is None


def test_quartile_spread_is_relative_to_the_median():
    values = [10.0] * 5 + [11.0] * 5
    q1, q3 = 10.0, 11.0
    assert stats.quartile_spread(values) == pytest.approx((q3 - q1) / 10.5)


def test_calibration_runs_longer_next_to_longer_work(monkeypatch):
    import calibrate

    calls = []
    monkeypatch.setattr(calibrate, "kernel", lambda: calls.append(1))
    monkeypatch.setattr(calibrate, "_warm", False)
    assert calibrate.sample() >= 0.0
    assert len(calls) == 2  # the first sample in a process warms the kernel up
    calls.clear()
    assert calibrate.sample() >= 0.0
    assert len(calls) == 1
    calls.clear()
    calibrate.sample(share_of=0.01)  # runs until 0.5 ms of kernel time has passed
    assert len(calls) > 1


def test_reference_time_divides_by_the_nearby_readings():
    import calibrate

    ref = calibrate.REFERENCE_S
    readings = [ref, ref, 2 * ref, 2 * ref, 2 * ref, 2 * ref, 2 * ref, 2 * ref]
    out = calibrate.to_reference([1.0] * 7, readings)
    assert out[0] == pytest.approx(1.0 / 1.5)  # median of ref, ref, 2ref, 2ref
    assert out[-1] == pytest.approx(0.5)  # the host ran at half speed
    # work that drifts half as much as the kernel is scaled by its square root
    half = calibrate.to_reference([1.0] * 7, readings, exponent=0.5)
    assert half[-1] == pytest.approx(0.5 ** 0.5)
