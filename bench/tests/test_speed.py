"""Conversion of seconds to probe chunks, on synthetic ticks."""

import math

import pytest

import speed


def probe_with(ticks):
    probe = speed.Probe()
    probe.ticks = list(ticks)
    return probe


def test_steady_host_converts_at_its_speed():
    probe = probe_with((0.05 * i, 0.002) for i in range(100))
    assert probe.to_ref(1.0, 3.0, 2.0) == pytest.approx(1000.0)


def test_slow_stretch_is_cancelled():
    # the host runs at half speed from t = 2 s: a call there takes twice
    # as long and converts to the same number of chunks
    probe = probe_with((0.05 * i, 0.002 if 0.05 * i < 2.0 else 0.004) for i in range(200))
    fast = probe.to_ref(0.6, 1.2, 0.6)
    slow = probe.to_ref(6.0, 7.2, 1.2)
    assert fast == pytest.approx(300.0) and slow == pytest.approx(300.0)


def test_window_reaches_past_the_call():
    probe = probe_with([(0.0, 0.001), (1.4, 0.002), (3.0, 0.004)])
    # only the tick at 1.4 s lies within 0.5 s of a call from 1.8 s to 2.0 s
    assert probe.to_ref(1.8, 2.0, 0.2) == pytest.approx(100.0)


def test_call_far_from_every_tick_uses_the_nearest():
    probe = probe_with([(0.0, 0.001), (10.0, 0.004)])
    assert probe.to_ref(8.0, 8.1, 0.1) == pytest.approx(25.0)


def test_probe_ticks_and_stops():
    probe = speed.Probe()
    probe.start()
    try:
        deadline = 0.0
        while len(probe.ticks) < 3 and deadline < 1e8:
            deadline += 1.0
    finally:
        probe.stop()
    count = len(probe.ticks)
    assert count >= 3
    assert math.isclose(probe.spent_s, sum(t for _, t in probe.ticks))
    for _ in range(10**6):
        pass
    assert len(probe.ticks) == count


def test_calibrate_gives_a_rate_in_chunks_per_second():
    rate = speed.calibrate()
    start = speed.perf_counter()
    for _ in range(10):
        speed.chunk()
    assert 0.2 < rate * (speed.perf_counter() - start) / 10 < 5.0
