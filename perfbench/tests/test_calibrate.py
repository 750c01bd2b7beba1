"""The reference kernel: sampling from the timer, and the scale it gives."""

import signal
import time

import pytest

from calibrate import REF_S, Meter, kernel


def _meter(at, took):
    m = Meter()
    m.at, m.took = list(at), list(took)
    return m


def test_kernel_does_fixed_work():
    assert kernel() == kernel() == 8 * 31


def test_scale_uses_the_samples_in_the_span():
    m = _meter([0.0, 0.1, 0.2, 0.3, 0.4], [9.0, 1.0, 3.0, 2.0, 9.0])
    assert m.scale(0.1, 0.3) == pytest.approx(REF_S / 2.0)
    assert m.scale(0.15, 0.35) == pytest.approx(REF_S / 2.5)


def test_a_short_span_takes_the_samples_around_it():
    m = _meter([0.0, 0.01, 0.02, 0.03, 0.04, 0.05, 0.06], [9, 1, 2, 3, 4, 5, 9])
    # [0.03, 0.03] widens to [0.005, 0.055]
    assert m.scale(0.03, 0.03) == pytest.approx(REF_S / 3.0)


def test_scale_falls_back_to_the_nearest_samples():
    m = _meter([0.0, 1.0], [2.0, 4.0])
    assert m.scale(0.5, 0.5) == pytest.approx(REF_S / 3.0)
    assert m.scale(5.0, 5.0) == pytest.approx(REF_S / 4.0)


def test_running_samples_and_its_clock_skips_the_samples():
    before = signal.getsignal(signal.SIGALRM)
    m = Meter()
    with m.running():
        t0, c0, s0 = time.perf_counter(), m.clock(), m.stolen
        while time.perf_counter() - t0 < 0.2:
            pass
        wall, work, spent = time.perf_counter() - t0, m.clock() - c0, m.stolen - s0
    assert len(m.at) >= 5 and m.at == sorted(m.at)
    assert spent > 0
    assert work == pytest.approx(wall - spent, abs=1e-3)
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
