"""Closed-form eMBB operating-point quantities."""

import math

import numpy as np
import pytest
from scipy.integrate import quad

from slicesim.channel import SystemConfig
from slicesim.embb_analysis import (
    activation_probability,
    operating_point,
    outage_rate,
    target_snr,
    threshold_snr,
)
from slicesim.monte_carlo import build_trial_table

GAMMA_B = 100.0  # 20 dB


def bisect_threshold_L2(eps: float, gamma_bar: float) -> float:
    """Oracle for L = 2: solve 1 - e^{-x/g}(1 + x/g) = eps."""
    lo, hi = 0.0, 100.0 * gamma_bar
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        u = mid / gamma_bar
        if 1.0 - math.exp(-u) * (1.0 + u) < eps:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


class TestThresholdSnr:
    def test_single_antenna_closed_form(self):
        # L = 1: gamma_min = -gamma_bar * ln(1 - eps)
        got = threshold_snr(1, 1e-3, GAMMA_B)
        assert got == pytest.approx(-GAMMA_B * math.log(1 - 1e-3), rel=1e-12)
        assert got == pytest.approx(0.10005003335835, abs=1e-10)

    def test_two_antennas_against_bisection(self):
        want = bisect_threshold_L2(1e-3, GAMMA_B)
        assert threshold_snr(2, 1e-3, GAMMA_B) == pytest.approx(want, abs=1e-8)

    def test_vanishing_outage_target(self):
        for L in (1, 2, 8):
            assert threshold_snr(L, 1e-300, GAMMA_B) == pytest.approx(0.0, abs=1e-6)

    def test_increasing_in_eps(self):
        for L in (1, 2, 4, 8, 16):
            values = [threshold_snr(L, e, GAMMA_B) for e in (1e-4, 1e-3, 1e-2, 1e-1)]
            assert all(a < b for a, b in zip(values, values[1:]))


class TestActivationProbability:
    def test_zero_threshold(self):
        for L in (1, 3, 16):
            assert activation_probability(L, 0.0, GAMMA_B) == 1.0

    def test_single_antenna(self):
        gamma_min = 0.10005003335835335
        assert activation_probability(1, gamma_min, GAMMA_B) == pytest.approx(
            0.999, abs=1e-12
        )

    def test_far_tail_vanishes(self):
        assert activation_probability(4, 1e6, GAMMA_B) < 1e-12

    def test_consistency_loop(self):
        # activation at the eps-derived threshold recovers 1 - eps
        for L in (1, 2, 4, 8, 16):
            for eps in (1e-1, 1e-2, 1e-3, 1e-4):
                g = threshold_snr(L, eps, GAMMA_B)
                assert activation_probability(L, g, GAMMA_B) == pytest.approx(
                    1.0 - eps, abs=1e-9
                )


class TestTargetSnr:
    def test_two_antennas_zero_threshold(self):
        assert target_snr(2, 0.0, GAMMA_B) == pytest.approx(GAMMA_B, rel=1e-12)

    def test_single_antenna_against_quadrature(self):
        gamma_min = 0.10005003335835335
        e1, _ = quad(lambda t: math.exp(-t) / t, gamma_min / GAMMA_B, np.inf,
                     epsabs=1e-14, epsrel=1e-13)
        assert target_snr(1, gamma_min, GAMMA_B) == pytest.approx(
            GAMMA_B / e1, rel=1e-10
        )

    def test_single_antenna_zero_threshold_rejected(self):
        with pytest.raises(ValueError):
            target_snr(1, 0.0, GAMMA_B)

    def test_nonincreasing_as_threshold_drops(self):
        # for L >= 2 a smaller threshold enlarges the average-power integral,
        # so the affordable target SNR shrinks
        for L in (2, 4, 8):
            thresholds = [threshold_snr(L, e, GAMMA_B) for e in (1e-1, 1e-2, 1e-3)]
            targets = [target_snr(L, g, GAMMA_B) for g in thresholds]
            assert thresholds[0] > thresholds[1] > thresholds[2]
            assert targets[0] >= targets[1] >= targets[2]

    def test_average_power_monte_carlo(self):
        # simulated truncated-inversion mean power is ~1 at the closed-form
        # target (full-budget version lives in the acceptance suite)
        for L, tol in ((2, 0.03), (8, 0.03)):
            cfg = SystemConfig(L=L, M=0, gamma_bar_B=GAMMA_B, gamma_bar_M=1.0,
                               eps_B=1e-3, eps_M=0.1, trials=100_000, seed=11)
            op = operating_point(L, cfg.eps_B, GAMMA_B)
            gains = build_trial_table(cfg).d
            mean = float(np.where(gains >= op.gamma_min, op.gamma_tar / gains, 0.0).mean())
            assert mean == pytest.approx(1.0, abs=tol)


class TestOutageRate:
    def test_values(self):
        assert outage_rate(15.0) == pytest.approx(4.0)
        assert outage_rate(1.0) == pytest.approx(1.0)
        assert outage_rate(1e-9) == pytest.approx(1e-9 / math.log(2), rel=1e-6)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            outage_rate(0.0)


class TestOperatingPoint:
    def test_chain_consistency(self):
        op = operating_point(4, 1e-3, GAMMA_B)
        assert op.a_B == pytest.approx(0.999, abs=1e-9)
        assert op.r_B_out == pytest.approx(math.log2(1 + op.gamma_tar), rel=1e-15)
        assert op.gamma_min > 0 and op.gamma_tar > 0

    def test_truncation_outage_matches_eps(self):
        # Monte Carlo Pr{||g_B||^2 < gamma_min} ~ eps_B (light version;
        # the 1e6-trial calibration lives in the acceptance suite)
        cfg = SystemConfig(L=4, M=0, gamma_bar_B=GAMMA_B, gamma_bar_M=1.0,
                           eps_B=1e-2, eps_M=0.1, trials=200_000, seed=5)
        op = operating_point(cfg.L, cfg.eps_B, cfg.gamma_bar_B)
        p_hat = int((build_trial_table(cfg).d < op.gamma_min).sum()) / cfg.trials
        se = math.sqrt(cfg.eps_B * (1 - cfg.eps_B) / cfg.trials)
        assert abs(p_hat - cfg.eps_B) < 3 * se
