"""Closed-form eMBB operating point."""

import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import gammaln

from slicesim.channel import SystemConfig
from slicesim.embb_analysis import operating_point
from slicesim.monte_carlo import build_trial_table

GAMMA_B = 100.0  # 20 dB


def op_at(L: int, eps_B: float = 1e-3):
    return operating_point(
        SystemConfig(L=L, M=0, gamma_bar_B=GAMMA_B, gamma_bar_M=1.0, eps_B=eps_B, eps_M=0.1)
    )


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
        got = op_at(1).gamma_min
        assert got == pytest.approx(-GAMMA_B * math.log(1 - 1e-3), rel=1e-12)
        assert got == pytest.approx(0.10005003335835, abs=1e-10)

    def test_two_antennas_against_bisection(self):
        want = bisect_threshold_L2(1e-3, GAMMA_B)
        assert op_at(2).gamma_min == pytest.approx(want, abs=1e-8)

    def test_vanishing_outage_target(self):
        for L in (1, 2, 8):
            assert op_at(L, 1e-300).gamma_min == pytest.approx(0.0, abs=1e-6)

    def test_increasing_in_eps(self):
        for L in (1, 2, 4, 8, 16):
            values = [op_at(L, e).gamma_min for e in (1e-4, 1e-3, 1e-2, 1e-1)]
            assert all(a < b for a, b in zip(values, values[1:]))


class TestActivationProbability:
    def test_zero_threshold(self):
        # a vanishing outage target leaves the device always active
        for L in (1, 3, 16):
            assert op_at(L, 1e-300).a_B == 1.0

    def test_single_antenna(self):
        assert op_at(1).a_B == pytest.approx(0.999, abs=1e-12)

    def test_consistency_loop(self):
        # activation at the eps-derived threshold recovers 1 - eps
        for L in (1, 2, 4, 8, 16):
            for eps in (1e-1, 1e-2, 1e-3, 1e-4):
                assert op_at(L, eps).a_B == pytest.approx(1.0 - eps, abs=1e-9)


class TestTargetSnr:
    def test_two_antennas_zero_threshold(self):
        # L = 2: Gamma(1, x) = e^{-x} -> 1 as the threshold vanishes
        assert op_at(2, 1e-300).gamma_tar == pytest.approx(GAMMA_B, rel=1e-12)

    def test_single_antenna_against_quadrature(self):
        op = op_at(1)
        e1, _ = quad(lambda t: math.exp(-t) / t, op.gamma_min / GAMMA_B, np.inf,
                     epsabs=1e-14, epsrel=1e-13)
        assert op.gamma_tar == pytest.approx(GAMMA_B / e1, rel=1e-10)

    def test_single_antenna_zero_threshold_rejected(self):
        # eps_B = 0 would put the L = 1 threshold at 0, where the average
        # power E1(0) diverges; the configuration refuses it
        with pytest.raises(ValueError):
            SystemConfig(L=1, M=0, gamma_bar_B=GAMMA_B, gamma_bar_M=1.0, eps_B=0.0, eps_M=0.1)

    def test_nonincreasing_as_threshold_drops(self):
        # for L >= 2 a smaller threshold enlarges the average-power integral,
        # so the affordable target SNR shrinks
        for L in (2, 4, 8):
            ops = [op_at(L, e) for e in (1e-1, 1e-2, 1e-3)]
            assert ops[0].gamma_min > ops[1].gamma_min > ops[2].gamma_min
            assert ops[0].gamma_tar >= ops[1].gamma_tar >= ops[2].gamma_tar

    @pytest.mark.parametrize("L", [1, 2, 4, 8, 16, 172, 200])
    def test_unit_average_power_quadrature(self, L):
        # E[gamma_tar / g; g >= gamma_min] = 1 for g ~ Gamma(L, GAMMA_B),
        # written in t = g / GAMMA_B; in log space, since (L-1)! overflows a
        # float from L = 172 on
        op = op_at(L)

        def power(t):
            return math.exp(math.log(op.gamma_tar / GAMMA_B) + (L - 2) * math.log(t) - t
                            - gammaln(L))

        mean, _ = quad(power, op.gamma_min / GAMMA_B, np.inf, epsabs=1e-13, epsrel=1e-12)
        assert mean == pytest.approx(1.0, rel=1e-10)
        assert op.a_B == pytest.approx(1.0 - 1e-3, abs=1e-12)

    def test_average_power_monte_carlo(self):
        # simulated truncated-inversion mean power is ~1 at the closed-form
        # target (full-budget version lives in the acceptance suite)
        for L, tol in ((2, 0.03), (8, 0.03)):
            cfg = SystemConfig(L=L, M=0, gamma_bar_B=GAMMA_B, gamma_bar_M=1.0,
                               eps_B=1e-3, eps_M=0.1, trials=100_000, seed=11)
            op = operating_point(cfg)
            gains = build_trial_table(cfg).d
            mean = float(np.where(gains >= op.gamma_min, op.gamma_tar / gains, 0.0).mean())
            assert mean == pytest.approx(1.0, abs=tol)


class TestOutageRate:
    def test_values(self):
        # L = 2: Gamma(1, x) = e^{-x}, so r_B_out = log2(1 + GAMMA_B e^x)
        for eps in (1e-1, 1e-3):
            x = bisect_threshold_L2(eps, GAMMA_B) / GAMMA_B
            assert op_at(2, eps).r_B_out == pytest.approx(
                math.log2(1.0 + GAMMA_B * math.exp(x)), rel=1e-10
            )


class TestOperatingPoint:
    def test_chain_consistency(self):
        op = op_at(4)
        assert op.a_B == pytest.approx(0.999, abs=1e-9)
        assert op.r_B_out == pytest.approx(math.log2(1 + op.gamma_tar), rel=1e-15)
        assert op.gamma_min > 0 and op.gamma_tar > 0

    def test_truncation_outage_matches_eps(self):
        # Monte Carlo Pr{||g_B||^2 < gamma_min} ~ eps_B (light version;
        # the 1e6-trial calibration lives in the acceptance suite)
        cfg = SystemConfig(L=4, M=0, gamma_bar_B=GAMMA_B, gamma_bar_M=1.0,
                           eps_B=1e-2, eps_M=0.1, trials=200_000, seed=5)
        op = operating_point(cfg)
        p_hat = int((build_trial_table(cfg).d < op.gamma_min).sum()) / cfg.trials
        se = math.sqrt(cfg.eps_B * (1 - cfg.eps_B) / cfg.trials)
        assert abs(p_hat - cfg.eps_B) < 3 * se
