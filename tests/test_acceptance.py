"""Acceptance suite: every criterion at the reference parameters
(average gains 20 dB / 5 dB, reliability targets 1e-3 / 1e-1, M = 10 for
rate regions, r_M = 0.25 for device counts).

Each test prints one pass/fail line in the terminal summary (see
conftest.record_criterion). Tests marked slow run full Monte Carlo
budgets and take minutes each.
"""

import math
import os
from dataclasses import replace

import numpy as np
import pytest
from conftest import record_criterion

from slicesim.channel import SystemConfig, draw_realization
from slicesim.cli import main
from slicesim.embb_analysis import (
    activation_probability,
    operating_point,
    threshold_snr,
)
from slicesim.monte_carlo import build_trial_table
from slicesim.sic_decoder import decode_non_orthogonal, decode_orthogonal
from slicesim.slicing_search import (
    max_devices,
    max_mmtc_rate_orth,
    nonorthogonal_region,
    orthogonal_region,
)

GAMMA_B = 100.0  # 20 dB
GAMMA_M = 10**0.5  # 5 dB
EPS_B = 1e-3
EPS_M = 1e-1
L_SWEEP = (1, 2, 4, 8, 16)
WORKERS = min(4, os.cpu_count() or 1)


def paper_cfg(L, M=10, trials=100_000, seed=2718):
    return SystemConfig(
        L=L, M=M, gamma_bar_B=GAMMA_B, gamma_bar_M=GAMMA_M,
        eps_B=EPS_B, eps_M=EPS_M, trials=trials, seed=seed,
    )


@pytest.fixture(scope="module")
def embb_gains_by_L():
    """1e6-trial broadband channel gains per antenna count (criteria 2-3)."""
    return {
        L: build_trial_table(paper_cfg(L, M=0, trials=10**6), workers=WORKERS).d
        for L in L_SWEEP
    }


@pytest.fixture(scope="module")
def fig3_curves():
    """Operating point, orthogonal mMTC endpoint, and the 41-point
    non-orthogonal region at trials = 1e5 for the antenna counts the trend
    criteria examine."""
    out = {}
    for L in (1, 8, 16):
        cfg = paper_cfg(L)
        op = operating_point(cfg.L, cfg.eps_B, cfg.gamma_bar_B)
        table = build_trial_table(cfg, workers=WORKERS)
        r_M_out = max_mmtc_rate_orth(cfg, table=table)
        points = nonorthogonal_region(cfg, n_points=41, table=table)
        out[L] = (op, r_M_out, points)
    return out


def test_c01_closed_form_consistency():
    worst = 0.0
    for L in L_SWEEP:
        for eps in (1e-1, 1e-2, 1e-3):
            g = threshold_snr(L, eps, GAMMA_B)
            worst = max(worst, abs(activation_probability(L, g, GAMMA_B) - (1 - eps)))
    ok = worst <= 1e-9
    record_criterion(1, "closed-form activation/threshold consistency", ok,
                     f"max residual {worst:.2e}")
    assert ok


@pytest.mark.slow
def test_c02_embb_outage_calibration(embb_gains_by_L):
    tol = 3 * math.sqrt(EPS_B * (1 - EPS_B) / 10**6)
    details, ok = [], True
    for L in L_SWEEP:
        gamma_min = threshold_snr(L, EPS_B, GAMMA_B)
        gains = embb_gains_by_L[L]
        p = int((gains < gamma_min).sum()) / len(gains)
        ok &= abs(p - EPS_B) <= tol
        details.append(f"L={L}:{p:.2e}")
    record_criterion(2, "broadband outage calibration at 1e6 trials", ok,
                     "; ".join(details) + f"; tol {tol:.1e}")
    assert ok


@pytest.mark.slow
def test_c03_average_power_constraint(embb_gains_by_L):
    details, ok = [], True
    for L in L_SWEEP:
        op = operating_point(L, EPS_B, GAMMA_B)
        gains = embb_gains_by_L[L]
        mean = float(np.where(gains >= op.gamma_min, op.gamma_tar / gains, 0.0).mean())
        tol = 0.05 if L == 1 else 0.01
        ok &= abs(mean - 1.0) <= tol
        details.append(f"L={L}:{mean:.4f}")
    record_criterion(3, "truncated-inversion mean power = 1", ok, "; ".join(details))
    assert ok


def test_c04_sic_hand_examples():
    G = np.array([[2.0 + 0j, 1.0 + 0j]])
    g_B = np.array([1.0 + 0j])
    checks = [
        decode_orthogonal(G, 1.0, 1.0).mtc_decoded.tolist() == [True, True],
        decode_orthogonal(G, 1.0, 1.2).mtc_decoded.tolist() == [True, False],
        decode_orthogonal(G, 1.0, 1.7).mtc_decoded.tolist() == [False, False],
    ]
    rescue = decode_non_orthogonal(G, g_B, 1.0, 4.0, 1.0, 0.5)
    checks.append(rescue.mtc_decoded.tolist() == [True, True] and rescue.embb_decoded)
    dead = decode_non_orthogonal(G, g_B, 1.0, 4.0, 1.0, 1.0)
    checks.append(dead.mtc_decoded.tolist() == [False, False] and not dead.embb_decoded)
    ok = all(checks)
    record_criterion(4, "hand-computed SIC examples (M=2, L=1)", ok,
                     f"{sum(checks)}/5 exact")
    assert ok


def test_c05_reduction_law():
    cfg = paper_cfg(2, M=6, trials=5000, seed=77)
    mismatches = 0
    for r_M in (0.4, 1.0):
        for t in range(cfg.trials):
            real = draw_realization(cfg, t)
            non = decode_non_orthogonal(real.G_M, real.g_B, cfg.P_M, 0.0, r_M, 0.0)
            orth = decode_orthogonal(real.G_M, cfg.P_M, r_M)
            if not np.array_equal(non.mtc_decoded, orth.mtc_decoded):
                mismatches += 1
    ok = mismatches == 0
    record_criterion(5, "zero-power reduction to orthogonal decoding", ok,
                     f"{mismatches} mismatches in 1e4 realizations")
    assert ok


def test_c06_single_user_mmtc_calibration():
    closed_form = math.log2(1.0 - GAMMA_M * math.log(1 - EPS_M))
    cfg = paper_cfg(1, M=1, trials=100_000, seed=13)
    got = max_mmtc_rate_orth(cfg)
    ok = abs(got - closed_form) <= 0.02
    record_criterion(6, "single-user mMTC rate vs Rayleigh closed form", ok,
                     f"got {got:.4f}, closed form {closed_form:.4f}")
    assert ok


@pytest.mark.slow
def test_c07_low_antenna_orthogonal_dominance(fig3_curves):
    op, r_M_out, points = fig3_curves[1]
    worst = -np.inf
    for pt in points:
        line = (1.0 - pt.r_B / op.r_B_out) * r_M_out
        worst = max(worst, pt.r_M - line)
    ok = worst <= 0.02
    record_criterion(7, "L=1: orthogonal dominates across the whole grid", ok,
                     f"max non-orth excess {worst:+.4f}")
    assert ok


@pytest.mark.slow
def test_c08_high_antenna_nonorthogonal_advantage(fig3_curves):
    details, ok = [], True
    for L in (8, 16):
        op, r_M_out, points = fig3_curves[L]
        best = max(
            pt.r_M - (1.0 - pt.r_B / op.r_B_out) * r_M_out for pt in points
        )
        ok &= best > 0.02
        details.append(f"L={L}: best advantage {best:+.4f}")
    record_criterion(8, "L=8/16: non-orthogonal advantage exists", ok,
                     "; ".join(details))
    assert ok


@pytest.mark.slow
def test_c09_diversity_monotonicity():
    r_out = []
    for L in L_SWEEP:
        cfg = paper_cfg(L)
        r_out.append(max_mmtc_rate_orth(cfg, table=build_trial_table(cfg, workers=WORKERS)))
    rates_ok = all(a <= b for a, b in zip(r_out, r_out[1:]))

    m_by_mode = {}
    for mode in ("orthogonal", "non_orthogonal"):
        values = []
        for L in L_SWEEP:
            cfg = paper_cfg(L, trials=30_000)
            op = operating_point(cfg.L, cfg.eps_B, cfg.gamma_bar_B)
            values.append(
                max_devices(cfg, 0.25, 0.5 * op.r_B_out, mode, workers=WORKERS)
            )
        m_by_mode[mode] = values
    devices_ok = all(
        all(a <= b for a, b in zip(vals, vals[1:])) for vals in m_by_mode.values()
    )
    ok = rates_ok and devices_ok
    record_criterion(
        9, "rates and device counts nondecreasing in L", ok,
        f"r_M_out {['%.3f' % r for r in r_out]}; "
        f"M_max orth {m_by_mode['orthogonal']}, "
        f"nonorth {m_by_mode['non_orthogonal']}",
    )
    assert ok


@pytest.mark.slow
def test_c10_region_geometry(fig3_curves):
    ok = True
    worst_line = 0.0
    details = []
    for L, (op, r_M_out, points) in fig3_curves.items():
        cfg = paper_cfg(L)
        orth = orthogonal_region(cfg, np.linspace(0, 1, 41), r_M_out=r_M_out)
        r_B_out, r_M_end = orth[-1].r_B, orth[0].r_M
        for pt in orth:
            worst_line = max(
                worst_line, abs(pt.r_B / r_B_out + pt.r_M / r_M_end - 1.0)
            )
        gap = abs(points[0].r_M - r_M_out)
        ok &= gap <= 0.02
        details.append(f"L={L} endpoint gap {gap:.4f}")
    ok &= worst_line <= 1e-12
    record_criterion(10, "orthogonal line identity + r_B=0 reduction", ok,
                     f"line residual {worst_line:.1e}; " + "; ".join(details))
    assert ok


def test_c11_worker_determinism(tmp_path):
    cfg = tmp_path / "det.cfg"
    cfg.write_text(
        "L = 2\nM = 4\ngamma_bar_B_db = 20\ngamma_bar_M_db = 5\n"
        "eps_B = 1e-3\neps_M = 0.1\ntrials = 2000\nseed = 5\n"
        "mode = both\nalpha_points = 4\nr_b_points = 4\n"
    )
    outputs = []
    for workers in ("1", "3", "8"):
        out = tmp_path / f"w{workers}.csv"
        code = main(["region", "--config", str(cfg), "--workers", workers,
                     "--out", str(out)])
        assert code == 0
        outputs.append(out.read_bytes())
    ok = outputs[0] == outputs[1] == outputs[2]
    record_criterion(11, "byte-identical region CSV across worker counts", ok,
                     f"{len(outputs[0])} bytes compared")
    assert ok
