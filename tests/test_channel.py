"""Scenario validation and channel realization statistics."""

import math

import numpy as np
import pytest

from slicesim.channel import (
    SystemConfig,
    db_to_linear,
    draw_realization,
)
from slicesim.numerics import RngStream, sample_complex_gaussian


def linear_to_db(x):
    return 10.0 * np.log10(x)


def make_cfg(**kw):
    base = dict(
        L=4, M=10, gamma_bar_B=100.0, gamma_bar_M=db_to_linear(5.0),
        eps_B=1e-3, eps_M=0.1, trials=1000, seed=42,
    )
    base.update(kw)
    return SystemConfig(**base)


class TestSystemConfig:
    def test_valid(self):
        cfg = make_cfg()
        assert cfg.P_M == 1.0

    @pytest.mark.parametrize(
        "field,value",
        [
            ("L", 0),
            ("L", 1.5),
            ("M", -1),
            ("M", 2.0),
            ("gamma_bar_B", 0.0),
            ("gamma_bar_M", -2.0),
            ("eps_B", 0.0),
            ("eps_B", 1.0),
            ("eps_M", 1.2),
            ("P_M", 0.0),
            ("trials", 0),
            ("seed", -1),
            ("trials", 1000.5),
            ("seed", 1.5),
            ("trials", True),
            ("seed", True),
            ("L", True),
            ("M", False),
            ("gamma_bar_B", math.nan),
            ("gamma_bar_B", math.inf),
            ("gamma_bar_M", math.inf),
            ("P_M", math.nan),
            ("P_M", math.inf),
        ],
    )
    def test_rejects_bad_field(self, field, value):
        with pytest.raises(ValueError, match=field):
            make_cfg(**{field: value})

    def test_db_conversion(self):
        assert db_to_linear(20.0) == pytest.approx(100.0)
        assert db_to_linear(5.0) == pytest.approx(10**0.5)
        assert linear_to_db(db_to_linear(7.3)) == pytest.approx(7.3)


class TestDrawRealization:
    def test_shapes(self):
        real = draw_realization(make_cfg(), 0)
        assert real.g_B.shape == (4,)
        assert real.G_M.shape == (4, 10)

    def test_no_devices(self):
        real = draw_realization(make_cfg(M=0), 3)
        assert real.G_M.shape == (4, 0)
        assert real.g_B.shape == (4,)

    def test_determinism(self):
        cfg = make_cfg()
        a = draw_realization(cfg, 17)
        b = draw_realization(cfg, 17)
        assert np.array_equal(a.g_B, b.g_B)
        assert np.array_equal(a.G_M, b.G_M)

    def test_trials_differ(self):
        cfg = make_cfg()
        a = draw_realization(cfg, 0)
        b = draw_realization(cfg, 1)
        assert not np.array_equal(a.g_B, b.g_B)

    def test_embb_vector_drawn_first(self):
        # g_B is the leading segment of the trial's stream, so it matches the
        # pure sampler and is unaffected by how many MTC columns follow
        cfg = make_cfg()
        real = draw_realization(cfg, 11)
        gen = RngStream(cfg.seed, 11).generator()
        direct = sample_complex_gaussian(gen, cfg.L, cfg.gamma_bar_B)
        assert np.array_equal(real.g_B, direct)
        fewer = draw_realization(make_cfg(M=2), 11)
        assert np.array_equal(real.g_B, fewer.g_B)
        assert np.array_equal(real.G_M[:, :2], fewer.G_M)

    def test_negative_trial_rejected(self):
        with pytest.raises(ValueError):
            draw_realization(make_cfg(), -1)

    def test_embb_norm_mean(self):
        # E ||g_B||^2 = L * gamma_bar_B within Monte Carlo tolerance
        cfg = make_cfg(L=4, gamma_bar_B=100.0, trials=20_000)
        total = sum(
            np.sum(np.abs(draw_realization(cfg, t).g_B) ** 2) for t in range(20_000)
        )
        mean = total / 20_000
        se = 100.0 * np.sqrt(cfg.L / 20_000)  # std of ||g||^2 = gamma * sqrt(L)
        assert abs(mean - 400.0) < 3 * se

    def test_per_entry_variance(self):
        cfg = make_cfg(L=8, M=4, trials=4000)
        sq = np.array(
            [np.abs(draw_realization(cfg, t).G_M) ** 2 for t in range(4000)]
        )
        n = sq.size
        mean = sq.mean()
        se = cfg.gamma_bar_M / np.sqrt(n)  # |entry|^2 is Exp(gamma_bar_M)
        assert abs(mean - cfg.gamma_bar_M) < 3 * se

    def test_column_cross_correlation_near_zero(self):
        cfg = make_cfg(L=4, M=2, trials=8000)
        inner = np.empty(8000, dtype=complex)
        for t in range(8000):
            G = draw_realization(cfg, t).G_M
            inner[t] = np.vdot(G[:, 0], G[:, 1])
        mean = inner.mean()
        se = np.sqrt((inner.real.var() + inner.imag.var()) / 8000)
        assert abs(mean) < 5 * se
