"""Scenario configuration and per-slot Rayleigh channel realizations.

One broadband (eMBB) device and M machine-type (MTC) devices reach an
L-antenna base station. Entries of the eMBB channel vector are
CN(0, gamma_bar_B); MTC channel matrix columns are CN(0, gamma_bar_M).
Receiver noise power is normalized to one and is deliberately not a
config field; transmit-power and path-loss differences are absorbed into
the average gains. All gains are linear scale inside the package; dB
conversion happens once, at config-parse time.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .numerics import _Z_MAX, RngStream, sample_complex_gaussian

__all__ = [
    "SystemConfig",
    "ChannelRealization",
    "draw_realization",
    "db_to_linear",
]


def db_to_linear(x_db: float) -> float:
    return 10.0 ** (x_db / 10.0)


@dataclass(frozen=True)
class SystemConfig:
    """Full scenario parameterization for one coexistence experiment.

    L: receive antennas; M: connected MTC devices; gamma_bar_B / gamma_bar_M:
    average channel gains (linear); eps_B / eps_M: reliability targets;
    P_M: MTC transmit power (linear); trials: Monte Carlo budget; seed:
    base key for the per-trial random streams.
    """

    L: int
    M: int
    gamma_bar_B: float
    gamma_bar_M: float
    eps_B: float
    eps_M: float
    P_M: float = 1.0
    trials: int = 10_000
    seed: int = 0

    def __post_init__(self):
        for name in ("L", "M", "trials", "seed"):
            v = getattr(self, name)
            if isinstance(v, bool) or not isinstance(v, numbers.Integral):
                raise ValueError(f"{name} must be an integer, got {v!r}")
        if self.L < 1:
            raise ValueError(f"L must be >= 1, got {self.L}")
        if self.M < 0:
            raise ValueError(f"M must be >= 0, got {self.M}")
        for name in ("gamma_bar_B", "gamma_bar_M", "P_M"):
            v = getattr(self, name)
            if not 0 < v < math.inf:
                raise ValueError(f"{name} must be positive and finite, got {v}")
        for name in ("eps_B", "eps_M"):
            v = getattr(self, name)
            if not 0.0 < v < 1.0:
                raise ValueError(f"{name} must be in (0, 1), got {v}")
        if self.trials < 1:
            raise ValueError(f"trials must be >= 1, got {self.trials}")
        if not 0 <= self.seed < 2**64:
            raise ValueError("seed must fit in an unsigned 64-bit integer")
        # the largest statistics a trial table computes, every normal of the
        # draw at its largest magnitude: a squared channel norm is at most
        # L gamma_bar _Z_MAX^2, and an MTC interference or broadband coupling
        # sum adds M products of two such norms, scaled by P_M
        c_top = self.L * self.gamma_bar_M * _Z_MAX**2
        d_top = self.L * self.gamma_bar_B * _Z_MAX**2
        reach = self.P_M * max(self.M, 1)
        for name, top in (("gamma_bar_M", reach * c_top * c_top + c_top),
                          ("gamma_bar_B", reach * c_top * d_top + d_top)):
            if not top < math.inf:
                raise ValueError(
                    f"{name} = {getattr(self, name)} lets a trial-table statistic "
                    f"overflow a double at L = {self.L}, M = {self.M}, P_M = {self.P_M}"
                )


@dataclass(frozen=True, eq=False)
class ChannelRealization:
    """One slot's channel draw: g_B is (L,), G_M is (L, M) with column m
    the m-th MTC device's channel vector."""

    g_B: np.ndarray
    G_M: np.ndarray


def draw_realization(cfg: SystemConfig, trial_index: int) -> ChannelRealization:
    """Draw the channel realization for one trial.

    Deterministic given (cfg.seed, trial_index): each trial consumes its own
    keyed stream, eMBB vector first, then MTC columns in device order, with
    a fixed number of raw draws per entry. Trials are mutually independent,
    so any execution order or partitioning reproduces the same realizations.
    """
    if trial_index < 0:
        raise ValueError(f"trial_index must be nonnegative, got {trial_index}")
    gen = RngStream(cfg.seed, trial_index).generator()
    g_B = sample_complex_gaussian(gen, cfg.L, cfg.gamma_bar_B)
    if cfg.M == 0:
        G_M = np.zeros((cfg.L, 0), dtype=complex)
    else:
        cols = [sample_complex_gaussian(gen, cfg.L, cfg.gamma_bar_M) for _ in range(cfg.M)]
        G_M = np.column_stack(cols)
    return ChannelRealization(g_B=g_B, G_M=G_M)
