"""Closed-form eMBB analysis for the interference-free (orthogonal) case.

The eMBB transmitter knows its channel and uses truncated power inversion:
it transmits at power gamma_tar / gamma_B whenever the instantaneous MRC
SNR gamma_B = ||g_B||^2 clears a threshold gamma_min, and stays silent
otherwise. Since gamma_B is gamma-distributed with integer shape L and
scale gamma_bar_B, the outage probability, the largest target SNR
compatible with a unit average-power budget, and the resulting outage
rate all reduce to incomplete-gamma expressions:

    activation  a_B   = Q(L, gamma_min / gamma_bar_B)
    threshold   gamma_min = gamma_bar_B * P^{-1}(L, eps_B)
    target SNR  gamma_tar = gamma_bar_B * (L-1)! / Gamma(L-1, gamma_min / gamma_bar_B)
    outage rate r_B_out   = log2(1 + gamma_tar)

where Q and P are the regularized upper/lower incomplete gamma functions.
For L = 1 the target-SNR denominator is Gamma(0, x) = E1(x), so the
threshold must be strictly positive there.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .numerics import (
    inv_reg_lower_gamma,
    reg_upper_incomplete_gamma,
    upper_incomplete_gamma,
)

__all__ = [
    "EmbbOperatingPoint",
    "threshold_snr",
    "activation_probability",
    "target_snr",
    "outage_rate",
    "operating_point",
]


@dataclass(frozen=True)
class EmbbOperatingPoint:
    """eMBB operating point: threshold SNR, target SNR under the unit
    average-power constraint, activation probability, and outage rate."""

    gamma_min: float
    gamma_tar: float
    a_B: float
    r_B_out: float


def threshold_snr(L: int, eps_B: float, gamma_bar_B: float) -> float:
    """Smallest instantaneous SNR at which the eMBB device transmits, chosen
    so the non-transmission probability equals eps_B."""
    if not 0.0 < eps_B < 1.0:
        raise ValueError(f"eps_B must be in (0, 1), got {eps_B}")
    if gamma_bar_B <= 0:
        raise ValueError(f"gamma_bar_B must be positive, got {gamma_bar_B}")
    return gamma_bar_B * inv_reg_lower_gamma(L, eps_B)


def activation_probability(L: int, gamma_min: float, gamma_bar_B: float) -> float:
    """Probability that ||g_B||^2 >= gamma_min, i.e. that the device transmits."""
    if gamma_min < 0:
        raise ValueError(f"gamma_min must be nonnegative, got {gamma_min}")
    if gamma_bar_B <= 0:
        raise ValueError(f"gamma_bar_B must be positive, got {gamma_bar_B}")
    return reg_upper_incomplete_gamma(L, gamma_min / gamma_bar_B)


def target_snr(L: int, gamma_min: float, gamma_bar_B: float) -> float:
    """Largest target SNR whose truncated-inversion average power is one.

    L = 1 with gamma_min = 0 is rejected: the denominator is then
    Gamma(0, 0), i.e. a divergent average power.
    """
    if gamma_min < 0:
        raise ValueError(f"gamma_min must be nonnegative, got {gamma_min}")
    if gamma_bar_B <= 0:
        raise ValueError(f"gamma_bar_B must be positive, got {gamma_bar_B}")
    denom = upper_incomplete_gamma(L - 1, gamma_min / gamma_bar_B)
    return gamma_bar_B * math.factorial(L - 1) / denom


def outage_rate(gamma_tar: float) -> float:
    """Rate delivered whenever the device transmits: log2(1 + gamma_tar)."""
    if gamma_tar <= 0:
        raise ValueError(f"gamma_tar must be positive, got {gamma_tar}")
    return math.log2(1.0 + gamma_tar)


def operating_point(L: int, eps_B: float, gamma_bar_B: float) -> EmbbOperatingPoint:
    """Full closed-form chain: threshold, activation, target SNR, outage rate."""
    gamma_min = threshold_snr(L, eps_B, gamma_bar_B)
    a_B = activation_probability(L, gamma_min, gamma_bar_B)
    gamma_tar = target_snr(L, gamma_min, gamma_bar_B)
    return EmbbOperatingPoint(
        gamma_min=gamma_min,
        gamma_tar=gamma_tar,
        a_B=a_B,
        r_B_out=outage_rate(gamma_tar),
    )
