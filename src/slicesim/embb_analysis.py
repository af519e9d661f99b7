"""Closed-form eMBB analysis for the interference-free (orthogonal) case.

The eMBB transmitter knows its channel and uses truncated power inversion:
it transmits at power gamma_tar / gamma_B whenever the instantaneous MRC
SNR gamma_B = ||g_B||^2 clears a threshold gamma_min, and stays silent
otherwise. Since gamma_B is gamma-distributed with integer shape L and
scale gamma_bar_B, `operating_point(cfg)` reads the whole operating point
of a `SystemConfig` from incomplete-gamma expressions:

    threshold   gamma_min = gamma_bar_B * P^{-1}(L, eps_B)
    activation  a_B   = Q(L, gamma_min / gamma_bar_B)
    target SNR  gamma_tar = gamma_bar_B * (L-1)! / Gamma(L-1, gamma_min / gamma_bar_B)
    outage rate r_B_out   = log2(1 + gamma_tar)

where P^{-1} inverts the regularized lower incomplete gamma in x
(`scipy.special.gammaincinv`), Q is the regularized upper one (`gammaincc`),
and Gamma(a, x) = (a-1)! Q(a, x) for a >= 1, so for L >= 2 the target SNR is
gamma_bar_B * (L-1) / Q(L-1, x), with no factorial to overflow a float at
large L. For L = 1 the target-SNR denominator is Gamma(0, x) = E1(x)
(`exp1`), finite since eps_B > 0 makes the threshold strictly positive.
`SystemConfig` checks the inputs, and a gamma_bar_B whose target SNR
overflows a double raises ValueError.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from scipy.special import exp1, gammaincc, gammaincinv

from .channel import SystemConfig

__all__ = ["EmbbOperatingPoint", "operating_point"]


@dataclass(frozen=True)
class EmbbOperatingPoint:
    """eMBB operating point: threshold SNR, target SNR under the unit
    average-power constraint, activation probability, and outage rate."""

    gamma_min: float
    gamma_tar: float
    a_B: float
    r_B_out: float


def operating_point(cfg: SystemConfig) -> EmbbOperatingPoint:
    """Threshold, activation, unit-power target SNR and outage rate of the
    broadband device at cfg's L, eps_B and gamma_bar_B."""
    L, gamma_bar_B = cfg.L, cfg.gamma_bar_B
    gamma_min = gamma_bar_B * float(gammaincinv(L, cfg.eps_B))
    x = gamma_min / gamma_bar_B
    # (L-1)! / Gamma(L-1, x): 1 / E1(x) at L = 1, else (L-1) / Q(L-1, x)
    gamma_tar = (gamma_bar_B / float(exp1(x)) if L == 1
                 else gamma_bar_B * (L - 1) / float(gammaincc(L - 1, x)))
    if not gamma_tar < math.inf:
        raise ValueError(
            f"gamma_bar_B = {gamma_bar_B} makes the target SNR overflow a double "
            f"at L = {L}, eps_B = {cfg.eps_B}"
        )
    return EmbbOperatingPoint(
        gamma_min=gamma_min,
        gamma_tar=gamma_tar,
        a_B=float(gammaincc(L, x)),
        r_B_out=math.log2(1.0 + gamma_tar),
    )
