"""Numerical searches for achievable rate pairs and device counts.

Orthogonal slicing time-shares the slot: the broadband service gets a
fraction alpha at its closed-form outage rate, the MTC devices get the
rest at the largest common rate whose Monte Carlo outage stays within
eps_M, so the region is a straight line between the two single-service
endpoints.

Non-orthogonal slicing overlaps both services and needs a two-dimensional
search: for each broadband rate r_B the largest feasible MTC rate is
bisected, and each feasibility probe runs an inner search for a small
broadband target SNR that keeps the broadband decoding-error probability
within eps_B (smaller target SNR means less interference onto the MTC
devices, so the MTC constraint is checked at that value). The target SNR
is capped by the unit-average-power value of the orthogonal analysis.

All searches share one trial table (common random numbers) and test
feasibility on its exact error counts as `errors / n <= eps`. The
orthogonal MTC endpoint is read exactly from the table: the largest rate
whose outage meets eps_M follows from one order statistic of the
running-minimum SINRs, with no tolerance. The non-orthogonal search
bisects the MTC rate to RATE_TOL and the target SNR to GAMMA_REL_TOL. The
broadband error count is not monotone in the target SNR (a strong
broadband signal is decoded and removed early), so the target-SNR
bisection returns the feasible end of a bracket around one
infeasible-to-feasible crossing, which need not be the smallest feasible
value.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .channel import SystemConfig
from .embb_analysis import EmbbOperatingPoint, operating_point
from .monte_carlo import TrialTable, build_trial_table

__all__ = [
    "RatePoint",
    "max_mmtc_rate_orth",
    "orthogonal_region",
    "min_feasible_gamma_tar",
    "max_mmtc_rate_nonorth",
    "nonorthogonal_region",
    "max_devices",
]

RATE_TOL = 0.01  # bits/s/Hz, below the plot resolution of the target figures
GAMMA_REL_TOL = 0.01
RATE_CAP = 64.0
M_CAP = 4096  # largest device count `max_devices` probes


@dataclass(frozen=True)
class RatePoint:
    """An achievable (r_B, r_M) pair with its operating point: the
    time-sharing fraction for orthogonal points, the accepted broadband
    target SNR for non-orthogonal ones."""

    r_B: float
    r_M: float
    mode: str  # "orthogonal" | "non_orthogonal"
    alpha: Optional[float] = None
    gamma_tar: Optional[float] = None


def _table_for(cfg: SystemConfig, table: Optional[TrialTable]) -> TrialTable:
    """The given table, checked against cfg, or a new one-worker build."""
    if table is None:
        return build_trial_table(cfg)
    if table.cfg != cfg:
        raise ValueError("trial table was built for a different configuration")
    return table


def max_mmtc_rate_orth(
    cfg: SystemConfig,
    *,
    table: Optional[TrialTable] = None,
    r_cap: float = RATE_CAP,
) -> float:
    """Largest common MTC rate meeting the eps_M outage target without
    broadband interference, read exactly from the trial table.

    A device-slot decodes at rate r iff its running-minimum SINR
    (`prefix_min`) reaches 2^r - 1. With K the fewest decoded device-slots
    whose error fraction stays within eps_M, rate r is feasible iff
    2^r - 1 is at most the K-th largest `prefix_min` entry. The result is
    the largest double with that property: it is feasible and the next
    double is not. Returns r_cap, with a warning, when r_cap is feasible.
    """
    if cfg.M < 1:
        raise ValueError("mMTC rate search needs M >= 1")
    table = _table_for(cfg, table)
    n = cfg.M * cfg.trials
    if table.mmtc_orth_error_count(r_cap) / n <= cfg.eps_M:
        warnings.warn(
            f"mMTC rate search hit the cap {r_cap} bits/s/Hz; "
            "the outage constraint appears non-binding"
        )
        return r_cap
    errors = int(cfg.eps_M * n)  # largest error count with errors / n <= eps_M
    while (errors + 1) / n <= cfg.eps_M:
        errors += 1
    while errors / n > cfg.eps_M:
        errors -= 1
    k = n - errors  # >= 1, since r_cap is infeasible
    thr = float(np.partition(table.prefix_min.ravel(), n - k)[n - k])
    # 0 is feasible and r_cap is not; halve until the two are adjacent doubles
    lo, hi = 0.0, r_cap
    while lo < (mid := 0.5 * (lo + hi)) < hi:
        if 2.0**mid - 1.0 <= thr:
            lo = mid
        else:
            hi = mid
    return lo


def orthogonal_region(
    cfg: SystemConfig,
    alpha_grid: Sequence[float],
    *,
    table: Optional[TrialTable] = None,
    r_M_out: Optional[float] = None,
) -> List[RatePoint]:
    """Time-sharing line: alpha -> (alpha * r_B_out, (1 - alpha) * r_M_out)."""
    alphas = list(alpha_grid)
    if not alphas:
        raise ValueError("alpha_grid must not be empty")
    if any(not 0.0 <= a <= 1.0 for a in alphas):
        raise ValueError("alpha_grid values must lie in [0, 1]")
    op = operating_point(cfg.L, cfg.eps_B, cfg.gamma_bar_B)
    if r_M_out is None:
        r_M_out = max_mmtc_rate_orth(cfg, table=table)
    return [
        RatePoint(
            r_B=a * op.r_B_out,
            r_M=(1.0 - a) * r_M_out,
            mode="orthogonal",
            alpha=a,
        )
        for a in alphas
    ]


def _gamma_bracket(op: EmbbOperatingPoint, r_B: float) -> Optional[Tuple[float, float]]:
    """Admissible target-SNR interval (open below at 2^r_B - 1, capped by the
    unit-average-power bound); None when it is empty."""
    thr_B = 2.0**r_B - 1.0
    hi = op.gamma_tar
    if hi <= thr_B * (1.0 + 1e-12) + 1e-300:
        return None
    lo = thr_B + (hi - thr_B) * 1e-9
    return lo, hi


def min_feasible_gamma_tar(
    cfg: SystemConfig,
    r_B: float,
    r_M: float,
    *,
    table: Optional[TrialTable] = None,
) -> Optional[float]:
    """Small target SNR whose broadband error probability meets eps_B at the
    given rate pair; None if neither end of the admissible interval does.

    Returns the lower end when it is feasible. Otherwise the upper end must
    be, and the interval is bisected geometrically to GAMMA_REL_TOL; the
    feasible end of the final bracket is returned.
    """
    op = operating_point(cfg.L, cfg.eps_B, cfg.gamma_bar_B)
    bracket = _gamma_bracket(op, r_B)
    if bracket is None:
        return None
    lo, hi = bracket
    table = _table_for(cfg, table)

    def embb_ok(g: float) -> bool:
        return table.nonorth_error_counts(r_M, r_B, g)[1] / cfg.trials <= cfg.eps_B

    if embb_ok(lo):
        return lo
    if not embb_ok(hi):
        return None
    while hi / lo > 1.0 + GAMMA_REL_TOL:
        mid = float(np.sqrt(lo * hi))
        if embb_ok(mid):
            hi = mid
        else:
            lo = mid
    return hi


def max_mmtc_rate_nonorth(
    cfg: SystemConfig,
    r_B: float,
    *,
    table: Optional[TrialTable] = None,
) -> Tuple[float, float]:
    """Largest MTC rate feasible under non-orthogonal slicing at broadband
    rate r_B, together with the accepted broadband target SNR.

    A rate is feasible when `min_feasible_gamma_tar` finds a target SNR
    keeping the broadband error within eps_B and, at that SNR, the MTC
    outage stays within eps_M. The rate is bisected to RATE_TOL from the
    orthogonal endpoint plus RATE_TOL. Returns (0.0, cap SNR) when the
    admissible interval is empty (r_B at the orthogonal outage rate).
    """
    op = operating_point(cfg.L, cfg.eps_B, cfg.gamma_bar_B)
    if r_B < 0 or r_B > op.r_B_out * (1.0 + 1e-12):
        raise ValueError(f"r_B must lie in [0, r_B_out={op.r_B_out:.6f}], got {r_B}")
    table = _table_for(cfg, table)
    if _gamma_bracket(op, r_B) is None:
        return 0.0, op.gamma_tar

    def probe(r: float) -> Tuple[bool, Optional[float]]:
        g = min_feasible_gamma_tar(cfg, r_B, r, table=table)
        if g is None:
            return False, None
        mm_err = table.nonorth_error_counts(r, r_B, g)[0]
        return mm_err / (cfg.M * cfg.trials) <= cfg.eps_M, g

    ok0, g0 = probe(0.0)
    if not ok0:
        # unreachable analytically (rate zero never fails); keep the floor
        return 0.0, g0 if g0 is not None else op.gamma_tar
    best_r, best_g = 0.0, g0
    hi = max(max_mmtc_rate_orth(cfg, table=table) + RATE_TOL, RATE_TOL)
    ok_hi, g_hi = probe(hi)
    while ok_hi:
        best_r, best_g = hi, g_hi
        hi *= 2.0
        if hi > RATE_CAP:
            warnings.warn("non-orthogonal mMTC rate search hit the rate cap")
            return best_r, best_g
        ok_hi, g_hi = probe(hi)
    lo = best_r
    while hi - lo > RATE_TOL:
        mid = 0.5 * (lo + hi)
        ok, g = probe(mid)
        if ok:
            lo, best_g = mid, g
        else:
            hi = mid
    return lo, best_g


def nonorthogonal_region(
    cfg: SystemConfig,
    r_B_grid: Optional[Sequence[float]] = None,
    *,
    n_points: int = 41,
    table: Optional[TrialTable] = None,
) -> List[RatePoint]:
    """Sweep the broadband rate over [0, r_B_out] (default: n_points evenly
    spaced values) and search the largest MTC rate at each point."""
    if r_B_grid is None:
        op = operating_point(cfg.L, cfg.eps_B, cfg.gamma_bar_B)
        r_B_grid = np.linspace(0.0, op.r_B_out, n_points)
    grid = [float(r) for r in r_B_grid]
    if not grid:
        raise ValueError("r_B_grid must not be empty")
    table = _table_for(cfg, table)
    points = []
    for r_B in grid:
        r_M, gamma = max_mmtc_rate_nonorth(cfg, r_B, table=table)
        points.append(
            RatePoint(r_B=r_B, r_M=r_M, mode="non_orthogonal", gamma_tar=gamma)
        )
    return points


def max_devices(
    cfg: SystemConfig,
    r_M: float,
    r_B: float,
    mode: str,
    *,
    workers: int = 1,
) -> int:
    """Largest number of MTC devices supportable at (r_M, r_B) in the given
    mode; cfg.M is a template value and is replaced during the search.

    Orthogonal mode allocates the slot fraction implied by r_B and requires
    the per-device rate r_M / (1 - alpha) during the MTC fraction; a
    broadband rate at or past the outage rate leaves no time for MTC and
    yields 0. Geometric growth brackets the answer, then binary search,
    assuming feasibility is monotone in the device count. Each probed count
    gets its own trial table, built with `workers` threads.
    """
    if r_M <= 0:
        raise ValueError(f"r_M must be positive, got {r_M}")
    op = operating_point(cfg.L, cfg.eps_B, cfg.gamma_bar_B)
    if mode == "orthogonal":
        alpha = r_B / op.r_B_out
        if alpha >= 1.0:
            return 0
        required = r_M / (1.0 - alpha)
    elif mode == "non_orthogonal":
        if _gamma_bracket(op, r_B) is None:
            return 0
    else:
        raise ValueError(f"unknown mode {mode!r}")

    def feasible(m: int) -> bool:
        table = build_trial_table(replace(cfg, M=m), workers=workers)
        if mode == "orthogonal":
            errors = table.mmtc_orth_error_count(required)
        else:
            g = min_feasible_gamma_tar(table.cfg, r_B, r_M, table=table)
            if g is None:
                return False
            errors = table.nonorth_error_counts(r_M, r_B, g)[0]
        return errors / (m * cfg.trials) <= cfg.eps_M

    if not feasible(1):
        return 0
    lo, hi = 1, 2
    while hi <= M_CAP and feasible(hi):
        lo = hi
        hi *= 2
    if hi > M_CAP:
        warnings.warn(f"device search hit the cap M = {M_CAP}")
        return lo
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if feasible(mid):
            lo = mid
        else:
            hi = mid
    return lo
