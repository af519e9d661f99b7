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

The rate searches of one scenario share one trial table (common random
numbers), and every search tests feasibility on exact error counts as
`errors / n <= eps`. The orthogonal MTC endpoint is read exactly from the
table: the largest rate whose outage meets eps_M follows from one order
statistic of the running-minimum SINRs, with no tolerance. The
non-orthogonal search bisects the MTC rate to RATE_TOL up to that endpoint
and the target SNR to GAMMA_REL_TOL; one predicate decides its feasibility
and that of the device-count search. The broadband error count is not monotone in the
target SNR (a strong broadband signal is decoded and removed early), so
the target-SNR bisection returns the feasible end of a bracket around one
infeasible-to-feasible crossing, which need not be the smallest feasible
value.

The device-count search needs a table per probed device count. It answers
all (r_B, mode) points of one antenna count together, so each count is
built once and only one table is alive at a time.
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
    lo = thr_B + (hi - thr_B) * 1e-9
    return (lo, hi) if lo > thr_B else None


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


def _accepted_gamma(table: TrialTable, r_B: float, r_M: float) -> Optional[float]:
    """The target SNR accepted at (r_B, r_M) on the table: the one
    `min_feasible_gamma_tar` returns, when the MTC outage at it meets eps_M;
    None when the rate pair is infeasible."""
    cfg = table.cfg
    g = min_feasible_gamma_tar(cfg, r_B, r_M, table=table)
    if g is None:
        return None
    mm_err = table.nonorth_error_counts(r_M, r_B, g)[0]
    return g if mm_err / (cfg.M * cfg.trials) <= cfg.eps_M else None


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
    outage stays within eps_M. The rate is bisected to RATE_TOL on
    [0, orthogonal endpoint + RATE_TOL]: on every trial the non-orthogonal
    decoded set is a prefix of the orthogonal one, so no rate above the
    exact orthogonal endpoint is feasible. Returns (0.0, cap SNR) when the
    admissible interval is empty (r_B at the orthogonal outage rate).
    """
    op = operating_point(cfg.L, cfg.eps_B, cfg.gamma_bar_B)
    if r_B < 0 or r_B > op.r_B_out * (1.0 + 1e-12):
        raise ValueError(f"r_B must lie in [0, r_B_out={op.r_B_out:.6f}], got {r_B}")
    table = _table_for(cfg, table)
    if _gamma_bracket(op, r_B) is None:
        return 0.0, op.gamma_tar
    # rate 0 is always feasible: every device decodes with the broadband
    # signal pending, which is then decoded interference-free
    lo, best_g = 0.0, min_feasible_gamma_tar(cfg, r_B, 0.0, table=table)
    hi = max_mmtc_rate_orth(cfg, table=table) + RATE_TOL
    while hi - lo > RATE_TOL:
        mid = 0.5 * (lo + hi)
        g = _accepted_gamma(table, r_B, mid)
        if g is None:
            hi = mid
        else:
            lo, best_g = mid, g
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


def _next_count(lo: int, hi: Optional[int]) -> Optional[int]:
    """Next device count to probe in the bracket (lo feasible, hi not; hi None
    while doubling), or None once lo and hi are adjacent."""
    if hi is None:
        return max(1, 2 * lo)
    return (lo + hi) // 2 if hi - lo > 1 else None


def _count_feasible(table: TrialTable, r_M: float, r_B: float, mode: str) -> bool:
    """Whether the table's device count meets both targets at (r_M, r_B);
    in orthogonal mode r_M is the rate during the MTC fraction of the slot."""
    if mode == "non_orthogonal":
        return _accepted_gamma(table, r_B, r_M) is not None
    cfg = table.cfg
    return table.mmtc_orth_error_count(r_M) / (cfg.M * cfg.trials) <= cfg.eps_M


def max_devices(
    cfg: SystemConfig,
    r_M: float,
    points: Sequence[Tuple[float, str]],
    *,
    workers: int = 1,
) -> List[int]:
    """Largest number of MTC devices supportable at r_M and each
    (r_B, mode) point; cfg.M is a template value and is replaced during the
    search.

    Orthogonal mode allocates the slot fraction implied by r_B and requires
    the per-device rate r_M / (1 - alpha) during the MTC fraction; a
    broadband rate at or past the outage rate leaves no time for MTC and
    yields 0. Per point, doubling from M = 1 brackets the answer, then
    binary search, assuming feasibility is monotone in the device count.
    The points share their tables: each probed count gets one table, built
    with `workers` threads, on which every point probing that count is
    answered. The table is then dropped, so one table is alive at a time.
    Each point's probes and result are those of a search on its own.
    """
    if r_M <= 0:
        raise ValueError(f"r_M must be positive, got {r_M}")
    op = operating_point(cfg.L, cfg.eps_B, cfg.gamma_bar_B)
    searches = {}  # point index -> (r_M, r_B, mode) its tables are tested at
    for i, (r_B, mode) in enumerate(points):
        if mode == "orthogonal":
            alpha = r_B / op.r_B_out
            if alpha < 1.0:
                searches[i] = (r_M / (1.0 - alpha), r_B, mode)
        elif mode == "non_orthogonal":
            if _gamma_bracket(op, r_B) is not None:
                searches[i] = (r_M, r_B, mode)
        else:
            raise ValueError(f"unknown mode {mode!r}")

    # Every point walks one probe tree (doubling, then bisection), on which
    # each count has one place. So all the points that ever probe a count are
    # waiting on it when it is first built, and no count is built twice.
    brackets = {i: [0, None] for i in searches}  # lo feasible, hi not or None
    while True:
        waiting = {}
        for i, bracket in brackets.items():
            m = _next_count(*bracket)
            if m is not None and m <= M_CAP:
                waiting.setdefault(m, []).append(i)
        if not waiting:
            break
        m = min(waiting)
        table = build_trial_table(replace(cfg, M=m), workers=workers)
        for i in waiting[m]:
            brackets[i][0 if _count_feasible(table, *searches[i]) else 1] = m
        del table  # before the next build: one table alive at a time
    result = [0] * len(points)
    for i, (lo, hi) in brackets.items():
        if hi is None:
            warnings.warn(f"device search hit the cap M = {M_CAP}")
        result[i] = lo
    return result
