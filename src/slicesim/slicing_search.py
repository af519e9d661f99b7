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

Every rate search takes the trial table it searches, which carries its
configuration; the rate searches of one scenario share that table
(common random numbers). Each feasibility rule is spelled once: a rate r
decodes iff its SINR reaches `channel.rate_threshold(r)`, 2^r - 1, and an
exact error count out of n meets eps iff it is at most `_error_budget(n,
eps)`, the largest count with `errors / n <= eps`. The orthogonal MTC
target is read exactly from the table, with no tolerance: a rate meets
eps_M iff its threshold is at most one order statistic of the
running-minimum SINRs, so iff it is at most the orthogonal endpoint
(`max_mmtc_rate_orth`), the largest such rate. The caller computes the
endpoint once per table and hands it to the non-orthogonal search as its
rate ceiling. That search bisects the MTC rate to RATE_TOL up to the ceiling
and the target SNR to GAMMA_REL_TOL, within a bracket fixed once per r_B;
one target-SNR search (`_gamma_search`) decides its feasibility and that
of the device-count search. The broadband error count is not monotone in the
target SNR (a strong broadband signal is decoded and removed early), so
the target-SNR bisection returns the feasible end of a bracket around
one infeasible-to-feasible crossing, which need not be the smallest
feasible value. The count that accepts a target SNR also gives the MTC
error count checked against eps_M, and the search returns that count
with the rate.

Every count is `TrialTable.nonorth_error_counts(mtc, r_B, gamma)`, which
compares per-trial target-SNR thresholds (`monte_carlo`): the MTC ones,
mtc, which carry the orthogonal decoded count at the same rate, depend
only on the MTC rate, and the count pass reads the broadband one from the
table at each trial's decoded count, at broadband rate r_B. All r_B
points of a table bisect the same rate bracket, so they walk one tree of
rates: the rate search answers them together, level by level, and
builds each probed rate's MTC thresholds once for every point waiting on
it, one rate's at a time. It counts each probed target SNR with one
comparison pass against them. Rate 0 is not probed: there every device
decodes before the broadband signal, which then decodes interference-free,
so the lower end of the target-SNR bracket is accepted with no error. The
device-count search, whose points share r_M, builds the MTC thresholds once
per table it probes. Whatever owns a rate builds its thresholds and hands
them to the target-SNR search.

The searches return plain values, as tuples of rates, target SNRs and
error counts, which the caller formats.

The device-count search needs a table per probed device count. It answers
all (r_B, mode) points of one antenna count together, so each count is
built once and only one table is alive at a time; its orthogonal points
all compare their rates with the table's one orthogonal endpoint. Beside
it the search holds one draw, that of the widest count probed so far,
capped at `monte_carlo._HELD_BUDGET` bytes: a device count's draw is a
column prefix of a larger count's, so a build no wider than the held draw
reads its held trials instead of drawing them, and only the doubling
phase, which widens it, draws them anew.
"""

from __future__ import annotations

import warnings
from dataclasses import replace
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .channel import SystemConfig, rate_threshold
from .embb_analysis import EmbbOperatingPoint, operating_point
from .monte_carlo import HeldDraw, TrialTable, build_trial_table

__all__ = [
    "max_mmtc_rate_orth",
    "orthogonal_region",
    "min_feasible_gamma_tar",
    "max_mmtc_rate_nonorth",
    "nonorthogonal_region",
    "max_devices",
]

RATE_TOL = 0.01  # bits/s/Hz, below the plot resolution of the target figures
GAMMA_REL_TOL = 0.01
GAMMA_LO_FRACTION = 1e-9  # the bracket's lower end, as a fraction of the way to the cap
M_CAP = 4096  # largest device count `max_devices` probes

Counts = Tuple[int, int]  # `TrialTable.nonorth_error_counts`: (MTC, broadband)
MtcThresholds = Tuple[np.ndarray, np.ndarray]  # `TrialTable.mmtc_thresholds`: (U, orth_decoded)


def _error_budget(n: int, eps: float) -> int:
    """The largest error count e out of n with e / n <= eps: a count meets
    the target eps iff it is at most this. e / n is nondecreasing in e, so
    the counts that meet it are 0..e."""
    errors = int(eps * n)
    while (errors + 1) / n <= eps:
        errors += 1
    while errors / n > eps:
        errors -= 1
    return errors


def max_mmtc_rate_orth(table: TrialTable) -> float:
    """Largest common MTC rate meeting the eps_M outage target without
    broadband interference, read exactly from the trial table: the largest
    double whose threshold meets it, so it is feasible and the next double
    is not. `rate_threshold` is nondecreasing, so a rate is feasible iff it
    is at most the result.

    A device-slot decodes at rate r iff its running-minimum SINR
    (`prefix_min`) reaches `rate_threshold(r)`, so a threshold is met iff at
    most e entries, the error budget of the M * trials device-slots, fall
    below it: iff it is at most the (e + 1)-th smallest entry.
    """
    if table.cfg.M < 1:
        raise ValueError("mMTC rate search needs M >= 1")
    # order "K" reads the column-major table as it lies, without a copy
    flat = table.prefix_min.ravel(order="K")
    errors = _error_budget(flat.size, table.cfg.eps_M)  # < flat.size, since eps_M < 1
    thr = float(np.partition(flat, errors)[errors])
    # rate 0 is feasible, its threshold 0 being at most any SINR, and 1024 is
    # not, its threshold +inf being above any (`SystemConfig` keeps them
    # finite); halve until the two are adjacent doubles. No log2 inverse:
    # 2^r - 1 rounds to 0 for every r below about 1.6e-16
    lo, hi = 0.0, 1024.0
    while lo < (mid := 0.5 * (lo + hi)) < hi:
        if rate_threshold(mid) <= thr:
            lo = mid
        else:
            hi = mid
    return lo


def orthogonal_region(
    cfg: SystemConfig, alpha_grid: Sequence[float], r_M_out: float
) -> List[Tuple[float, float]]:
    """Time-sharing line: (r_B, r_M) = (alpha * r_B_out, (1 - alpha) *
    r_M_out) per alpha, with r_M_out the orthogonal MTC endpoint
    (`max_mmtc_rate_orth`)."""
    alphas = list(alpha_grid)
    if not alphas:
        raise ValueError("alpha_grid must not be empty")
    if any(not 0.0 <= a <= 1.0 for a in alphas):
        raise ValueError("alpha_grid values must lie in [0, 1]")
    r_B_out = operating_point(cfg).r_B_out
    return [(a * r_B_out, (1.0 - a) * r_M_out) for a in alphas]


def _gamma_bracket(op: EmbbOperatingPoint, r_B: float) -> Optional[Tuple[float, float]]:
    """Admissible target-SNR interval (open below at 2^r_B - 1, capped by the
    unit-average-power bound); None when it is empty."""
    thr_B = rate_threshold(r_B)
    hi = op.gamma_tar
    lo = thr_B + (hi - thr_B) * GAMMA_LO_FRACTION
    return (lo, hi) if lo > thr_B else None


def min_feasible_gamma_tar(cfg: SystemConfig, r_B: float, r_M: float) -> Optional[float]:
    """Small target SNR whose broadband error probability meets eps_B at the
    given rate pair, searched on a one-worker table built for cfg; None if
    neither end of the admissible interval meets it. The search is
    `_gamma_search` with no MTC budget: every MTC count passes.
    """
    rate_threshold(r_M)  # a bad MTC rate raises before the build, as r_B does below
    bracket = _gamma_bracket(operating_point(cfg), r_B)
    if bracket is None:
        return None
    table = build_trial_table(cfg)
    found = _gamma_search(table, bracket, r_B, table.mmtc_thresholds(r_M), cfg.M * cfg.trials)
    return None if found is None else found[0]


def _gamma_search(
    table: TrialTable, bracket: Tuple[float, float], r_B: float, mtc: MtcThresholds,
    mtc_budget: int,
) -> Optional[Tuple[float, Counts]]:
    """(target SNR, the `nonorth_error_counts` at it) accepted on the table,
    or None when the rate pair is infeasible.

    Searches the nonempty admissible interval `bracket` of broadband rate
    r_B, with mtc the table's `mmtc_thresholds` at its r_M. The lower end
    is taken when its broadband errors meet eps_B, as they do at r_M = 0,
    which the rate search therefore does not probe. Otherwise the upper end
    must meet it, and the interval is bisected geometrically to
    GAMMA_REL_TOL; the feasible end of the final bracket is taken. The
    target SNR is accepted when the MTC errors of its count are at most
    mtc_budget. Every probed target SNR is one `nonorth_error_counts(mtc,
    r_B, gamma)` pass.
    """
    cfg = table.cfg
    embb_budget = _error_budget(cfg.trials, cfg.eps_B)

    def counts(g: float) -> Counts:
        return table.nonorth_error_counts(mtc, r_B, g)

    lo, hi = bracket
    at_lo = counts(lo)
    if at_lo[1] <= embb_budget:
        hi, at_hi = lo, at_lo
    else:
        at_hi = counts(hi)
        if at_hi[1] > embb_budget:
            return None
        while hi / lo > 1.0 + GAMMA_REL_TOL:
            mid = float(np.sqrt(lo * hi))
            at_mid = counts(mid)
            if at_mid[1] <= embb_budget:
                hi, at_hi = mid, at_mid
            else:
                lo = mid
    return (hi, at_hi) if at_hi[0] <= mtc_budget else None


def max_mmtc_rate_nonorth(
    table: TrialTable, r_B: float, r_M_out: float
) -> Tuple[float, float, Optional[Counts]]:
    """Largest MTC rate feasible under non-orthogonal slicing at broadband
    rate r_B: (rate, accepted broadband target SNR, the
    `nonorth_error_counts` of the count that accepted the pair).

    A rate is feasible when the target-SNR search finds a target SNR
    keeping the broadband error within eps_B and, at that SNR, the MTC
    outage stays within eps_M. The rate is bisected to RATE_TOL on
    [0, r_M_out + RATE_TOL], with r_M_out the table's orthogonal endpoint
    (`max_mmtc_rate_orth`): on every trial the non-orthogonal decoded set
    is a prefix of the orthogonal one, so no rate above it is feasible.
    Returns (0.0, cap SNR, None) when the admissible interval is empty
    (r_B at the orthogonal outage rate). This is `nonorthogonal_region` at
    one point.
    """
    return nonorthogonal_region(table, (r_B,), r_M_out)[0][1:]


def nonorthogonal_region(
    table: TrialTable, r_B_grid: Sequence[float], r_M_out: float
) -> List[Tuple[float, float, float, Optional[Counts]]]:
    """(r_B, r_M, gamma_tar, counts) at each broadband rate of the grid: the
    largest MTC rate searched on the table below its orthogonal endpoint
    r_M_out, with the rest of `max_mmtc_rate_nonorth`'s result.

    Every point bisects the same rate bracket, so the points walk one tree
    of rates, on which each rate has one place, and a level of the walk
    holds each point's next probe. The points are answered together, level
    by level: the MTC thresholds of each distinct rate of a level are built
    once and freed before the next rate's, and every point waiting on that
    rate runs its target-SNR search on them. Each point's probes and result
    are those of a search on its own.
    """
    grid = [float(r) for r in r_B_grid]
    if not grid:
        raise ValueError("r_B_grid must not be empty")
    cfg = table.cfg
    op = operating_point(cfg)
    for r_B in grid:
        if not 0 <= r_B <= op.r_B_out * (1.0 + 1e-12):
            raise ValueError(f"r_B must lie in [0, r_B_out={op.r_B_out:.6f}], got {r_B}")
    if not r_M_out >= 0:
        raise ValueError(f"r_M_out must be nonnegative, got {r_M_out}")
    budget = _error_budget(cfg.M * cfg.trials, cfg.eps_M)
    # each distinct r_B with a nonempty target-SNR bracket -> the bracket;
    # equal grid points share one search
    searches = {}
    for r_B in grid:
        gammas = _gamma_bracket(op, r_B)
        if gammas is not None:
            searches[r_B] = gammas
    # per search, [lo, hi] with rate lo feasible and hi not, and the (target
    # SNR, counts) that accepted lo. Rate 0 needs no probe: every device
    # decodes with the broadband signal pending, which is then decoded
    # interference-free, so the bracket's lower end meets both targets with no
    # error
    rates = {r_B: [0.0, r_M_out + RATE_TOL] for r_B in searches}
    best = {r_B: (gammas[0], (0, 0)) for r_B, gammas in searches.items()}
    while True:
        waiting = {}
        for r_B, (lo, hi) in rates.items():
            if hi - lo > RATE_TOL:
                waiting.setdefault(0.5 * (lo + hi), []).append(r_B)
        if not waiting:
            break
        for mid, points in waiting.items():
            mtc = table.mmtc_thresholds(mid)
            for r_B in points:
                found = _gamma_search(table, searches[r_B], r_B, mtc, budget)
                if found is None:
                    rates[r_B][1] = mid
                else:
                    rates[r_B][0], best[r_B] = mid, found
            del mtc  # before the next rate's: one set of MTC thresholds alive
    return [
        (r_B, rates[r_B][0], *best[r_B]) if r_B in searches else (r_B, 0.0, op.gamma_tar, None)
        for r_B in grid
    ]


def _next_count(lo: int, hi: Optional[int]) -> Optional[int]:
    """Next device count to probe in the bracket (lo feasible, hi not; hi None
    while doubling), or None once lo and hi are adjacent."""
    if hi is None:
        return max(1, 2 * lo)
    return (lo + hi) // 2 if hi - lo > 1 else None


def max_devices(
    cfg: SystemConfig,
    r_M: float,
    points: Sequence[Tuple[float, str]],
    *,
    workers: int = 1,
) -> List[int]:
    """Largest number of MTC devices supportable at r_M and each
    (r_B, mode) point, with mode "orth" or "nonorth" as the CLI spells it;
    cfg.M is a template value and is replaced during the search.

    Orthogonal mode allocates the slot fraction implied by r_B and requires
    the per-device rate r_M / (1 - alpha) during the MTC fraction, which a
    count supports iff it is at most the table's orthogonal endpoint
    (`max_mmtc_rate_orth`, below 1024 bits/s/Hz); a broadband rate at or
    past the outage rate leaves no time for MTC and yields 0. Per point,
    doubling from M = 1 brackets the answer, then binary search, assuming
    feasibility is monotone in the device count.
    The points share their tables: each probed count gets one table, built
    with `workers` threads, on which every point probing that count is
    answered. The table is then dropped, so one table is alive at a time.
    Beside it one `HeldDraw` is alive: the draw of the widest count probed
    so far, whose column prefix each narrower count's table is reduced
    from. Each point's probes and result are those of a search on its own.
    """
    if not r_M > 0:
        raise ValueError(f"r_M must be positive, got {r_M}")
    op = operating_point(cfg)
    # point index -> (r_M, r_B, target-SNR bracket) its tables are tested at;
    # the bracket is None in orthogonal mode, where r_M is the rate during the
    # MTC fraction of the slot
    searches = {}
    for i, (r_B, mode) in enumerate(points):
        if not r_B >= 0:
            raise ValueError(f"r_B must be nonnegative, got {r_B}")
        if mode == "orth":
            alpha = r_B / op.r_B_out
            if alpha < 1.0:
                searches[i] = (r_M / (1.0 - alpha), r_B, None)
        elif mode == "nonorth":
            gammas = _gamma_bracket(op, r_B)
            if gammas is not None:
                searches[i] = (r_M, r_B, gammas)
        else:
            raise ValueError(f"unknown mode {mode!r}")

    # Every point walks one probe tree (doubling, then bisection), on which
    # each count has one place. So all the points that ever probe a count are
    # waiting on it when it is first built, and no count is built twice.
    brackets = {i: [0, None] for i in searches}  # lo feasible, hi not or None
    held = HeldDraw(cfg.seed)  # redrawn only while doubling widens it
    while True:
        waiting = {}
        for i, bracket in brackets.items():
            m = _next_count(*bracket)
            if m is not None and m <= M_CAP:
                waiting.setdefault(m, []).append(i)
        if not waiting:
            break
        m = min(waiting)
        table = build_trial_table(replace(cfg, M=m), workers=workers, held=held)
        budget = _error_budget(m * cfg.trials, cfg.eps_M)
        # the orthogonal endpoint and the MTC thresholds at r_M, each shared
        # by the points of its mode
        r_orth = mtc = None
        for i in waiting[m]:
            r_M_i, r_B, gammas = searches[i]
            if gammas is None:
                if r_orth is None:
                    r_orth = max_mmtc_rate_orth(table)
                ok = r_M_i <= r_orth
            else:
                if mtc is None:
                    mtc = table.mmtc_thresholds(r_M)
                ok = _gamma_search(table, gammas, r_B, mtc, budget) is not None
            brackets[i][0 if ok else 1] = m
        del table, mtc  # before the next build: one table and its thresholds alive
    result = [0] * len(points)
    for i, (lo, hi) in brackets.items():
        if hi is None:
            warnings.warn(f"device search hit the cap M = {M_CAP}")
        result[i] = lo
    return result
