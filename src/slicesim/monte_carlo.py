"""Monte Carlo outage estimation over independent channel realizations.

Every trial owns a keyed random stream, so estimates are bit-identical
across runs, execution orders, chunkings and worker counts, and different
operating points are compared on common random numbers (the channel draws
depend only on the scenario and seed, never on the rates under test).

The engine exploits that split: `build_trial_table` draws all realizations
once and reduces each to the per-trial statistics that the MRC-SIC
recursion actually consumes (sorted received powers, pairwise projection
magnitudes, broadband coupling terms). Evaluating an operating point is
then one comparison pass of those statistics against the rate thresholds,
with no loop over devices: milliseconds instead of a fresh simulation,
which is what makes the outer rate searches affordable.

`TrialTable.mmtc_orth_error_count` and `TrialTable.nonorth_error_counts`
are the evaluation API: they return error counts, and
`OutageEstimate.from_counts` turns a count into an estimate with its
Wilson half-width. With M = 0 the table holds only the broadband received
powers `d`, which is all the truncated-inversion analysis needs. The
per-realization decoders in `sic_decoder` are the reference; the test suite
checks exact, count-level agreement between the two routes.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .channel import SystemConfig
from .numerics import _normals_from_uniforms, keyed_uniforms

__all__ = ["OutageEstimate", "TrialTable", "build_trial_table"]

_Z95 = 1.959963984540054


def wilson_half_width(p_hat: float, n: int) -> float:
    """Half-width of the 95% Wilson score interval for a binomial proportion."""
    if n <= 0:
        raise ValueError(f"n must be positive, got {n}")
    z2 = _Z95 * _Z95
    return (_Z95 * math.sqrt(p_hat * (1.0 - p_hat) / n + z2 / (4.0 * n * n))) / (
        1.0 + z2 / n
    )


@dataclass(frozen=True)
class OutageEstimate:
    """Probability estimate with its denominator and 95% half-width.

    `trials` is the denominator of p_hat: the trial count for per-slot
    events, M * trials for per-device mMTC events.
    """

    p_hat: float
    trials: int
    half_width_95: float

    @classmethod
    def from_counts(cls, errors: int, n: int) -> "OutageEstimate":
        p = errors / n
        return cls(p_hat=p, trials=n, half_width_95=wilson_half_width(p, n))


class TrialTable:
    """Per-trial MRC-SIC statistics, all in SIC order (strongest first).

    With T trials and M devices:
      c        (T, M)  received powers ||g_m||^2, sorted descending
      interf   (T, M)  P_M * sum of |g_m^H g_m'|^2 over weaker undecoded m'
      b        (T, M)  |g_m^H g_B|^2 broadband coupling per device
      b_suffix (T, M)  P_M * sum of b over devices m.. (undecoded-set term
                       seen by a broadband attempt at position m)
      d        (T,)    broadband received power ||g_B||^2
      sigma_no_b (T, M)  MTC SINR chain without broadband interference
      prefix_min (T, M)  running minimum of sigma_no_b along the SIC order

    The (T, M) arrays are column-major (Fortran order): one device
    position's T values are contiguous. A count pass reduces along the
    short device axis of every trial, and over contiguous columns those
    reductions run as vectorized passes instead of strided short rows.
    """

    def __init__(self, cfg: SystemConfig, c, interf, b, b_suffix, d, sigma_no_b):
        self.cfg = cfg
        self.c = c
        self.interf = interf
        self.b = b
        self.b_suffix = b_suffix
        self.d = d
        self.sigma_no_b = sigma_no_b
        self.prefix_min = (
            np.minimum.accumulate(sigma_no_b, axis=1) if cfg.M else sigma_no_b
        )

    def mmtc_orth_error_count(self, r_M: float) -> int:
        """Device-slot failures, out of M * trials, under orthogonal
        stop-on-failure decoding.

        The decoded set in a trial is the longest prefix of the SIC order
        whose SINRs all reach the threshold, so the count only needs the
        running minimum of the no-broadband SINR chain.
        """
        if self.cfg.M < 1:
            raise ValueError("mMTC outage needs at least one MTC device (M >= 1)")
        if r_M < 0:
            raise ValueError(f"r_M must be nonnegative, got {r_M}")
        thr = 2.0**r_M - 1.0
        decoded = int((self.prefix_min >= thr).sum())
        return self.cfg.M * self.cfg.trials - decoded

    def nonorth_error_counts(self, r_M: float, r_B: float, gamma_tar: float):
        """(mMTC device-slot failures out of M * trials, broadband decode
        failures out of trials) under the interleaved procedure.

        The broadband device is conservatively always active: per trial it
        transmits at gamma_tar / ||g_B||^2 with no truncation, so its error
        is purely a decoding error. Requires gamma_tar > 2^r_B - 1, otherwise
        even the interference-free attempt could never succeed.
        """
        cfg = self.cfg
        if cfg.M < 1:
            raise ValueError("joint outage needs at least one MTC device (M >= 1)")
        if r_M < 0 or r_B < 0:
            raise ValueError("rates must be nonnegative")
        thr_M = 2.0**r_M - 1.0
        thr_B = 2.0**r_B - 1.0
        if not gamma_tar > thr_B:
            raise ValueError(f"gamma_tar={gamma_tar} must exceed 2^r_B - 1 = {thr_B}")
        T, M = cfg.trials, cfg.M
        P_B = gamma_tar / self.d
        sig_with_b = (cfg.P_M * self.c * self.c) / (
            self.interf + P_B[:, None] * self.b + self.c
        )
        # k: devices decoded while the broadband signal is pending, i.e. the
        # first device that fails with it pending, or M if none fails
        ok = sig_with_b >= thr_M
        k = np.where(ok.all(axis=1), M, ok.argmin(axis=1))
        # the broadband attempt at position k faces devices k.. (b_suffix);
        # at k == M it comes last, interference-free, with SNR P_B * d
        b_k = self.b_suffix[np.arange(T), np.minimum(k, M - 1)]
        embb_ok = np.where(
            k < M, P_B * self.d * self.d / (b_k + self.d) >= thr_B, P_B * self.d >= thr_B
        )
        # a rescued trial goes on from device k to the first failure of the
        # no-broadband chain; dropping P_B * b >= 0 from a denominator cannot
        # lower an SINR, so that failure is at or after k: the orthogonal count
        n_orth = (self.prefix_min >= thr_M).sum(axis=1)
        n_dec = np.where(embb_ok, n_orth, k)
        mm_err = M * T - int(n_dec.sum())
        eb_err = T - int(embb_ok.sum())
        return mm_err, eb_err


def _chunk_size(M: int) -> int:
    # keep the per-chunk (chunk, M, M) complex Gram block at most 4e6 entries
    # (64 MB); past M = 2000 one trial's Gram is larger and the chunk is one trial
    return max(1, min(16384, 4_000_000 // max(M * M, 1)))


def _table_chunk(cfg: SystemConfig, t0: int, t1: int):
    L, M = cfg.L, cfg.M
    n = t1 - t0
    U = keyed_uniforms(cfg.seed, t0, n, 2 * L * (M + 1))
    Z = _normals_from_uniforms(U)
    g_B = (Z[:, 0 : 2 * L : 2] + 1j * Z[:, 1 : 2 * L : 2]) * math.sqrt(
        cfg.gamma_bar_B / 2.0
    )
    rows = Z[:, 2 * L :].reshape(n, M, 2 * L)
    G = (rows[:, :, 0::2] + 1j * rows[:, :, 1::2]) * math.sqrt(cfg.gamma_bar_M / 2.0)
    c = np.einsum("tml,tml->tm", G, G.conj()).real
    order = np.argsort(-c, axis=1, kind="stable")
    G = np.take_along_axis(G, order[:, :, None], axis=1)
    c = np.take_along_axis(c, order, axis=1)
    cross = G @ G.conj().transpose(0, 2, 1)  # BLAS batched Gram block
    cross = cross.real**2 + cross.imag**2
    upper = np.triu(np.ones((M, M)), k=1)
    interf = cfg.P_M * np.einsum("tmn,mn->tm", cross, upper)
    xb = np.einsum("tml,tl->tm", G.conj(), g_B)
    b = xb.real**2 + xb.imag**2
    d = np.einsum("tl,tl->t", g_B, g_B.conj()).real
    b_suffix = cfg.P_M * np.cumsum(b[:, ::-1], axis=1)[:, ::-1]
    sigma_no_b = (cfg.P_M * c * c) / (interf + c)
    return c, interf, b, b_suffix, d, sigma_no_b


def build_trial_table(cfg: SystemConfig, workers: int = 1) -> TrialTable:
    """Draw all cfg.trials realizations and reduce them to SIC statistics.

    Per-trial keyed streams make the result independent of chunking and of
    `workers`, which only bounds the thread pool used across chunks. Raises
    MemoryError, before allocating, when the table plus the larger of one
    chunk's Gram block and one count pass's temporaries exceeds the machine's
    physical memory.
    """
    T, M = cfg.trials, cfg.M
    step = _chunk_size(M)
    table_bytes = T * (6 * M + 1) * 8  # six (T, M) arrays and d, float64
    gram_bytes = min(step, T) * M * M * 16
    # a `nonorth_error_counts` pass peaks at about two (T, M) float64 arrays
    eval_bytes = 2 * T * M * 8
    physical = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    if table_bytes + max(gram_bytes, eval_bytes) > physical:
        raise MemoryError(
            f"trial table of {table_bytes} bytes plus a chunk Gram of {gram_bytes} "
            f"bytes or count temporaries of {eval_bytes} bytes exceeds the "
            f"{physical} bytes of physical memory"
        )
    c = np.empty((T, M), order="F")
    interf = np.empty((T, M), order="F")
    b = np.empty((T, M), order="F")
    b_suffix = np.empty((T, M), order="F")
    d = np.empty(T)
    sigma_no_b = np.empty((T, M), order="F")
    bounds = [(t0, min(t0 + step, T)) for t0 in range(0, T, step)]

    def fill(span):
        t0, t1 = span
        out = _table_chunk(cfg, t0, t1)
        for dst, src in zip((c, interf, b, b_suffix, d, sigma_no_b), out):
            dst[t0:t1] = src

    if workers > 1 and len(bounds) > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            list(pool.map(fill, bounds))
    else:
        for span in bounds:
            fill(span)
    return TrialTable(cfg, c, interf, b, b_suffix, d, sigma_no_b)
