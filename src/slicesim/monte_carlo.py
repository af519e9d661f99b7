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

An antenna sweep shares one draw as well. An L-antenna table reads the
first 2L(M+1) uniforms of each trial's stream, so its draw is a column
prefix of the draw of any wider table with the same M. `build_trial_tables`
draws each chunk of trials once, at the widest L of the sweep, and reduces
every L's table from its column prefix; `build_trial_table` is the sweep
of one antenna count.

`TrialTable.mmtc_orth_error_count` and `TrialTable.nonorth_error_counts`
are the evaluation API: they return error counts, whose estimate is
errors / n with `wilson_half_width` for its 95% interval. With M = 0 the
table holds only the broadband received powers `d`, which is all the
truncated-inversion analysis needs. The per-realization decoders in
`sic_decoder` are the reference; the test suite checks exact,
count-level agreement between the two routes.

A non-orthogonal count is split in two. `TrialTable.nonorth_pass(r_B,
gamma_tar)` decodes once per broadband operating point and keeps per-trial
thresholds: the running minimum of the device SINRs with the broadband
signal pending, and whether the broadband attempt succeeds after each
number of decoded devices. Its `NonorthPass.counts(r_M)` is then one
comparison pass per MTC rate, so a search that probes many MTC rates at
one target SNR decodes it once.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace
from typing import List, Optional, Sequence

import numpy as np

from .channel import SystemConfig
from .numerics import _normals_from_uniforms, keyed_uniforms

__all__ = [
    "wilson_half_width", "TrialTable", "NonorthPass", "build_trial_table",
    "build_trial_tables",
]

_Z95 = 1.959963984540054


def wilson_half_width(p_hat: float, n: int) -> float:
    """Half-width of the 95% Wilson score interval for a binomial proportion."""
    if n <= 0:
        raise ValueError(f"n must be positive, got {n}")
    z2 = _Z95 * _Z95
    return (_Z95 * math.sqrt(p_hat * (1.0 - p_hat) / n + z2 / (4.0 * n * n))) / (
        1.0 + z2 / n
    )


class TrialTable:
    """Per-trial MRC-SIC statistics, all in SIC order (strongest first).

    With T trials and M devices:
      c        (T, M)  received powers ||g_m||^2, sorted descending
      interf   (T, M)  P_M * sum of |g_m^H g_m'|^2 over weaker undecoded m'
      b        (T, M)  |g_m^H g_B|^2 broadband coupling per device
      b_suffix (T, M)  P_M * sum of b over devices m.. (undecoded-set term
                       seen by a broadband attempt at position m)
      d        (T,)    broadband received power ||g_B||^2
      prefix_min (T, M)  running minimum of the MTC SINR chain without
                       broadband interference, P_M c^2 / (interf + c)

    The (T, M) arrays are column-major (Fortran order): one device
    position's T values are contiguous. A count pass reduces along the
    short device axis of every trial, and over contiguous columns those
    reductions run as vectorized passes instead of strided short rows.
    """

    def __init__(self, cfg: SystemConfig, c, interf, b, b_suffix, d, prefix_min):
        self.cfg = cfg
        self.c = c
        self.interf = interf
        self.b = b
        self.b_suffix = b_suffix
        self.d = d
        self.prefix_min = prefix_min

    def orth_decoded(self, r_M: float) -> np.ndarray:
        """Per trial, the devices decoded at rate r_M under orthogonal
        stop-on-failure decoding: the longest prefix of the SIC order whose
        SINRs all reach the threshold, read from the running minimum of the
        no-broadband SINR chain."""
        if self.cfg.M < 1:
            raise ValueError("mMTC outage needs at least one MTC device (M >= 1)")
        if r_M < 0:
            raise ValueError(f"r_M must be nonnegative, got {r_M}")
        return (self.prefix_min >= 2.0**r_M - 1.0).sum(axis=1)

    def mmtc_orth_error_count(self, r_M: float) -> int:
        """Device-slot failures, out of M * trials, under orthogonal
        stop-on-failure decoding."""
        return self.cfg.M * self.cfg.trials - int(self.orth_decoded(r_M).sum())

    def nonorth_pass(self, r_B: float, gamma_tar: float) -> "NonorthPass":
        """The interleaved procedure decoded at (r_B, gamma_tar) for every
        MTC rate at once.

        The broadband device is conservatively always active: per trial it
        transmits at gamma_tar / ||g_B||^2 with no truncation, so its error
        is purely a decoding error. Requires gamma_tar > 2^r_B - 1, otherwise
        even the interference-free attempt could never succeed.
        """
        cfg = self.cfg
        if cfg.M < 1:
            raise ValueError("joint outage needs at least one MTC device (M >= 1)")
        if r_B < 0:
            raise ValueError("rates must be nonnegative")
        thr_B = 2.0**r_B - 1.0
        if not gamma_tar > thr_B:
            raise ValueError(f"gamma_tar={gamma_tar} must exceed 2^r_B - 1 = {thr_B}")
        M = cfg.M
        P_B = gamma_tar / self.d
        # device SINRs with the broadband signal pending, P_M c^2 / (interf +
        # P_B b + c), then their running minimum along the SIC order
        den = P_B[:, None] * self.b
        den += self.interf
        den += self.c
        runmin = np.multiply(cfg.P_M, self.c, order="F")
        runmin *= self.c
        runmin /= den
        for m in range(1, M):
            np.minimum(runmin[:, m - 1], runmin[:, m], out=runmin[:, m])
        # the broadband attempt at position k < M faces devices k.. (b_suffix);
        # at k == M it comes last, interference-free, with SNR P_B * d
        embb_ok_at = np.empty((cfg.trials, M + 1), dtype=bool, order="F")
        sinr = np.add(self.b_suffix, self.d[:, None], out=den)
        np.divide((P_B * self.d * self.d)[:, None], sinr, out=sinr)
        np.greater_equal(sinr, thr_B, out=embb_ok_at[:, :M])
        np.greater_equal(P_B * self.d, thr_B, out=embb_ok_at[:, M])
        return NonorthPass(self, runmin, embb_ok_at)

    def nonorth_error_counts(self, r_M: float, r_B: float, gamma_tar: float):
        """(mMTC device-slot failures out of M * trials, broadband decode
        failures out of trials) under the interleaved procedure: the counts
        of `nonorth_pass(r_B, gamma_tar)` at r_M."""
        return self.nonorth_pass(r_B, gamma_tar).counts(r_M)


class NonorthPass:
    """One decode of the interleaved procedure at (r_B, gamma_tar) on a
    trial table, answering every MTC rate with one comparison pass.

    With the broadband signal pending, device m decodes iff its SINR and
    those of every device before it reach 2^r_M - 1; the rate enters only
    through that threshold. So the pass keeps, in SIC order,
      runmin     (T, M)    running minimum of the device SINRs with the
                           broadband signal pending
      embb_ok_at (T, M+1)  whether the broadband attempt succeeds when made
                           after k devices, k = 0..M
    and `counts(r_M)` reads k, the devices decoded before the attempt, as
    the number of runmin entries that reach the threshold.
    """

    def __init__(self, table: TrialTable, runmin, embb_ok_at):
        self.table = table
        self.runmin = runmin
        self.embb_ok_at = embb_ok_at

    def counts(self, r_M: float, orth_decoded: Optional[np.ndarray] = None):
        """(mMTC device-slot failures out of M * trials, broadband decode
        failures out of trials) at MTC rate r_M. `orth_decoded` is the
        table's `orth_decoded(r_M)`, computed here when not given."""
        if r_M < 0:
            raise ValueError("rates must be nonnegative")
        T, M = self.table.cfg.trials, self.table.cfg.M
        if orth_decoded is None:
            orth_decoded = self.table.orth_decoded(r_M)
        # every SINR denominator is positive, so no entry is NaN and the
        # count of entries at or above the threshold is the first failure
        k = (self.runmin >= 2.0**r_M - 1.0).sum(axis=1, dtype=np.int32)
        # embb_ok_at[t, k[t]] through the column-major flat index, which
        # numpy gathers faster than a two-array index
        embb_ok = self.embb_ok_at.ravel(order="F")[k * np.intp(T) + np.arange(T)]
        # a rescued trial goes on from device k to the first failure of the
        # no-broadband chain; dropping P_B * b >= 0 from a denominator cannot
        # lower an SINR, so that failure is at or after k: the orthogonal count
        n_dec = np.where(embb_ok, orth_decoded, k)
        mm_err = M * T - int(n_dec.sum())
        eb_err = T - int(embb_ok.sum())
        return mm_err, eb_err


def _chunk_size(M: int, width: int) -> int:
    # at most 64 MiB per chunk: one trial draws `width` uniforms and as many
    # normals (16 bytes per column) and reduces to an (M, M) complex Gram
    # (16 bytes per entry); a trial larger than that is a chunk of its own.
    # Writing fresh pages costs about twice as much as rewriting touched ones
    # (a 64 MiB fill: 17 ms against 8.7 ms on a 2-vCPU VM), so the draw counts
    # toward the bound as well as the Gram
    return max(1, min(16384, 2**26 // (16 * (width + M * M))))


def _table_chunk(cfg: SystemConfig, Z: np.ndarray):
    # Z holds one row of 2L(M+1) standard normals per trial: the broadband
    # channel's (re, im) pairs, then each device's. Read as complex128, each
    # pair is one channel coefficient, so the channels are scaled views of Z
    L, M = cfg.L, cfg.M
    n = Z.shape[0]
    Zc = Z.view(np.complex128)
    g_B = Zc[:, :L] * math.sqrt(cfg.gamma_bar_B / 2.0)
    G = Zc[:, L:].reshape(n, M, L) * math.sqrt(cfg.gamma_bar_M / 2.0)
    c = np.einsum("tml,tml->tm", G, G.conj()).real
    order = np.argsort(-c, axis=1, kind="stable")
    G = np.take_along_axis(G, order[:, :, None], axis=1)
    c = np.take_along_axis(c, order, axis=1)
    Gc = G.conj()  # shared by the Gram block and the coupling
    cross = G @ Gc.transpose(0, 2, 1)  # BLAS batched Gram block
    xb = np.einsum("tml,tl->tm", Gc, g_B)
    del G, Gc
    # |cross|^2: square in place through the (re, im) float view, then add
    cross = cross.view(np.float64)
    np.square(cross, out=cross)
    cross = cross[:, :, 0::2] + cross[:, :, 1::2]
    upper = np.triu(np.ones((M, M)), k=1)
    interf = cfg.P_M * np.einsum("tmn,mn->tm", cross, upper)
    b = xb.real**2 + xb.imag**2
    d = np.einsum("tl,tl->t", g_B, g_B.conj()).real
    b_suffix = cfg.P_M * np.cumsum(b[:, ::-1], axis=1)[:, ::-1]
    prefix_min = np.minimum.accumulate((cfg.P_M * c * c) / (interf + c), axis=1)
    return c, interf, b, b_suffix, d, prefix_min


def build_trial_tables(
    cfg: SystemConfig, L_values: Sequence[int], workers: int = 1, *, passes: int = 1
) -> List[TrialTable]:
    """Trial tables of cfg at each antenna count in L_values, in that order.

    Each chunk of trials is drawn once, at the widest L, and every table is
    reduced from its column prefix of those normals, so each table equals
    one built on its own. Per-trial keyed streams make the result
    independent of chunking and of `workers`, which only bounds the thread
    pool used across chunks.

    Every table of the sweep is alive at once. Raises MemoryError, before
    allocating, when the tables, plus the draws of the chunks in flight,
    plus the larger of one chunk's Gram block and the count temporaries,
    exceed the machine's physical memory. The count temporaries are those
    of `passes` `NonorthPass`es alive at once: the most the caller's
    searches hold on one table.
    """
    T, M = cfg.trials, cfg.M
    width = 2 * max(L_values) * (M + 1)
    step = _chunk_size(M, width)
    in_flight = min(max(workers, 1), -(-T // step))  # threads, at most one per chunk
    table_bytes = T * (5 * M + 1) * 8  # five (T, M) arrays and d, float64
    draw_bytes = min(step, T) * width * 16  # a chunk's uniforms and normals
    gram_bytes = min(step, T) * M * M * 16
    # a pass being decoded and counted peaks at about two (T, M) float64
    # arrays; each other pass kept holds a (T, M) float64 and a (T, M + 1) bool
    eval_bytes = 2 * T * M * 8 + (passes - 1) * (8 * T * M + T * (M + 1))
    need = len(L_values) * table_bytes + in_flight * draw_bytes + max(gram_bytes, eval_bytes)
    physical = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    if need > physical:
        raise MemoryError(
            f"{len(L_values)} trial table(s) of {table_bytes} bytes, {in_flight} chunk "
            f"draw(s) of {draw_bytes} bytes, and a chunk Gram of {gram_bytes} bytes "
            f"or the count temporaries of {passes} decode pass(es), {eval_bytes} "
            f"bytes, exceed the {physical} bytes of physical memory"
        )

    def column():
        return np.empty((T, M), order="F")

    tables = [
        TrialTable(replace(cfg, L=L), column(), column(), column(), column(), np.empty(T),
                   column())
        for L in L_values
    ]
    bounds = [(t0, min(t0 + step, T)) for t0 in range(0, T, step)]

    def fill(span):
        t0, t1 = span
        Z = _normals_from_uniforms(keyed_uniforms(cfg.seed, t0, t1 - t0, width))
        for tab in tables:
            out = _table_chunk(tab.cfg, Z[:, : 2 * tab.cfg.L * (M + 1)])
            arrays = (tab.c, tab.interf, tab.b, tab.b_suffix, tab.d, tab.prefix_min)
            for dst, src in zip(arrays, out):
                dst[t0:t1] = src

    if in_flight > 1:
        with ThreadPoolExecutor(max_workers=in_flight) as pool:
            list(pool.map(fill, bounds))
    else:
        for span in bounds:
            fill(span)
    return tables


def build_trial_table(cfg: SystemConfig, workers: int = 1) -> TrialTable:
    """The trial table of cfg alone: `build_trial_tables` at cfg.L."""
    return build_trial_tables(cfg, (cfg.L,), workers)[0]
