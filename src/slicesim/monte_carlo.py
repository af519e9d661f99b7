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
of one antenna count. A device count's draw is in the same way a column
prefix of the draw of any larger device count, and a `HeldDraw` keeps one
draw across builds so that narrower builds reduce from its prefix.

`TrialTable.mmtc_orth_error_count` and `TrialTable.nonorth_error_counts`
count the errors of one operating point, as the CLI's rows report them;
the estimate is errors / n with `wilson_half_width` for its 95% interval.
The searches read the threshold methods below instead, and the orthogonal
endpoint reads the running-minimum SINRs `prefix_min`. With M = 0 the
table holds only the broadband received powers `d`, which is all the
truncated-inversion analysis needs. The per-realization decoders in
`sic_decoder` are the reference; the test suite checks exact,
count-level agreement between the two routes.

A non-orthogonal count compares per-trial target-SNR thresholds. Each
SINR of the interleaved procedure is monotone in the broadband target SNR
gamma, so each decode step is a threshold on gamma:
`TrialTable.mmtc_thresholds(r_M)` holds, per trial and SIC position, the
largest gamma at which the devices up to it decode with the broadband
signal pending, and `TrialTable.embb_thresholds(r_B)` the least gamma at
which the broadband attempt succeeds after each number of decoded devices.
The first depends only on the MTC rate and the second only on the
broadband rate, so a search builds each once per rate and
`TrialTable.threshold_counts` answers each probed gamma with one
comparison pass. The MTC thresholds come paired with the orthogonal
decoded count at the same rate, which a trial reaches once its broadband
attempt succeeds, so a count never sees thresholds and decoded counts of
two different rates.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace
from typing import List, Optional, Sequence

import numpy as np

from .channel import SystemConfig, rate_threshold
from .numerics import _normals_from_uniforms, keyed_uniforms

__all__ = [
    "wilson_half_width", "TrialTable", "HeldDraw", "build_trial_table", "build_trial_tables",
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
        return (self.prefix_min >= rate_threshold(r_M)).sum(axis=1)

    def mmtc_orth_error_count(self, r_M: float) -> int:
        """Device-slot failures, out of M * trials, under orthogonal
        stop-on-failure decoding."""
        return self.cfg.M * self.cfg.trials - int(self.orth_decoded(r_M).sum())

    def mmtc_thresholds(self, r_M: float):
        """(U, orth_decoded) at MTC rate r_M. U (T, M) holds, per trial and
        SIC position j, the largest target SNR at which devices 0..j all
        decode with the broadband signal pending: at target SNR gamma the
        devices decoded before the broadband attempt are the entries at or
        above gamma. orth_decoded is `orth_decoded(r_M)`, the devices a trial
        decodes once its broadband attempt succeeds.

        Device j's SINR with the broadband signal pending, P_M c^2 /
        (gamma b / d + interf + c), reaches thr_M = 2^r_M - 1 iff gamma <=
        u_j = d (P_M c^2 / thr_M - interf - c) / b; U is the running
        minimum of u along the SIC order. Every device decodes at thr_M = 0,
        and one the broadband signal does not reach (b = 0) decodes at every
        target SNR or at none: u is +inf or -inf there.
        """
        # counted before U's temporaries exist, so its comparison pass does
        # not add to their peak
        orth_decoded = self.orth_decoded(r_M)
        cfg = self.cfg
        thr_M = rate_threshold(r_M)
        if thr_M == 0.0:
            return np.full((cfg.trials, cfg.M), np.inf, order="F"), orth_decoded
        U = np.multiply(cfg.P_M, self.c, order="F")
        U *= self.c
        U /= thr_M
        U -= self.interf
        U -= self.c
        U *= self.d[:, None]
        np.divide(U, self.b, out=U, where=self.b > 0)
        unreached = self.b == 0
        U[unreached] = np.where(U[unreached] >= 0.0, np.inf, -np.inf)
        for m in range(1, cfg.M):
            np.minimum(U[:, m - 1], U[:, m], out=U[:, m])
        return U, orth_decoded

    def embb_thresholds(self, r_B: float) -> np.ndarray:
        """(T, M + 1): per trial, the least target SNR at which the broadband
        attempt at broadband rate r_B succeeds when made after k decoded
        devices, k = 0..M.

        The broadband device is conservatively always active: per trial it
        transmits at gamma / ||g_B||^2 with no truncation, so its error is
        purely a decoding error. An attempt at position k < M faces devices
        k.. (b_suffix) with SINR gamma d / (b_suffix_k + d), which reaches
        thr_B = 2^r_B - 1 iff gamma >= thr_B (b_suffix_k + d) / d; at k == M
        it comes last, interference-free, and succeeds iff gamma >= thr_B.
        """
        cfg = self.cfg
        if cfg.M < 1:
            raise ValueError("joint outage needs at least one MTC device (M >= 1)")
        thr_B = rate_threshold(r_B)
        V = np.empty((cfg.trials, cfg.M + 1), order="F")
        np.add(self.b_suffix, self.d[:, None], out=V[:, : cfg.M])
        V[:, : cfg.M] *= thr_B
        V[:, : cfg.M] /= self.d[:, None]
        V[:, cfg.M] = thr_B
        return V

    def threshold_counts(self, mtc, V, gamma_tar: float):
        """(mMTC device-slot failures out of M * trials, broadband decode
        failures out of trials) at target SNR gamma_tar, from mtc =
        `mmtc_thresholds(r_M)` and V = `embb_thresholds(r_B)`: one comparison
        pass per target SNR."""
        T, M = self.cfg.trials, self.cfg.M
        U, orth_decoded = mtc
        # U is nonincreasing along each trial, so the count of entries at or
        # above gamma_tar is k, the devices decoded before the broadband attempt
        k = (U >= gamma_tar).sum(axis=1, dtype=np.int32)
        # V[t, k[t]] through the column-major flat index, which numpy gathers
        # faster than a two-array index
        embb_ok = V.ravel(order="F")[k * np.intp(T) + np.arange(T)] <= gamma_tar
        # a rescued trial goes on from device k to the first failure of the
        # no-broadband chain; dropping P_B * b >= 0 from a denominator cannot
        # lower an SINR, so that failure is at or after k: the orthogonal count
        n_dec = np.where(embb_ok, orth_decoded, k)
        return M * T - int(n_dec.sum()), T - int(embb_ok.sum())

    def nonorth_error_counts(self, r_M: float, r_B: float, gamma_tar: float):
        """(mMTC device-slot failures out of M * trials, broadband decode
        failures out of trials) under the interleaved procedure at (r_M, r_B,
        gamma_tar). Requires gamma_tar > 2^r_B - 1, otherwise even the
        interference-free broadband attempt could never succeed."""
        thr_B = rate_threshold(r_B)
        if not gamma_tar > thr_B:
            raise ValueError(f"gamma_tar={gamma_tar} must exceed 2^r_B - 1 = {thr_B}")
        return self.threshold_counts(
            self.mmtc_thresholds(r_M), self.embb_thresholds(r_B), gamma_tar
        )


def _trial_bytes(M: int, width: int) -> int:
    # the most bytes one trial of a chunk holds at once, from the arrays that
    # `_normals_from_uniforms` and `_table_chunk` allocate: the draw's
    # uniforms, clamp and normals (24 bytes per column of the widest L); a
    # reduction's normals and channel copies (at most 24 per column), its
    # complex Gram and squared magnitudes (24 per entry), and the float64
    # vectors it ends with (80 per signal, the M devices and the broadband)
    return 24 * (width + M * M) + 80 * (M + 1)


def _count_bytes(T: int, M: int) -> int:
    # the most bytes a search holds beside a table of T trials: U, V and the
    # decoded counts, and a count pass's larger transient, its (T, M) bool
    # comparison or three int64 gather indices, each with an int32 sum; and
    # one reduction's cast buffer of np.getbufsize() values
    return T * (17 * M + 44) + 8 * np.getbufsize()


# bytes: the most a chunk of trials holds at once, and the most a HeldDraw holds
_CHUNK_BUDGET = 2**24  # 16 MiB


def _chunk_size(M: int, width: int) -> int:
    # the most trials whose peak fits in _CHUNK_BUDGET, at most 16384; a
    # trial larger than that is a chunk of its own. 64 MiB was slower: an
    # M = 48, L = 8 chunk then held a 30 MiB complex Gram, and on a 2-vCPU
    # VM (glibc 2.36) the benchmark's max-devices command spent 0.10 s of
    # system time against 0.03 s at 16 MiB
    return max(1, min(16384, _CHUNK_BUDGET // _trial_bytes(M, width)))


class HeldDraw:
    """The normals of the first trials of one seed's streams, kept from one
    build to the next, so that a build reduces those trials from a column
    prefix of the held draw instead of drawing them again.

    A build wider than the held draw frees it and holds its own draw in its
    place; a build no wider reads it. The held rows are the first min(T,
    _CHUNK_BUDGET // (8 width)) trials at the width they were drawn at, one
    chunk's budget of normals; a build draws its trials beyond them as it
    would without a held draw.
    """

    def __init__(self, seed: int):
        self.seed = seed
        self.normals = np.empty((0, 0))


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
    # a row gather copies each device's contiguous L-row, where
    # take_along_axis would build a broadcast (n, M, L) index
    rows = np.arange(n)[:, None]
    G = G[rows, order]
    c = c[rows, order]
    Gc = G.conj()  # shared by the Gram block and the coupling
    cross = G @ Gc.transpose(0, 2, 1)  # BLAS batched Gram block
    xb = np.einsum("tml,tl->tm", Gc, g_B)
    del G, Gc
    # |cross|^2: square in place through the (re, im) float view, then add
    cross = cross.view(np.float64)
    np.square(cross, out=cross)
    cross = cross[:, :, 0::2] + cross[:, :, 1::2]
    # 1.0 above the diagonal, as np.triu(np.ones((M, M)), k=1) without the
    # (M, M) float64 ones it masks: a one-trial chunk has no room for them
    upper = (np.arange(M)[:, None] < np.arange(M)).astype(np.float64)
    interf = cfg.P_M * np.einsum("tmn,mn->tm", cross, upper)
    b = xb.real**2 + xb.imag**2
    d = np.einsum("tl,tl->t", g_B, g_B.conj()).real
    b_suffix = cfg.P_M * np.cumsum(b[:, ::-1], axis=1)[:, ::-1]
    prefix_min = np.minimum.accumulate((cfg.P_M * c * c) / (interf + c), axis=1)
    return c, interf, b, b_suffix, d, prefix_min


def build_trial_tables(
    cfg: SystemConfig, L_values: Sequence[int], workers: int = 1,
    held: Optional[HeldDraw] = None,
) -> List[TrialTable]:
    """Trial tables of cfg at each antenna count in L_values, in that order.

    Each chunk of trials is drawn once, at the widest L, and every table is
    reduced from its column prefix of those normals, so each table equals
    one built on its own. A chunk is the most trials whose draw and
    reduction fit in `_CHUNK_BUDGET` (`_chunk_size`). Per-trial
    keyed streams make the result independent of chunking and of `workers`,
    which only bounds the thread pool used across chunks. With `held`, the
    trials it holds are read from its column prefix, or drawn into it when
    this build is wider than it (see `HeldDraw`); no chunk spans both its
    trials and later ones.

    Every table of the sweep is alive at once; builds and searches never
    overlap. Raises MemoryError, before allocating, when the tables and the
    held draw plus the larger of two peaks exceed the machine's physical
    memory: the chunks in flight, each holding its own draw and Gram
    (`_trial_bytes` per trial), and the count temporaries of a search on one
    table (`_count_bytes`).
    """
    T, M = cfg.trials, cfg.M
    width = 2 * max(L_values) * (M + 1)
    rows, redraw, held_bytes = 0, False, 0  # trials read from or drawn into `held`
    if held is not None:
        if held.seed != cfg.seed:
            raise ValueError(f"held draw of seed {held.seed} for a build of seed {cfg.seed}")
        redraw = held.normals.shape[1] < width
        rows = min(T, _CHUNK_BUDGET // (8 * width) if redraw else len(held.normals))
        held_bytes = rows * width * 8 if redraw else held.normals.nbytes
    step = _chunk_size(M, width)
    # chunks end at the held rows' end; counted, not listed, before the check:
    # one-trial chunks of a table far over memory would make a list as long
    chunks = -(-rows // step) - (-(T - rows) // step)
    in_flight = min(max(workers, 1), chunks)  # threads, at most one per chunk
    table_bytes = T * (5 * M + 1) * 8  # five (T, M) arrays and d, float64
    chunk_bytes = min(step, T) * _trial_bytes(M, width)
    count_bytes = _count_bytes(T, M)
    need = (len(L_values) * table_bytes + held_bytes
            + max(in_flight * chunk_bytes, count_bytes))
    physical = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    if need > physical:
        raise MemoryError(
            f"{len(L_values)} trial table(s) of {table_bytes} bytes, a held draw of "
            f"{held_bytes} bytes and the larger of {in_flight} chunk(s) in flight of "
            f"{chunk_bytes} bytes and the count temporaries of {count_bytes} bytes "
            f"exceed the {physical} bytes of physical memory"
        )

    def column():
        return np.empty((T, M), order="F")

    tables = [
        TrialTable(replace(cfg, L=L), column(), column(), column(), column(), np.empty(T),
                   column())
        for L in L_values
    ]
    # the held draw is allocated after the tables: allocated before them, it
    # raised the `max-devices` workload's peak RSS from about 129 MB to 142 MB
    if redraw:
        held.normals = None  # the narrower draw is freed before the wider one
        held.normals = np.empty((rows, width))
    kept = None if held is None else held.normals
    bounds = [(t0, min(t0 + step, rows)) for t0 in range(0, rows, step)]
    bounds += [(t0, min(t0 + step, T)) for t0 in range(rows, T, step)]

    def fill(span):
        t0, t1 = span
        if t1 <= rows and not redraw:
            Z = kept[t0:t1, :width]
        else:
            Z = _normals_from_uniforms(keyed_uniforms(cfg.seed, t0, t1 - t0, width))
            if t1 <= rows:  # held, and the chunk's own draw freed before its reduction
                kept[t0:t1] = Z
                Z = kept[t0:t1]
        for tab in tables:
            # copied into the table in one statement: a table's reduction is
            # freed before the next one runs
            (tab.c[t0:t1], tab.interf[t0:t1], tab.b[t0:t1], tab.b_suffix[t0:t1],
             tab.d[t0:t1], tab.prefix_min[t0:t1]) = _table_chunk(
                tab.cfg, Z[:, : 2 * tab.cfg.L * (M + 1)])

    if in_flight > 1:
        with ThreadPoolExecutor(max_workers=in_flight) as pool:
            list(pool.map(fill, bounds))
    else:
        # in the calling thread: a worker thread allocates from a malloc arena
        # of its own, which the C library hands back to the system less
        # readily than the main one, so one worker thread made the `max-devices`
        # sweep's peak RSS 160-213 MB from run to run, against a steady 137 MB
        for span in bounds:
            fill(span)
    return tables


def build_trial_table(
    cfg: SystemConfig, workers: int = 1, held: Optional[HeldDraw] = None
) -> TrialTable:
    """The trial table of cfg alone: `build_trial_tables` at cfg.L."""
    return build_trial_tables(cfg, (cfg.L,), workers, held)[0]
