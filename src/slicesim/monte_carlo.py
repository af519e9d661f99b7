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
draw across builds so that narrower builds reduce from its prefix. A build
allocates its temporaries once, one `_Workspace` per worker thread: each
chunk is drawn, transformed and reduced in a free one. A table has one
layout, a flat float64 buffer of T (5M + 1) values (`_table`), and one
writer, `_table_chunk(table, Z, ws, t0, t1)`, which fills its rows t0..t1
from the chunk's draw.

A count that adds up over trials needs no table. `count_trials` runs the
same chunk loop (`_Chunks`) and reduces each chunk, at every L, into a
table of the chunk's trials held by its workspace, counts it there and
sums the counts per L, so what it holds does not grow with the trials or
the antenna sweep. The CLI's fixed operating points are counted this way;
the searches, which read a table many times, build one.

`TrialTable.mmtc_orth_error_count` and `TrialTable.nonorth_error_counts`
count the errors of one operating point, for the CLI's rows and for the
searches alike; the estimate is errors / n with `wilson_half_width` for
its 95% interval. The orthogonal endpoint reads the running-minimum SINRs
`prefix_min`. With M = 0 the table holds only the broadband received
powers `d`, which is all the truncated-inversion analysis needs. The
per-realization decoders in `sic_decoder` are the reference; the test
suite checks exact, count-level agreement between the two routes.

A non-orthogonal count compares per-trial target-SNR thresholds. Each
SINR of the interleaved procedure is monotone in the broadband target SNR
gamma, so each decode step is a threshold on gamma:
`TrialTable.mmtc_thresholds(r_M)` holds, per trial and SIC position, the
largest gamma at which the devices up to it decode with the broadband
signal pending. It depends only on the MTC rate, so a search builds it
once per rate, and `TrialTable.nonorth_error_counts(mtc, r_B, gamma)`
answers each probed (r_B, gamma) with one comparison pass against it: the
count of thresholds at or above gamma is a trial's devices decoded before
its broadband attempt, and the pass reads from the table, at that count
only, the least gamma at which the attempt succeeds at broadband rate r_B,
so nothing of size (T, M) is built per broadband rate. The MTC thresholds
come paired with the orthogonal decoded count at the same rate,
`orth_decoded(r_M)`, which a trial reaches once its broadband attempt
succeeds, so a count never sees thresholds and decoded counts of two
different rates.
"""

from __future__ import annotations

import collections
import math
import operator
import os
import queue
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from typing import List, Optional, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .channel import SystemConfig, rate_threshold
from .numerics import _normals_from_uniforms, keyed_uniforms

__all__ = [
    "wilson_half_width", "TrialTable", "HeldDraw", "build_trial_table", "build_trial_tables",
    "count_trials",
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


@dataclass(eq=False)
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

    cfg: SystemConfig
    c: np.ndarray
    interf: np.ndarray
    b: np.ndarray
    b_suffix: np.ndarray
    d: np.ndarray
    prefix_min: np.ndarray

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
        with np.errstate(divide="ignore", invalid="ignore"):
            U /= self.b
        U[np.isnan(U)] = np.inf  # 0 / 0 at b = 0
        for m in range(1, cfg.M):
            np.minimum(U[:, m - 1], U[:, m], out=U[:, m])
        return U, orth_decoded

    def nonorth_error_counts(self, mtc, r_B: float, gamma_tar: float):
        """(mMTC device-slot failures out of M * trials, broadband decode
        failures out of trials) under the interleaved procedure at broadband
        rate r_B and target SNR gamma_tar, from mtc = `mmtc_thresholds(r_M)`
        at MTC rate r_M: one comparison pass per target SNR. Requires
        gamma_tar > 2^r_B - 1, otherwise even the interference-free
        broadband attempt could never succeed.

        The broadband device is conservatively always active: per trial it
        transmits at gamma / ||g_B||^2 with no truncation, so its error is
        purely a decoding error. An attempt after k < M decoded devices faces
        devices k.. (b_suffix) with SINR gamma d / (b_suffix_k + d), which
        reaches thr_B = 2^r_B - 1 iff gamma >= (b_suffix_k + d) thr_B / d,
        the least target SNR read here at each trial's k; after k == M it
        comes last, interference-free, and succeeds iff gamma >= thr_B.
        """
        thr_B = rate_threshold(r_B)
        if not gamma_tar > thr_B:
            raise ValueError(f"gamma_tar={gamma_tar} must exceed 2^r_B - 1 = {thr_B}")
        T, M = self.cfg.trials, self.cfg.M
        U, orth_decoded = mtc
        # U is nonincreasing along each trial, so the count of entries at or
        # above gamma_tar is k, the devices decoded before the broadband attempt
        k = (U >= gamma_tar).sum(axis=1, dtype=np.int32)
        # b_suffix[t, k[t]] through the column-major flat index, which numpy
        # gathers faster than a two-array index; "clip" keeps a k == M trial's
        # index in range, and that trial's attempt, interference-free,
        # succeeds since gamma_tar > thr_B
        least = np.take(self.b_suffix.ravel(order="F"), k * np.intp(T) + np.arange(T),
                        mode="clip")
        least += self.d
        least *= thr_B
        least /= self.d
        embb_ok = least <= gamma_tar
        embb_ok |= k == M
        # a rescued trial goes on from device k to the first failure of the
        # no-broadband chain; dropping P_B * b >= 0 from a denominator cannot
        # lower an SINR, so that failure is at or after k: the orthogonal count
        n_dec = np.where(embb_ok, orth_decoded, k)
        return M * T - int(n_dec.sum()), T - int(embb_ok.sum())


def _trial_bytes(M: int, width: int) -> int:
    # the bytes per trial of a `_Workspace` and the sort order that
    # `_table_chunk` allocates beside it: the draw and two complex channel
    # buffers at the widest L (8 bytes per column each), the complex Gram
    # and its squared magnitudes (24 per entry), a complex per-device
    # vector, two float ones, the flat row starts and the sort order (48
    # per device), and the complex broadband power (16); and 1/64 more for
    # numpy's own allocations during a chunk (the sort's iterators, the
    # views), which measured at most 15 KB and which any full chunk, 16384
    # trials or half of _CHUNK_BUDGET, covers with 16 KiB or more
    workspace = 24 * (width + M * M) + 48 * M + 16
    return workspace + workspace // 64


def _count_bytes(T: int, M: int) -> int:
    # the most bytes a search holds beside a table of T trials: U and the
    # decoded counts (8M + 8 per trial); a count pass's transients beside its
    # int32 k, first the (T, M) bool comparison (or one of U's bool masks),
    # then three int64 gather indices, then the gathered float64 thresholds,
    # two bool masks and the int64 decoded counts, each within M + 28; and
    # one reduction's cast buffer of np.getbufsize() values
    return T * (9 * M + 36) + 8 * np.getbufsize()


# bytes: the most one worker's workspace holds, and the most a HeldDraw holds
_CHUNK_BUDGET = 2**22  # 4 MiB
_HELD_BUDGET = 2**24  # 16 MiB


def _chunk_size(M: int, width: int) -> int:
    # the most trials whose workspace fits in _CHUNK_BUDGET, at most 16384;
    # a trial larger than that is a chunk of its own. The workspace is
    # reused from chunk to chunk, so the budget trades only its size against
    # the calls per chunk. On a 2-vCPU VM (glibc 2.36, medians of six runs
    # at seed 1) the benchmark's `outage` command, which counts chunk by
    # chunk with 2 workers, peaked at 60.0 MB in 0.60 s with 2 MiB
    # workspaces, 64.2 MB in 0.48 s at 4 MiB, 72.3 MB in 0.42 s at 8 MiB
    # and 88.9 MB in 0.44 s at 16 MiB; the `region` median read 0.32 s at
    # 2 MiB against 0.27 s at 4 MiB. At fig5 sizes (L = 16, M = 128) a reduction
    # took 127-157 us per trial at 4 to 128 trials per chunk, with no trend.
    # Two workers pay for the number of chunks where one does not: L = 8
    # builds at M = 40-60 took about 20% longer at 4 MiB than at 16 MiB
    return max(1, min(16384, _CHUNK_BUDGET // _trial_bytes(M, width)))


class HeldDraw:
    """The normals of the first trials of one seed's streams, kept from one
    build to the next, so that a build reduces those trials from a column
    prefix of the held draw instead of drawing them again.

    A build wider than the held draw frees it and holds its own draw in its
    place; a build no wider reads it. The held rows are the first min(T,
    _HELD_BUDGET // (8 width)) trials at the width they were drawn at; a
    build draws its trials beyond them as it would without a held draw.
    """

    def __init__(self, seed: int):
        self.seed = seed
        self.normals = np.empty((0, 0))


def _view(buf: np.ndarray, *shape: int) -> np.ndarray:
    # the leading entries of a flat buffer, as a C-contiguous array of shape
    return buf[: math.prod(shape)].reshape(shape)


class _Workspace:
    """Every temporary of a chunk of up to n trials, drawn at `width`
    columns and reduced to tables of M devices: flat buffers that
    `_table_chunk` views at each table's shape. A build allocates one per
    worker thread, and each chunk takes a free one. It and what
    `_table_chunk` allocates beside it hold at most n *
    `_trial_bytes(M, width)` bytes, and with `table_rows` n (5M + 1)
    doubles more: a buffer in which `_table` lays out a chunk's table,
    which a count reads."""

    def __init__(self, n: int, M: int, width: int, table_rows: bool = False):
        # a chunk's trial table, laid out by `_table`
        self.rows = np.empty(n * (5 * M + 1)) if table_rows else None
        # the flat index of each trial's first device, per device
        self.row_starts = np.repeat(M * np.arange(n), M).reshape(n, M)
        self.draw = np.empty((n, width))  # uniforms, then normals, in place
        # the scaled channels, g_B then the devices' L-rows, and their copies
        self.chan = np.empty(n * width // 2, np.complex128)
        self.chan2 = np.empty(n * width // 2, np.complex128)
        self.gram = np.empty(n * M * M, np.complex128)
        # after a Gram's magnitudes are taken, its storage holds `upper`,
        # 1.0 above the diagonal: a copy of the windows of a 0-then-1 step,
        # (2M - 1) values stored past it
        floats = self.gram.view(np.float64)
        self.upper = _view(floats, M, M)
        self.step = floats[M * M: M * M + 2 * M - 1]
        self.windows = sliding_window_view(self.step, M)[::-1]
        self.mag = np.empty(n * M * M)
        self.dev = np.empty(n * M, np.complex128)
        self.f1 = np.empty(n * M)
        self.f2 = np.empty(n * M)
        self.power = np.empty(n, np.complex128)


def _table(cfg: SystemConfig, buf: np.ndarray) -> TrialTable:
    # cfg's trial table in the leading T (5M + 1) doubles of a flat float64
    # buffer: the five (T, M) arrays, each column-major, then d
    T, M = cfg.trials, cfg.M
    tm = T * M
    c, interf, b, b_suffix, prefix_min = (
        buf[i * tm: (i + 1) * tm].reshape((T, M), order="F") for i in range(5))
    return TrialTable(cfg, c, interf, b, b_suffix, buf[5 * tm: 5 * tm + T], prefix_min)


def _table_chunk(table: TrialTable, Z: np.ndarray, ws: _Workspace, t0: int, t1: int) -> None:
    # writes rows t0..t1 of table from Z, which holds one row of standard
    # normals per trial at any width from the table's 2L(M+1) on: the
    # broadband channel's (re, im) pairs, then each device's. Read as
    # complex128, each pair is one channel coefficient. Every temporary is
    # a C-contiguous view of ws, and every arithmetic step the numpy call,
    # on the same layout, that a fresh array would get, so the statistics
    # do not depend on the buffers. Only the sort order is allocated.
    # Strided rows, of the draw or of the column-major table, are only
    # copied (np.copyto): a ufunc on them would allocate iteration buffers,
    # since numpy 2.4 buffers operands whose inner loop is shorter than
    # np.getbufsize()
    cfg = table.cfg
    L, M = cfg.L, cfg.M
    n = t1 - t0
    c, interf, b, b_suffix, d, prefix_min = (
        a[t0:t1] for a in (table.c, table.interf, table.b, table.b_suffix, table.d,
                           table.prefix_min))
    Zc = Z[:, : 2 * L * (M + 1)].view(np.complex128)
    g_B = _view(ws.chan, n, L)
    np.copyto(g_B, Zc[:, :L])
    g_B *= math.sqrt(cfg.gamma_bar_B / 2.0)
    G = _view(ws.chan[n * L:], n, M, L)
    np.copyto(G, Zc[:, L:].reshape(n, M, L))
    G *= math.sqrt(cfg.gamma_bar_M / 2.0)
    Gs = _view(ws.chan2[n * L:], n, M, L)  # the conjugate, then the sorted rows
    unsorted = np.einsum("tml,tml->tm", G, np.conjugate(G, out=Gs), out=_view(ws.dev, n, M))
    neg = np.negative(unsorted.real, out=_view(ws.f1, n, M))
    order = np.argsort(neg, axis=1, kind="stable")
    order += ws.row_starts[:n]
    # a row gather copies each device's contiguous L-row, where
    # take_along_axis would build a broadcast (n, M, L) index; mode "clip"
    # writes into out directly, where "raise" buffers it
    np.take(G.reshape(n * M, L), order.ravel(), axis=0, out=Gs.reshape(n * M, L),
            mode="clip")
    cs = _view(ws.f2, n, M)  # c in SIC order
    np.take(neg.ravel(), order.ravel(), out=cs.ravel(), mode="clip")
    del order
    np.negative(cs, out=cs)
    np.copyto(c, cs)
    Gc = np.conjugate(Gs, out=G)  # shared by the Gram block and the coupling
    cross = np.matmul(Gs, Gc.transpose(0, 2, 1), out=_view(ws.gram, n, M, M))  # BLAS
    # |cross|^2: square in place through the (re, im) float view, then add
    sq = cross.view(np.float64)
    np.square(sq, out=sq)
    mag = np.add(sq[:, :, 0::2], sq[:, :, 1::2], out=_view(ws.mag, n, M, M))
    ws.step[:M] = 0.0
    ws.step[M:] = 1.0
    np.copyto(ws.upper, ws.windows)
    inter = np.einsum("tmn,mn->tm", mag, ws.upper, out=_view(ws.f1, n, M))
    inter *= cfg.P_M
    np.copyto(interf, inter)
    # the no-broadband SINR chain, in the device buffer's float storage
    num = np.multiply(cfg.P_M, cs, out=_view(ws.dev.view(np.float64), n, M))
    num *= cs
    num /= np.add(inter, cs, out=_view(ws.dev.view(np.float64)[n * M:], n, M))
    np.minimum.accumulate(num, axis=1, out=prefix_min)
    xb = np.einsum("tml,tl->tm", Gc, g_B, out=_view(ws.dev, n, M))
    xf = xb.view(np.float64)
    np.square(xf, out=xf)
    bb = np.add(xf[:, 0::2], xf[:, 1::2], out=_view(ws.f1, n, M))
    np.copyto(b, bb)
    suffix = _view(ws.f2, n, M)
    np.cumsum(bb[:, ::-1], axis=1, out=suffix[:, ::-1])
    suffix *= cfg.P_M
    np.copyto(b_suffix, suffix)
    power = np.einsum("tl,tl->t", g_B, np.conjugate(g_B, out=_view(ws.chan2, n, L)),
                      out=ws.power[:n])
    np.copyto(d, power.real)


def _reserve(need: int, held: str) -> None:
    # raises MemoryError, before a pass allocates anything, when the `need`
    # bytes it will hold, which `held` names, exceed the physical memory
    physical = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    if need > physical:
        raise MemoryError(f"{held} exceed the {physical} bytes of physical memory")


class _Chunks:
    """One pass over cfg's trials in chunks, each drawn once, at the widest
    antenna count of L_values, and handed to a reduction.

    A chunk is the most trials whose workspace fits in `_CHUNK_BUDGET`
    (`_chunk_size`). With `held`, the trials it holds are read from its
    column prefix, or drawn into it when this pass is wider than it (see
    `HeldDraw`); no chunk spans both its trials and later ones. At most
    `in_flight` chunks are reduced at once, one per worker thread, each
    through a `_Workspace` of its own. Per-trial keyed streams make every
    chunk's normals independent of the chunking and of `workers`, which
    only bounds the thread pool.
    """

    def __init__(self, cfg: SystemConfig, L_values: Sequence[int], workers: int = 1,
                 held: Optional[HeldDraw] = None):
        T, M = cfg.trials, cfg.M
        self.cfg, self.held = cfg, held
        self.width = width = 2 * max(L_values) * (M + 1)
        # trials read from or drawn into `held`
        self.held_rows, self.redraw, self.held_bytes = 0, False, 0
        if held is not None:
            if held.seed != cfg.seed:
                raise ValueError(f"held draw of seed {held.seed} for a build of seed {cfg.seed}")
            self.redraw = held.normals.shape[1] < width
            self.held_rows = min(T, _HELD_BUDGET // (8 * width) if self.redraw
                                 else len(held.normals))
            self.held_bytes = (self.held_rows * width * 8 if self.redraw
                               else held.normals.nbytes)
        self.step = step = min(_chunk_size(M, width), T)
        # chunks end at the held rows' end; counted, not listed: one-trial
        # chunks of a pass far over memory would make a list as long
        chunks = -(-self.held_rows // step) - (-(T - self.held_rows) // step)
        self.in_flight = min(max(workers, 1), chunks)  # threads, at most one per chunk
        self.chunk_bytes = step * _trial_bytes(M, width)

    def _spans(self):
        T, rows, step = self.cfg.trials, self.held_rows, self.step
        for t0 in range(0, rows, step):
            yield t0, min(t0 + step, rows)
        for t0 in range(rows, T, step):
            yield t0, min(t0 + step, T)

    def run(self, reduce, table_rows: bool = False):
        """Yields reduce(Z, ws, t0, t1) of every chunk of trials t0..t1, in
        chunk order: Z is the chunk's normals at the widest L, and ws a
        workspace that no other chunk uses meanwhile, with a buffer for a
        chunk's trial table (`_table`) when `table_rows` is set.

        Workspaces and the held draw are allocated here, after the caller's
        reservation and allocations. At most two chunks per thread are
        submitted ahead of the one whose result is awaited, so nothing the
        pass holds grows with the number of chunks.
        """
        cfg, held, width, redraw = self.cfg, self.held, self.width, self.redraw
        rows = self.held_rows
        # the held draw is allocated after the tables: allocated before them,
        # it raised the `max-devices` workload's peak RSS from about 129 MB
        # to 142 MB
        if redraw:
            held.normals = None  # the narrower draw is freed before the wider one
            held.normals = np.empty((rows, width))
        kept = None if held is None else held.normals
        # one workspace per thread, allocated here, not in the worker
        # threads: a worker thread allocates from a malloc arena of its own,
        # which the C library hands back to the system less readily than the
        # main one
        spaces = queue.SimpleQueue()
        for _ in range(self.in_flight):
            spaces.put(_Workspace(self.step, cfg.M, width, table_rows))

        def fill(span):
            t0, t1 = span
            ws = spaces.get()  # a free one: each thread holds at most one
            try:
                Z = kept[t0:t1, :width] if t1 <= rows else ws.draw[: t1 - t0]
                if t1 > rows or redraw:
                    _normals_from_uniforms(keyed_uniforms(cfg.seed, t0, t1 - t0, width, out=Z))
                return reduce(Z, ws, t0, t1)
            finally:
                spaces.put(ws)

        if self.in_flight == 1:
            # in the calling thread, whose malloc arena returns freed memory
            # most readily: one worker thread made the `max-devices` sweep's
            # peak RSS 160-213 MB from run to run, against a steady 137 MB
            for span in self._spans():
                yield fill(span)
            return
        with ThreadPoolExecutor(max_workers=self.in_flight) as pool:
            pending = collections.deque()
            for span in self._spans():
                pending.append(pool.submit(fill, span))
                if len(pending) > 2 * self.in_flight:
                    yield pending.popleft().result()
            while pending:
                yield pending.popleft().result()


def build_trial_tables(
    cfg: SystemConfig, L_values: Sequence[int], workers: int = 1,
    held: Optional[HeldDraw] = None,
) -> List[TrialTable]:
    """Trial tables of cfg at each antenna count in L_values, in that order.

    Each table is one flat buffer laid out by `_table`. One `_Chunks` pass:
    each chunk of trials is drawn once, at the widest L, and
    `_table_chunk` reduces every table's rows of the chunk from its column
    prefix of those normals, so each table equals one built on its own and
    does not depend on the chunking, on `workers` or on `held`. The
    workspaces are freed on return.

    Every table of the sweep is alive at once, for the searches that read
    them after the build; builds and searches never overlap. Raises
    MemoryError, before allocating, when the tables and the held draw plus
    the larger of two peaks exceed the machine's physical memory: the
    workspaces, one per chunk in flight (`_trial_bytes` per trial), and the
    count temporaries of a search on one table (`_count_bytes`).
    """
    T, M = cfg.trials, cfg.M
    chunks = _Chunks(cfg, L_values, workers, held)
    in_flight, chunk_bytes, held_bytes = chunks.in_flight, chunks.chunk_bytes, chunks.held_bytes
    table_bytes = T * (5 * M + 1) * 8  # five (T, M) arrays and d, float64
    count_bytes = _count_bytes(T, M)
    _reserve(
        len(L_values) * table_bytes + held_bytes + max(in_flight * chunk_bytes, count_bytes),
        f"{len(L_values)} trial table(s) of {table_bytes} bytes, a held draw of "
        f"{held_bytes} bytes and the larger of {in_flight} chunk(s) in flight of "
        f"{chunk_bytes} bytes and the count temporaries of {count_bytes} bytes",
    )
    tables = [_table(replace(cfg, L=L), np.empty(T * (5 * M + 1))) for L in L_values]

    def reduce(Z, ws, t0, t1):
        for table in tables:
            _table_chunk(table, Z, ws, t0, t1)

    for _ in chunks.run(reduce):
        pass
    return tables


def count_trials(
    cfg: SystemConfig, L_values: Sequence[int], count, workers: int = 1
) -> List[tuple]:
    """Per antenna count in L_values, the sum over every chunk of trials of
    count(table), where table is the chunk's `TrialTable` at that L and
    count returns a tuple of integers. Equal to count on the whole table
    of each L for any count that adds up per trial, as the error counts
    do, without building the whole table.

    One `_Chunks` pass, as in `build_trial_tables`, whose reduction writes
    each L's table of the chunk into its workspace's buffer, laid out by
    `_table` as a whole table is, and counts it there; one buffer per
    worker serves every L. What the pass holds is the workspaces, each
    with its chunk's table and one count's temporaries (`_count_bytes` at
    a chunk's trials), whatever the number of trials; it raises
    MemoryError before allocating when those exceed the machine's physical
    memory.
    """
    M = cfg.M
    chunks = _Chunks(cfg, L_values, workers)
    in_flight, chunk_bytes, step = chunks.in_flight, chunks.chunk_bytes, chunks.step
    rows_bytes = step * (5 * M + 1) * 8
    count_bytes = _count_bytes(step, M)
    _reserve(
        in_flight * (chunk_bytes + rows_bytes + count_bytes),
        f"{in_flight} chunk(s) in flight of {chunk_bytes} bytes, each with trial-table "
        f"rows of {rows_bytes} bytes and count temporaries of {count_bytes} bytes",
    )

    full = [replace(cfg, L=L, trials=step) for L in L_values]  # a full chunk's

    def reduce(Z, ws, t0, t1):
        n = t1 - t0
        counts = []
        for at_L in full:
            table = _table(at_L if n == step else replace(at_L, trials=n), ws.rows)
            _table_chunk(table, Z, ws, 0, n)
            counts.append(count(table))
        return counts

    totals = [None] * len(L_values)
    for counts in chunks.run(reduce, table_rows=True):
        totals = [c if t is None else tuple(map(operator.add, t, c))
                  for t, c in zip(totals, counts)]
    return totals


def build_trial_table(
    cfg: SystemConfig, workers: int = 1, held: Optional[HeldDraw] = None
) -> TrialTable:
    """The trial table of cfg alone: `build_trial_tables` at cfg.L."""
    return build_trial_tables(cfg, (cfg.L,), workers, held)[0]
