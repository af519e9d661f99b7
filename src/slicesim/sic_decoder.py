"""Per-realization MRC-SIC decoding.

The base station projects the received vector onto each target device's
channel (maximum ratio combining) and peels signals off strongest-first.
For the k-th device in the SIC order, with channel column g_k, the

    SINR = P ||g_k||^4 / (interference + ||g_k||^2)

where the noise term ||g_k||^2 comes from projecting unit-power noise and
the interference collects P' |g_k^H g_j|^2 over every signal still in the
waveform. A device (or the broadband signal) at rate r is decoded iff its
SINR reaches 2^r - 1, i.e. log2(1 + SINR) >= r, boundary inclusive: the
engine's rule, `channel.rate_threshold`, which no SINR meets from r = 1024
on.

Two procedures are implemented:

* orthogonal: only MTC devices transmit; decoding walks the SIC order and
  stops at the first failure (so the decoded set is a prefix).
* non-orthogonal: the broadband signal overlaps the MTC traffic. MTC
  decoding proceeds as above but with the broadband power added to the
  interference; when an MTC decode fails while the broadband signal is
  still unresolved, the receiver attempts the broadband signal against all
  currently undecoded MTC devices (including the one that just failed).
  On success its interference is removed and the failed device is retried;
  on failure the procedure ends. If all MTC devices decode first, the
  broadband signal is decoded interference-free at the end. The broadband
  signal never takes a slot in the norm ordering; its decode position is
  event-driven.

These loops are the readable reference; `monte_carlo` counts the same
outcomes over all trials in one pass and is tested for exact agreement.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .channel import rate_threshold

__all__ = ["DecodeOutcome", "sic_order", "decode_orthogonal", "decode_non_orthogonal"]


@dataclass(frozen=True, eq=False)
class DecodeOutcome:
    """Decode result for one slot.

    mtc_decoded is indexed by original device index (not SIC position).
    embb_decode_step, when set, is the number of MTC devices that had been
    decoded at the moment the broadband signal was resolved (M means it was
    decoded last, interference-free).
    """

    mtc_decoded: np.ndarray
    embb_decoded: bool
    embb_decode_step: Optional[int] = None


def sic_order(G_M: np.ndarray) -> np.ndarray:
    """Device indices sorted by received power ||g_m||^2, strongest first;
    ties broken by ascending original index."""
    norms = np.einsum("lm,lm->m", G_M, G_M.conj()).real
    return np.argsort(-norms, kind="stable")


def decode_orthogonal(G_M: np.ndarray, P_M: float, r_M: float) -> DecodeOutcome:
    """MRC-SIC over the MTC devices alone; stop at the first failure."""
    thr = rate_threshold(r_M)
    M = G_M.shape[1]
    order = sic_order(G_M)
    Gs = G_M[:, order]
    cross = np.einsum("lm,ln->mn", Gs.conj(), Gs)
    cross = cross.real**2 + cross.imag**2
    norms = np.einsum("lm,lm->m", Gs, Gs.conj()).real
    decoded = np.zeros(M, dtype=bool)
    for k in range(M):
        c = norms[k]
        interference = P_M * cross[k, k + 1 :].sum()
        sinr = P_M * c * c / (interference + c)
        if sinr >= thr:
            decoded[order[k]] = True
        else:
            break
    return DecodeOutcome(mtc_decoded=decoded, embb_decoded=False)


def decode_non_orthogonal(
    G_M: np.ndarray,
    g_B: np.ndarray,
    P_M: float,
    P_B: float,
    r_M: float,
    r_B: float,
) -> DecodeOutcome:
    """Interleaved MRC-SIC over the MTC devices and the broadband signal."""
    thr_M = rate_threshold(r_M)
    thr_B = rate_threshold(r_B)
    if P_B < 0:
        raise ValueError(f"P_B must be nonnegative, got {P_B}")
    M = G_M.shape[1]
    order = sic_order(G_M)
    Gs = G_M[:, order]
    cross = np.einsum("lm,ln->mn", Gs.conj(), Gs)
    cross = cross.real**2 + cross.imag**2
    norms = np.einsum("lm,lm->m", Gs, Gs.conj()).real
    xb = np.einsum("lm,l->m", Gs.conj(), g_B)
    b = xb.real**2 + xb.imag**2  # |g_k^H g_B|^2 in SIC order
    b_suffix = np.cumsum(b[::-1])[::-1] if M else b
    d = float(np.einsum("l,l->", g_B, g_B.conj()).real)

    decoded = np.zeros(M, dtype=bool)
    embb_decoded = False
    embb_step: Optional[int] = None
    k = 0
    while k < M:
        c = norms[k]
        interference = P_M * cross[k, k + 1 :].sum()
        if not embb_decoded:
            interference = interference + P_B * b[k]
        sinr = P_M * c * c / (interference + c)
        if sinr >= thr_M:
            decoded[order[k]] = True
            k += 1
            continue
        if embb_decoded:
            break  # plain stop-on-failure once the broadband signal is gone
        # broadband attempt against everything still undecoded (k included)
        sinr_B = P_B * d * d / (P_M * b_suffix[k] + d)
        if sinr_B >= thr_B:
            embb_decoded = True
            embb_step = k
            continue  # retry device k without the broadband interference
        break  # broadband failed: procedure ends, devices k.. stay failed
    else:
        if not embb_decoded and P_B * d >= thr_B:
            embb_decoded = True
            embb_step = M
    return DecodeOutcome(
        mtc_decoded=decoded,
        embb_decoded=embb_decoded,
        embb_decode_step=embb_step,
    )
