"""Checks of the CSV each workload writes.

Every check works from a computation made apart from the vectorized
trial-table engine, or from a property the method must have; none compares
against a stored copy of an earlier output:

* closed forms recomputed here with `scipy.special` (operating point,
  Wilson half-widths);
* the per-realization reference route, `channel.draw_realization` followed
  by `sic_decoder.decode_orthogonal` / `decode_non_orthogonal`, which draws
  each trial from its own Philox stream and does not use `keyed_uniforms`;
* properties of the method: the time-sharing line, the common-random-numbers
  subset property (a device decoded under non-orthogonal slicing is decoded
  under orthogonal slicing at the same rate), and M_max = 0 at r_B_out.

An operation is one CSV row. A check that fails marks the rows it speaks of;
a CSV with the wrong header or row count fails every row.
"""

from __future__ import annotations

import csv
import io
import math
import os
from dataclasses import dataclass, field, replace
from typing import Dict, List, Set

import numpy as np
from scipy.special import exp1, gammaincc, gammaincinv, ndtri

_Z95 = float(ndtri(0.975))
_PRINT = 5e-7 + 1e-9  # CSV floats are printed with 6 decimals
_GAMMA_REL = 1e-9  # target SNRs are printed with 10 significant digits
EDGE = 1e-6  # the printed orthogonal endpoint is probed at +- EDGE
OUTAGE_PREFIX = 1000  # trials of the outage prefix recount


def db_to_linear(x_db):
    return 10.0 ** (x_db / 10.0)


def wilson(p, n):
    z2 = _Z95 * _Z95
    return _Z95 * math.sqrt(p * (1.0 - p) / n + z2 / (4.0 * n * n)) / (1.0 + z2 / n)


@dataclass(frozen=True)
class ClosedForm:
    """Broadband operating point under truncated channel inversion."""

    a_B: float
    gamma_tar: float
    r_B_out: float


def closed_form(L, eps_B, gamma_bar_B):
    x = float(gammaincinv(L, eps_B))  # threshold SNR / gamma_bar_B
    a_B = float(gammaincc(L, x))
    # unit average power: gamma_tar = gamma_bar_B (L-1)! / Gamma(L-1, x)
    denom = float(exp1(x)) if L == 1 else float(gammaincc(L - 1, x)) / (L - 1)
    gamma_tar = gamma_bar_B / denom
    return ClosedForm(a_B=a_B, gamma_tar=gamma_tar, r_B_out=math.log2(1.0 + gamma_tar))


class Reference:
    """Per-realization reference route over the first T trials, memoized.

    The M-device draw of a trial is a column prefix of any larger draw
    (broadband vector first, then the MTC columns in device order), so one
    draw at the largest M serves every smaller M.
    """

    def __init__(self, params, seed):
        from slicesim.channel import SystemConfig, draw_realization
        from slicesim.sic_decoder import decode_non_orthogonal, decode_orthogonal

        self._cfg = SystemConfig(
            L=1, M=1, gamma_bar_B=db_to_linear(params["gamma_bar_B_db"]),
            gamma_bar_M=db_to_linear(params["gamma_bar_M_db"]),
            eps_B=params["eps_B"], eps_M=params["eps_M"], P_M=params["P_M"], seed=seed,
        )
        self._draw = draw_realization
        self._orth = decode_orthogonal
        self._nonorth = decode_non_orthogonal
        self._draws: Dict = {}
        self._counts: Dict = {}

    def draws(self, L, M, T):
        have = self._draws.get((L, T))
        if have is None or have[0] < M:
            cfg = replace(self._cfg, L=L, M=M)
            have = (M, [self._draw(cfg, t) for t in range(T)])
            self._draws[(L, T)] = have
        return [(r.g_B, r.G_M[:, :M]) for r in have[1]]

    def orth_errors(self, L, M, T, r_M):
        """Device-slot failures under orthogonal stop-on-failure decoding."""
        key = ("orth", L, M, T, r_M)
        if key not in self._counts:
            P = self._cfg.P_M
            self._counts[key] = sum(
                M - int(self._orth(G, P, r_M).mtc_decoded.sum())
                for _, G in self.draws(L, M, T)
            )
        return self._counts[key]

    def nonorth_errors(self, L, M, T, r_M, r_B, gamma):
        """(MTC device-slot failures, broadband failures), broadband power gamma / ||g_B||^2."""
        key = ("nonorth", L, M, T, r_M, r_B, gamma)
        if key not in self._counts:
            P = self._cfg.P_M
            mm = eb = 0
            for g_B, G in self.draws(L, M, T):
                d = float(np.real(np.vdot(g_B, g_B)))
                out = self._nonorth(G, g_B, P, gamma / d, r_M, r_B)
                mm += M - int(out.mtc_decoded.sum())
                eb += not out.embb_decoded
            self._counts[key] = (mm, eb)
        return self._counts[key]


@dataclass
class Report:
    expected: int
    failed: Set[int] = field(default_factory=set)
    notes: List[str] = field(default_factory=list)

    def check(self, ok, rows, message):
        if not ok:
            self.failed.update(rows)
            self.notes.append(message)
        return ok

    def fail_all(self, message):
        self.check(False, range(self.expected), message)


REGION_HEADER = ["mode", "L", "M", "alpha", "gamma_tar", "r_B", "r_M",
                 "eps_B_hat", "eps_M_hat", "halfwidth_B", "halfwidth_M"]
OUTAGE_HEADER = ["mode", "L", "M", "r_M", "r_B", "gamma_tar",
                 "eps_B_hat", "eps_M_hat", "halfwidth_B", "halfwidth_M"]
MAX_DEVICES_HEADER = ["mode", "L", "r_B", "M_max"]


def _num(text):
    return None if text == "" else float(text)


def _rows(text, header, report):
    """Rows as dicts of floats (None for empty cells; `mode` kept as text)."""
    reader = csv.reader(io.StringIO(text))
    lines = list(reader)
    if not lines or lines[0] != header or len(lines) - 1 != report.expected:
        report.fail_all(f"header or row count wrong ({len(lines) - 1} rows)")
        return None
    rows = []
    for i, line in enumerate(lines[1:]):
        try:
            row = {k: (v if k == "mode" else _num(v)) for k, v in zip(header, line)}
        except ValueError:
            report.check(False, [i], f"row {i}: unparsable {line}")
            row = None
        rows.append(row if len(line) == len(header) else None)
    return rows


def _printed(x, value):
    return x is not None and abs(x - value) <= _PRINT + 1e-12 * abs(value)


def _wilson_ok(p_hat, hw, n):
    return p_hat is not None and hw is not None and abs(hw - wilson(p_hat, n)) <= _PRINT + 1e-7


def _gamma_printed(x, value):
    return x is not None and abs(x - value) <= _GAMMA_REL * abs(value)


def _layout_ok(report, i, row, mode, L, M=None):
    ok = row is not None and row["mode"] == mode and row["L"] == L
    if ok and M is not None:
        ok = row["M"] == M
    return report.check(ok, [i], f"row {i}: expected mode {mode}, L {L}")


def check_region(wl, text, ref):
    p = wl.params
    T, M, A, B = p["trials"], p["M"], p["alpha_points"], p["r_b_points"]
    eps_B, eps_M = p["eps_B"], p["eps_M"]
    rep = Report(wl.rows())
    rows = _rows(text, REGION_HEADER, rep)
    if rows is None:
        return rep
    recount = {0, B // 2, B - 2}  # non-orthogonal rows recounted per L
    for li, L in enumerate(wl.L):
        base = li * (A + B)
        orth_idx = list(range(base, base + A))
        non_idx = list(range(base + A, base + A + B))
        if not all([_layout_ok(rep, i, rows[i], "orth", L, M) for i in orth_idx]
                   + [_layout_ok(rep, i, rows[i], "nonorth", L, M) for i in non_idx]):
            continue
        cf = closed_form(L, eps_B, db_to_linear(p["gamma_bar_B_db"]))
        r_hat = rows[orth_idx[0]]["r_M"]
        for i, a in zip(orth_idx, np.linspace(0.0, 1.0, A)):
            row = rows[i]
            rep.check(
                _printed(row["alpha"], a) and row["gamma_tar"] is None
                and _printed(row["r_B"], a * cf.r_B_out)
                and abs(row["r_M"] - (1.0 - a) * r_hat) <= 2 * _PRINT
                and _printed(row["eps_B_hat"], 1.0 - cf.a_B) and row["halfwidth_B"] == 0.0
                and row["eps_M_hat"] <= eps_M
                and _wilson_ok(row["eps_M_hat"], row["halfwidth_M"], M * T),
                [i], f"region L={L} orth row {i}: off the time-sharing line or closed form",
            )
        lo = ref.orth_errors(L, M, T, max(r_hat - EDGE, 0.0))
        hi = ref.orth_errors(L, M, T, r_hat + EDGE)
        rep.check(
            lo / (M * T) <= eps_M < hi / (M * T), orth_idx,
            f"region L={L}: reference outage at r_hat -+ {EDGE} is {lo}, {hi} "
            f"of {M * T}, eps_M {eps_M}: r_hat={r_hat} is not the orthogonal endpoint",
        )
        for j, (i, r_B) in enumerate(zip(non_idx, np.linspace(0.0, cf.r_B_out, B))):
            row = rows[i]
            r_M, g = row["r_M"], row["gamma_tar"]
            ok = (_printed(row["r_B"], r_B) and row["alpha"] is None
                  and r_M is not None and 0.0 <= r_M <= r_hat and g is not None)
            if ok and j == B - 1:
                # r_B = r_B_out: no admissible target SNR is left, the rate is 0
                ok = (r_M == 0.0 and _gamma_printed(g, cf.gamma_tar)
                      and row["eps_B_hat"] == 0.0 and row["eps_M_hat"] == 0.0
                      and row["halfwidth_B"] in (0.0, round(wilson(0.0, T), 6))
                      and row["halfwidth_M"] in (0.0, round(wilson(0.0, M * T), 6)))
            elif ok:
                ok = (g > (2.0**r_B - 1.0) * (1.0 - _GAMMA_REL)
                      and g <= cf.gamma_tar * (1.0 + _GAMMA_REL)
                      and row["eps_B_hat"] <= eps_B and row["eps_M_hat"] <= eps_M
                      and _wilson_ok(row["eps_B_hat"], row["halfwidth_B"], T)
                      and _wilson_ok(row["eps_M_hat"], row["halfwidth_M"], M * T))
            if not rep.check(ok, [i], f"region L={L} nonorth row {i}: bounds, targets or "
                             "half-widths violated"):
                continue
            if j in recount:
                mm, eb = ref.nonorth_errors(L, M, T, r_M, float(r_B), g)
                # printing r_M and gamma at fixed digits can move one trial
                rep.check(
                    abs(eb / T - row["eps_B_hat"]) <= 1.0 / T + _PRINT
                    and abs(mm / (M * T) - row["eps_M_hat"]) <= 1.0 / T + _PRINT,
                    [i], f"region L={L} nonorth row {i}: reference recount {eb}/{T}, "
                    f"{mm}/{M * T} differs from the printed estimates",
                )
    return rep


def check_max_devices(wl, text, ref, min_feasible_gamma):
    """min_feasible_gamma(L, M, r_B, r_M) -> the target SNR the program's
    search accepts at M devices; the reference recount then witnesses it."""
    p = wl.params
    T, B, r_M = p["trials"], p["r_b_points"], p["r_M"]
    eps_B, eps_M = p["eps_B"], p["eps_M"]
    rep = Report(wl.rows())
    rows = _rows(text, MAX_DEVICES_HEADER, rep)
    if rows is None:
        return rep
    for li, L in enumerate(wl.L):
        orth_idx = list(range(li * 2 * B, li * 2 * B + B))
        non_idx = [i + B for i in orth_idx]
        if not all([_layout_ok(rep, i, rows[i], "orth", L) for i in orth_idx]
                   + [_layout_ok(rep, i, rows[i], "nonorth", L) for i in non_idx]):
            continue
        cf = closed_form(L, eps_B, db_to_linear(p["gamma_bar_B_db"]))
        grid = np.linspace(0.0, cf.r_B_out, B)
        m_max = {}
        for i, r_B in zip(orth_idx + non_idx, list(grid) * 2):
            m = rows[i]["M_max"]
            if rep.check(_printed(rows[i]["r_B"], r_B) and m is not None and m >= 0
                         and m == int(m), [i], f"max-devices row {i}: r_B grid or M_max"):
                m_max[i] = int(m)
        if len(m_max) < 2 * B:
            continue
        rep.check(m_max[orth_idx[-1]] == 0 and m_max[non_idx[-1]] == 0,
                  [orth_idx[-1], non_idx[-1]], f"max-devices L={L}: M_max > 0 at r_B_out")
        rep.check(m_max[orth_idx[0]] == m_max[non_idx[0]], [orth_idx[0], non_idx[0]],
                  f"max-devices L={L}: modes disagree at r_B = 0")
        ref.draws(L, max(m_max.values()) + 1, T)  # one draw serves every M
        for j in range(B - 1):
            r_B = float(grid[j])
            i, m = orth_idx[j], m_max[orth_idx[j]]
            required = r_M / (1.0 - r_B / cf.r_B_out)
            ok_m = m == 0 or ref.orth_errors(L, m, T, required) / (m * T) <= eps_M
            bad_next = ref.orth_errors(L, m + 1, T, required) / ((m + 1) * T) > eps_M
            rep.check(ok_m and bad_next, [i], f"max-devices L={L} orth r_B={r_B:.6f}: "
                      f"reference route disagrees with M_max={m}")
            i, m = non_idx[j], m_max[non_idx[j]]
            if m == 0:
                continue
            g = min_feasible_gamma(L, m, r_B, r_M)
            ok = g is not None
            if ok:
                mm, eb = ref.nonorth_errors(L, m, T, r_M, r_B, g)
                ok = eb / T <= eps_B and mm / (m * T) <= eps_M
            rep.check(ok, [i], f"max-devices L={L} nonorth r_B={r_B:.6f}: no reference "
                      f"witness of feasibility at M_max={m} (gamma {g})")
    return rep


def check_outage(wl, text, ref, prefix_text):
    """prefix_text: the CSV of the same command over the first OUTAGE_PREFIX trials."""
    p = wl.params
    T, M, r_M, r_B = p["trials"], p["M"], p["r_M"], p["r_B"]
    rep = Report(wl.rows())
    rows = _rows(text, OUTAGE_HEADER, rep)
    if rows is None:
        return rep
    prefix = _rows(prefix_text, OUTAGE_HEADER, Report(wl.rows()))
    P = OUTAGE_PREFIX
    for li, L in enumerate(wl.L):
        io_, in_ = 2 * li, 2 * li + 1
        if not (_layout_ok(rep, io_, rows[io_], "orth", L, M)
                and _layout_ok(rep, in_, rows[in_], "nonorth", L, M)):
            continue
        cf = closed_form(L, p["eps_B"], db_to_linear(p["gamma_bar_B_db"]))
        orth, non = rows[io_], rows[in_]
        rep.check(
            _printed(orth["r_M"], r_M) and orth["r_B"] is None and orth["gamma_tar"] is None
            and orth["eps_B_hat"] is None and orth["halfwidth_B"] is None
            and _wilson_ok(orth["eps_M_hat"], orth["halfwidth_M"], M * T),
            [io_], f"outage L={L} orth: fields or half-width",
        )
        rep.check(
            _printed(non["r_M"], r_M) and _printed(non["r_B"], r_B)
            and _gamma_printed(non["gamma_tar"], cf.gamma_tar)
            and _wilson_ok(non["eps_B_hat"], non["halfwidth_B"], T)
            and _wilson_ok(non["eps_M_hat"], non["halfwidth_M"], M * T),
            [in_], f"outage L={L} nonorth: fields, target SNR cap or half-widths",
        )
        rep.check(
            orth["eps_M_hat"] is not None and non["eps_M_hat"] is not None
            and non["eps_M_hat"] >= orth["eps_M_hat"],
            [io_, in_], f"outage L={L}: non-orthogonal MTC outage below orthogonal",
        )
        mm_o = ref.orth_errors(L, M, P, r_M)
        mm_n, eb_n = ref.nonorth_errors(L, M, P, r_M, r_B, cf.gamma_tar)
        lib = (prefix is not None and prefix[io_] is not None and prefix[in_] is not None)
        rep.check(
            lib and _printed(prefix[io_]["eps_M_hat"], mm_o / (M * P))
            and _printed(prefix[in_]["eps_M_hat"], mm_n / (M * P))
            and _printed(prefix[in_]["eps_B_hat"], eb_n / P),
            [io_, in_], f"outage L={L}: the program on the first {P} trials differs from "
            f"the reference recount ({mm_o}, {mm_n}, {eb_n})",
        )
    return rep


class Checker:
    """Checks one workload's CSVs for one seed; reference draws are shared
    across calls, so checking several CSVs costs little more than one."""

    def __init__(self, wl, seed, config_path, workdir):
        self.wl, self.seed = wl, seed
        self.config_path, self.workdir = config_path, workdir
        self.ref = Reference(wl.params, seed)
        self._prefix = None

    def __call__(self, text) -> Report:
        if self.wl.command == "region":
            return check_region(self.wl, text, self.ref)
        if self.wl.command == "max-devices":
            return check_max_devices(self.wl, text, self.ref, self.min_feasible_gamma)
        return check_outage(self.wl, text, self.ref, self.prefix_csv())

    def min_feasible_gamma(self, L, M, r_B, r_M):
        """Target SNR accepted by the program's own search at M devices."""
        from slicesim.channel import SystemConfig
        from slicesim.slicing_search import min_feasible_gamma_tar

        p = self.wl.params
        cfg = SystemConfig(
            L=L, M=M, gamma_bar_B=db_to_linear(p["gamma_bar_B_db"]),
            gamma_bar_M=db_to_linear(p["gamma_bar_M_db"]), eps_B=p["eps_B"],
            eps_M=p["eps_M"], P_M=p["P_M"], trials=p["trials"], seed=self.seed,
        )
        return min_feasible_gamma_tar(cfg, r_B, r_M)

    def prefix_csv(self):
        """The same command through the CLI over the first OUTAGE_PREFIX trials."""
        if self._prefix is None:
            from slicesim.cli import main

            out = os.path.join(self.workdir, "prefix.csv")
            argv = self.wl.argv(self.seed, self.config_path, out, trials=OUTAGE_PREFIX)
            self._prefix = ""
            if main(argv) == 0:
                with open(out) as fh:
                    self._prefix = fh.read()
        return self._prefix
