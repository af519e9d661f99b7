"""Command-line interface: config ingestion, experiment orchestration, CSV output.

Config files are flat `key = value` text ('#' starts a comment). Average
channel gains are accepted either linear (`gamma_bar_B`) or in dB
(`gamma_bar_B_db`), exactly one form per gain; conversion to linear happens
here, once, and everything downstream is linear. `L` may be a single value
or a comma-separated sweep. The two named presets reproduce the reference
experiment shapes (rate-region sweep at M = 10, and max-device sweep at
r_M = 0.25) over L in {1, 2, 4, 8, 16}.

Commands
    embb-analytic  closed-form broadband operating point per L
    outage         Monte Carlo outage estimates at a fixed operating point
    region         achievable (r_B, r_M) pairs, orthogonal and/or non-orthogonal
    max-devices    largest supportable device count over an r_B grid

Exit codes: 0 success, 2 configuration error, 1 runtime error.
"""

from __future__ import annotations

import argparse
import csv
import io
import math
import sys
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .channel import SystemConfig, db_to_linear, rate_threshold
from .embb_analysis import operating_point
from .monte_carlo import build_trial_tables, count_trials, wilson_half_width
from .slicing_search import (
    M_CAP,
    max_devices,
    max_mmtc_rate_orth,
    nonorthogonal_region,
    orthogonal_region,
)

__all__ = [
    "ConfigError",
    "ExperimentSpec",
    "parse_spec",
    "run_embb_analytic",
    "run_outage",
    "run_region",
    "run_max_devices",
    "main",
]

COMMANDS = ("embb-analytic", "outage", "region", "max-devices")
MODES = ("orth", "nonorth", "both")


class ConfigError(ValueError):
    """Invalid configuration input; maps to exit code 2."""


@dataclass(frozen=True)
class ExperimentSpec:
    """Parsed experiment: canonical scenario (linear gains) plus grid and
    command controls. L_values is the antenna sweep, whose first entry is
    the scenario's L; a single L is a sweep of one."""

    scenario: SystemConfig
    command: str
    L_values: Tuple[int, ...]
    mode: str = "both"
    alpha_points: int = 41
    r_b_points: int = 41
    r_M: Optional[float] = None
    r_B: Optional[float] = None
    gamma_tar: Optional[float] = None

    def __post_init__(self):
        if self.command not in COMMANDS:
            raise ConfigError(f"unknown command {self.command!r}")
        if self.mode not in MODES:
            raise ConfigError(f"mode must be one of {MODES}, got {self.mode!r}")
        if self.alpha_points < 1:
            raise ConfigError(f"alpha_points must be >= 1, got {self.alpha_points}")
        if self.r_b_points < 1:
            raise ConfigError(f"r_b_points must be >= 1, got {self.r_b_points}")
        if self.command in ("outage", "region") and self.scenario.M < 1:
            raise ConfigError(
                f"the {self.command} command needs M >= 1, got {self.scenario.M}"
            )
        for name in ("r_M", "r_B", "gamma_tar"):
            value = getattr(self, name)
            if value is not None and not math.isfinite(value):
                raise ConfigError(f"config field {name!r} must be finite, got {value}")
        for name in ("r_M", "r_B"):
            value = getattr(self, name)
            if value is not None and value >= 1024:
                raise ConfigError(
                    f"config field {name!r} must be below 1024, where 2^{name} - 1 "
                    f"overflows a double, got {value}"
                )
        if self.command == "max-devices" and self.r_M is not None and self.r_M <= 0:
            raise ConfigError(f"config field 'r_M' must be positive, got {self.r_M}")


_SCENARIO_KEYS = {
    "L", "M", "gamma_bar_B", "gamma_bar_B_db", "gamma_bar_M", "gamma_bar_M_db",
    "eps_B", "eps_M", "P_M", "trials", "seed",
}
_EXPERIMENT_KEYS = {"mode", "alpha_points", "r_b_points", "r_M", "r_B", "gamma_tar"}

_PRESET_COMMON = dict(
    gamma_bar_B=db_to_linear(20.0),
    gamma_bar_M=db_to_linear(5.0),
    eps_B=1e-3,
    eps_M=1e-1,
    P_M=1.0,
    M=10,
    trials=100_000,
    seed=0,
    L_values=(1, 2, 4, 8, 16),
    mode="both",
)
PRESETS: Dict[str, Dict] = {
    "fig3": dict(_PRESET_COMMON),
    "fig5": dict(_PRESET_COMMON, r_M=0.25),
}


def _parse_kv(text: str) -> Dict[str, str]:
    raw: Dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {line!r}")
        key, value = (part.strip() for part in stripped.split("=", 1))
        if not key or not value:
            raise ConfigError(f"line {lineno}: empty key or value in {line!r}")
        if key in raw:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        raw[key] = value
    return raw


def _convert(key: str, value: str):
    try:
        if key in ("M", "trials", "seed", "alpha_points", "r_b_points"):
            return int(value)
        if key == "L":
            return tuple(int(v) for v in value.split(","))
        if key == "mode":
            return value
        if key.endswith("_db"):  # a gain in dB, linear from here on
            return db_to_linear(float(value))
        return float(value)
    except (ValueError, OverflowError) as exc:
        raise ConfigError(f"config field {key!r} = {value!r}: {exc}") from exc


def parse_spec(
    command: str,
    config_text: Optional[str] = None,
    preset: Optional[str] = None,
    *,
    seed: Optional[int] = None,
    trials: Optional[int] = None,
) -> ExperimentSpec:
    """Assemble a spec from (preset defaults) <- (config file) <- (overrides)."""
    merged: Dict = {}
    if preset is not None:
        if preset not in PRESETS:
            raise ConfigError(f"unknown preset {preset!r}")
        merged.update(PRESETS[preset])
    if config_text is not None:
        raw = _parse_kv(config_text)
        unknown = set(raw) - _SCENARIO_KEYS - _EXPERIMENT_KEYS
        if unknown:
            raise ConfigError(f"unknown config key {sorted(unknown)[0]!r}")
        for gain in ("gamma_bar_B", "gamma_bar_M"):
            if gain in raw and f"{gain}_db" in raw:
                raise ConfigError(f"config field {gain!r}: give linear or _db form, not both")
        for key, value in raw.items():
            converted = _convert(key, value)
            if key == "L":
                merged["L_values"] = converted
            else:
                merged[key.removesuffix("_db")] = converted
    if not merged:
        raise ConfigError("no configuration given: need --config and/or --preset")
    if seed is not None:
        merged["seed"] = seed
    if trials is not None:
        merged["trials"] = trials

    missing = [
        k for k in ("L_values", "M", "gamma_bar_B", "gamma_bar_M", "eps_B", "eps_M")
        if k not in merged
    ]
    if missing:
        name = "L" if missing[0] == "L_values" else missing[0]
        raise ConfigError(f"config field {name!r} is required")
    L_values = tuple(merged.pop("L_values"))
    experiment = {k: merged.pop(k) for k in list(merged) if k in _EXPERIMENT_KEYS}
    try:  # every antenna count of a sweep, before any command runs
        scenarios = [SystemConfig(L=L, **merged) for L in L_values]
        for cfg in scenarios:  # a gain that overflows a double raises
            operating_point(cfg)
            if command == "max-devices":  # M is a template: the search probes to M_CAP
                replace(cfg, M=M_CAP)
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc
    return ExperimentSpec(
        scenario=scenarios[0], command=command, L_values=L_values, **experiment
    )


def _fmt(x) -> str:
    if x is None:
        return ""
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return f"{x:.6f}"


def _fmt_gamma(x) -> str:
    # target SNRs span ~1e-7 (vanishing interference) to ~1e4: keep
    # significant digits rather than fixed decimals
    return "" if x is None else f"{x:.10g}"


def _write_csv(header: Sequence[str], rows: List[Sequence], out: Optional[str]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([_fmt(v) if not isinstance(v, str) else v for v in row])
    text = buf.getvalue()
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", newline="") as fh:
            fh.write(text)
    return text


def run_embb_analytic(spec: ExperimentSpec, out: Optional[str] = None) -> str:
    """Closed-form broadband operating point, one row per antenna count."""
    rows = []
    for L in spec.L_values:
        op = operating_point(replace(spec.scenario, L=L))
        rows.append((L, op.gamma_min, op.gamma_tar, op.a_B, op.r_B_out))
    return _write_csv(["L", "gamma_min", "gamma_tar", "a_B", "r_B_out"], rows, out)


def _nonorth_stats(cfg: SystemConfig, counts: Tuple[int, int]) -> Tuple:
    """(eps_B_hat, eps_M_hat, halfwidth_B, halfwidth_M) from the
    `nonorth_error_counts` of one non-orthogonal operating point."""
    n_M, n_B = cfg.M * cfg.trials, cfg.trials
    p_M, p_B = counts[0] / n_M, counts[1] / n_B
    return p_B, p_M, wilson_half_width(p_B, n_B), wilson_half_width(p_M, n_M)


_OUTAGE_HEADER = [
    "mode", "L", "M", "r_M", "r_B", "gamma_tar",
    "eps_B_hat", "eps_M_hat", "halfwidth_B", "halfwidth_M",
]


def _outage_targets(spec: ExperimentSpec) -> List[Optional[float]]:
    """The broadband target SNR per antenna count (None each in orthogonal
    mode), after checking the outage operating point: r_M is required,
    nonorth also needs r_B, and gamma_tar defaults to the average-power cap."""
    if spec.r_M is None:
        raise ConfigError("config field 'r_M' is required for the outage command")
    nonorth = spec.mode in ("nonorth", "both")
    if nonorth and spec.r_B is None:
        raise ConfigError("config field 'r_B' is required for non-orthogonal outage")
    thresholds = {}
    for name in ("r_M", "r_B"):
        value = getattr(spec, name)
        try:
            thresholds[name] = None if value is None else rate_threshold(value)
        except ValueError as exc:
            raise ConfigError(f"config field {name!r}: {exc}") from exc
    if not nonorth:
        return [None] * len(spec.L_values)
    thr_B = thresholds["r_B"]
    gammas = []
    for L in spec.L_values:
        op = operating_point(replace(spec.scenario, L=L))
        gamma = spec.gamma_tar if spec.gamma_tar is not None else op.gamma_tar
        if not gamma > thr_B:
            raise ConfigError(
                f"gamma_tar = {gamma} must exceed 2^r_B - 1 = {thr_B} "
                f"at r_B = {spec.r_B} (L = {L})"
            )
        gammas.append(gamma)
    return gammas


def run_outage(spec: ExperimentSpec, out: Optional[str] = None, workers: int = 1) -> str:
    """Outage estimates at a fixed operating point, one row per antenna
    count and slicing mode, after the operating point is checked.

    The error counts add up over trials, so they are counted chunk by
    chunk (`count_trials`) and no trial table is built: what the command
    holds does not grow with the trial budget or the antenna sweep. Per
    chunk and antenna count, the orthogonal count is
    `mmtc_orth_error_count` and the non-orthogonal one
    `nonorth_error_counts` on the MTC thresholds at r_M.
    """
    gammas = dict(zip(spec.L_values, _outage_targets(spec)))
    orth = spec.mode in ("orth", "both")

    def count(table):
        orth_errors = table.mmtc_orth_error_count(spec.r_M) if orth else 0
        gamma = gammas[table.cfg.L]
        if gamma is None:
            return (orth_errors,)
        mtc = table.mmtc_thresholds(spec.r_M)
        return (orth_errors,) + table.nonorth_error_counts(mtc, spec.r_B, gamma)

    cfg = spec.scenario  # every antenna count's M and trials
    totals = count_trials(cfg, spec.L_values, count, workers=workers)
    rows = []
    for L, (orth_errors, *counts) in zip(spec.L_values, totals):
        if orth:
            n = cfg.M * cfg.trials
            p = orth_errors / n
            rows.append(
                ("orth", L, cfg.M, spec.r_M, None, None,
                 None, p, None, wilson_half_width(p, n))
            )
        if gammas[L] is not None:
            rows.append(
                ("nonorth", L, cfg.M, spec.r_M, spec.r_B, _fmt_gamma(gammas[L]))
                + _nonorth_stats(cfg, counts)
            )
    return _write_csv(_OUTAGE_HEADER, rows, out)


_REGION_HEADER = [
    "mode", "L", "M", "alpha", "gamma_tar", "r_B", "r_M",
    "eps_B_hat", "eps_M_hat", "halfwidth_B", "halfwidth_M",
]


def run_region(spec: ExperimentSpec, out: Optional[str] = None, workers: int = 1) -> str:
    """Achievable rate pairs over the requested grids, one CSV row per point."""
    rows = []
    nonorth = spec.mode in ("nonorth", "both")
    tables = build_trial_tables(spec.scenario, spec.L_values, workers=workers)
    for table in tables:
        cfg = table.cfg
        L = cfg.L
        op = operating_point(cfg)
        r_M_out = max_mmtc_rate_orth(table)
        if spec.mode in ("orth", "both"):
            n = cfg.M * cfg.trials
            p = table.mmtc_orth_error_count(r_M_out) / n
            alphas = np.linspace(0.0, 1.0, spec.alpha_points)
            for alpha, (r_B, r_M) in zip(alphas, orthogonal_region(cfg, alphas, r_M_out)):
                rows.append(
                    ("orth", L, cfg.M, alpha, None, r_B, r_M,
                     1.0 - op.a_B, p, 0.0, wilson_half_width(p, n))
                )
        if nonorth:
            grid = np.linspace(0.0, op.r_B_out, spec.r_b_points)
            for r_B, r_M, gamma, counts in nonorthogonal_region(table, grid, r_M_out):
                if counts is None:
                    # degenerate grid endpoint (r_B at the outage rate): the
                    # accepted rate is 0, where both error probabilities vanish
                    stats = (0.0, 0.0, 0.0, 0.0)
                else:
                    stats = _nonorth_stats(cfg, counts)
                rows.append(
                    ("nonorth", L, cfg.M, None, _fmt_gamma(gamma), r_B, r_M) + stats
                )
    return _write_csv(_REGION_HEADER, rows, out)


def run_max_devices(spec: ExperimentSpec, out: Optional[str] = None, workers: int = 1) -> str:
    """Largest supportable device count over an r_B grid (default r_M 0.25)."""
    r_M = spec.r_M if spec.r_M is not None else 0.25
    rows = []
    for L in spec.L_values:
        cfg = replace(spec.scenario, L=L)
        op = operating_point(cfg)
        grid = np.linspace(0.0, op.r_B_out, spec.r_b_points)
        points = [
            (float(r_B), mode)
            for mode in ("orth", "nonorth")
            if spec.mode in (mode, "both")
            for r_B in grid
        ]
        m_max = max_devices(cfg, r_M, points, workers=workers)
        rows.extend((mode, L, r_B, m) for (r_B, mode), m in zip(points, m_max))
    return _write_csv(["mode", "L", "r_B", "M_max"], rows, out)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="slicesim",
        description="Uplink eMBB/mMTC slicing simulator (MRC-SIC, Monte Carlo)",
    )
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--config", help="flat key=value config file")
    parser.add_argument("--preset", choices=sorted(PRESETS), help="named parameter set")
    parser.add_argument("--seed", type=int, help="override the scenario seed")
    parser.add_argument("--trials", type=int, help="override the trial budget")
    parser.add_argument("--workers", type=int, default=1,
                        help="max threads for trial generation (never affects results)")
    parser.add_argument("--out", help="output CSV path (default: stdout)")
    args = parser.parse_args(argv)

    try:
        if args.workers < 1:
            raise ConfigError(f"--workers must be >= 1, got {args.workers}")
        config_text = None
        if args.config is not None:
            try:
                with open(args.config) as fh:
                    config_text = fh.read()
            except OSError as exc:
                raise ConfigError(f"cannot read config file: {exc}") from exc
        spec = parse_spec(
            args.command, config_text, args.preset, seed=args.seed, trials=args.trials
        )
        if args.command == "embb-analytic":
            run_embb_analytic(spec, out=args.out)
        elif args.command == "outage":
            run_outage(spec, out=args.out, workers=args.workers)
        elif args.command == "region":
            run_region(spec, out=args.out, workers=args.workers)
        else:
            run_max_devices(spec, out=args.out, workers=args.workers)
    except ConfigError as exc:
        print(f"slicesim: config error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"slicesim: error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
