"""Self-test of the output checks: each workload's checker must accept the
CSV the program writes and reject doctored copies of it.

Usage (from the root of the repository):

    python3 perfbench/selftest.py [--seed N] [--workload NAME]

Each doctored copy changes what one check looks at, and keeps the rest
consistent where it can (for example, a raised estimate comes with its
matching Wilson half-width), so that the named check is the one that has to
catch it. Exits with code 1 if a doctored CSV is accepted or the genuine one
is rejected.
"""

from __future__ import annotations

import argparse
import csv
import io
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

from checks import (  # noqa: E402
    OUTAGE_PREFIX, Checker, check_outage, closed_form, db_to_linear, wilson,
)
from workloads import WORKLOADS  # noqa: E402


def edit(text, changes):
    """Apply {(row, column): value} to a CSV (row 0 is the first data row)."""
    lines = list(csv.reader(io.StringIO(text)))
    header = lines[0]
    for (row, col), value in changes.items():
        lines[row + 1][header.index(col)] = value if isinstance(value, str) else f"{value:.6f}"
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(lines)
    return buf.getvalue()


def cell(text, row, col):
    lines = list(csv.reader(io.StringIO(text)))
    return float(lines[row + 1][lines[0].index(col)])


def region_cases(wl, text):
    p = wl.params
    A, B, T, M = p["alpha_points"], p["r_b_points"], p["trials"], p["M"]
    r_hat = cell(text, 0, "r_M")
    mid = A // 2
    non_mid, recount = A + B // 2, A + B - 2
    eps_M = cell(text, recount, "eps_M_hat") + 3.0 / T
    cap = closed_form(wl.L[0], p["eps_B"], db_to_linear(p["gamma_bar_B_db"])).gamma_tar
    return {
        "orthogonal r_M raised by 1e-3": {(mid, "r_M"): cell(text, mid, "r_M") + 1e-3},
        "orthogonal line through r_hat + 1e-5 (reference endpoint)": {
            (i, "r_M"): (1.0 - i / (A - 1)) * (r_hat + 1e-5) for i in range(A)},
        "orthogonal eps_B_hat off 1 - a_B by 1e-4": {
            (i, "eps_B_hat"): cell(text, i, "eps_B_hat") + 1e-4 for i in range(A)},
        "non-orthogonal half-width altered by 1e-4": {
            (non_mid, "halfwidth_M"): cell(text, non_mid, "halfwidth_M") + 1e-4},
        "non-orthogonal r_M above the orthogonal endpoint": {(non_mid, "r_M"): r_hat + 1e-3},
        "non-orthogonal gamma_tar above the cap": {(non_mid, "gamma_tar"): f"{cap * 1.001:.10g}"},
        "non-orthogonal eps_M_hat +3 trials, Wilson kept (reference recount)": {
            (recount, "eps_M_hat"): eps_M, (recount, "halfwidth_M"): wilson(eps_M, M * T)},
    }


def max_devices_cases(wl, text):
    B = wl.params["r_b_points"]
    m = {i: int(cell(text, i, "M_max")) for i in range(2 * B)}
    return {
        "orthogonal M_max raised by 1": {(1, "M_max"): str(m[1] + 1)},
        "orthogonal M_max lowered by 1": {(1, "M_max"): str(m[1] - 1)},
        "non-orthogonal M_max raised by 1": {(B + 1, "M_max"): str(m[B + 1] + 1)},
        "non-orthogonal M_max at r_B = 0 raised by 1": {(B, "M_max"): str(m[B] + 1)},
        "M_max = 1 at r_B_out": {(B - 1, "M_max"): "1"},
    }


def outage_cases(wl, text):
    p = wl.params
    T, M = p["trials"], p["M"]
    # the L = 8 pair, whose estimates lie strictly between 0 and 1
    o, n = 2, 3
    eps_o = cell(text, n, "eps_M_hat") + 1e-3
    return {
        "half-width altered by 1e-5": {(o, "halfwidth_M"): cell(text, o, "halfwidth_M") + 1e-5},
        "gamma_tar 0.1% above the cap": {
            (n, "gamma_tar"): f"{cell(text, n, 'gamma_tar') * 1.001:.10g}"},
        "orthogonal eps_M_hat above non-orthogonal, Wilson kept": {
            (o, "eps_M_hat"): eps_o, (o, "halfwidth_M"): wilson(eps_o, M * T)},
    }


CASES = {"region": region_cases, "max-devices": max_devices_cases, "outage": outage_cases}


def selftest(name, seed, workdir):
    from slicesim.cli import main

    wl = WORKLOADS[name]
    workdir.mkdir(parents=True)
    config = workdir / "config.txt"
    config.write_text(wl.config_text())
    out = workdir / "genuine.csv"
    if main(wl.argv(seed, str(config), str(out))) != 0:
        print(f"{name}: the command failed")
        return False
    text = out.read_text()
    checker = Checker(wl, seed, str(config), str(workdir))
    ok = True

    def report(label, rep, want_rejected):
        nonlocal ok
        rejected = bool(rep.failed)
        good = rejected == want_rejected
        ok &= good
        verdict = "rejected" if rejected else "accepted"
        print(f"{'ok ' if good else 'BAD'} {name}: {label}: {verdict} "
              f"({len(rep.failed)} rows){': ' + rep.notes[0] if rep.notes else ''}")

    report("genuine CSV", checker(text), False)
    for label, changes in CASES[name](wl, text).items():
        report(label, checker(edit(text, changes)), True)
    if name == "outage":
        prefix = checker.prefix_csv()
        mm = cell(prefix, 2, "eps_M_hat") + 1.0 / (wl.params["M"] * OUTAGE_PREFIX)
        report("prefix estimate one device-slot off the reference recount",
               check_outage(wl, text, checker.ref, edit(prefix, {(2, "eps_M_hat"): mm})), True)
    return ok


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    args = parser.parse_args(argv)
    root = HERE / "out" / f"selftest-seed{args.seed}"
    shutil.rmtree(root, ignore_errors=True)
    names = [args.workload] if args.workload else list(WORKLOADS)
    results = [selftest(name, args.seed, root / name) for name in names]
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())
