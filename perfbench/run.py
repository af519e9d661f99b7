"""Benchmark of slicesim's commands, end to end and per layer.

Usage (from the root of the repository):

    python3 perfbench/run.py --workload region --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py            # every workload in turn, seed 1

Each round runs one workload's command in a fresh process through the
program's own entry point, `slicesim.cli.main`, with a preset, a config and
flags, as a user would (see child.py). Rounds repeat for about `--seconds`;
the reported times are medians over the rounds. The CSV of every round is
checked after the timed rounds (see checks.py); an operation is one CSV row.

With `--trace 0` no wrappers are installed and the end-to-end metrics are
reported. With `--trace 1` untraced and traced rounds alternate; the traced
rounds give the per-layer metrics (see tracing.py) and the difference of the
median wall times is the tracing overhead.

The last line of standard output is one JSON object: correct, attempted,
failed and metrics. The program is taken from ./src of the checkout; without
it the benchmark exits with code 1 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
ROUND_TIMEOUT_S = 150.0  # one round, well above the largest workload

sys.path.insert(0, str(HERE))
sys.path.insert(0, str(SRC))  # the checks import the program under test
from workloads import WORKLOADS  # noqa: E402


class HarnessError(RuntimeError):
    """The benchmark itself could not run a round (no program, crash)."""


def load_spec():
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def units_of(metrics):
    return {m["name"]: m["unit"] for m in metrics}


def run_round(wl, seed, workdir, k, traced):
    req = {
        "src": str(SRC),
        "argv": wl.argv(seed, str(workdir / "config.txt"), str(workdir / f"round{k}.csv")),
        "config": str(workdir / "config.txt"),
        "preset": wl.preset,
        "seed": seed,
        "trace": traced,
        "result": str(workdir / f"round{k}.json"),
    }
    req_path = workdir / f"request{k}.json"
    req_path.write_text(json.dumps(req))
    launch = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "child.py"), str(req_path)],
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
            timeout=ROUND_TIMEOUT_S, cwd=ROOT,
        )
    except subprocess.TimeoutExpired as exc:
        raise HarnessError(f"round {k} exceeded {ROUND_TIMEOUT_S} s") from exc
    if proc.returncode != 0:
        raise HarnessError(f"round {k} could not run:\n{proc.stderr}")
    result = json.loads(Path(req["result"]).read_text())
    result["setup_s"] = result["ready"] - launch
    result["traced"] = traced
    csv_path = Path(req["argv"][-1])
    result["csv"] = csv_path.read_text() if result["rc"] == 0 and csv_path.exists() else None
    return result


def run_rounds(wl, seed, seconds, trace, workdir):
    """Whole rounds until the next one would end further from the deadline."""
    rounds = []
    start = time.monotonic()
    while True:
        rounds.append(run_round(wl, seed, workdir, len(rounds), trace and len(rounds) % 2 == 1))
        elapsed = time.monotonic() - start
        per_round = elapsed / len(rounds)
        if trace and len(rounds) < 2:
            continue
        if elapsed + per_round / 2 >= seconds or elapsed + per_round > ROUND_TIMEOUT_S:
            return rounds


def check_rounds(wl, seed, rounds, workdir):
    """(failed operations, notes) over every round's CSV."""
    from checks import Checker

    checker = Checker(wl, seed, str(workdir / "config.txt"), str(workdir))
    reports, failed, notes = {}, 0, []
    first = next((r["csv"] for r in rounds if r["csv"] is not None), None)
    for k, r in enumerate(rounds):
        if r["csv"] is None:
            failed += wl.rows()
            notes.append(f"round {k}: the command exited with code {r['rc']}")
            continue
        if r["csv"] not in reports:
            reports[r["csv"]] = checker(r["csv"])
            notes += reports[r["csv"]].notes
        bad = set(reports[r["csv"]].failed)
        # identical inputs must give identical bytes
        lines, ref_lines = r["csv"].splitlines()[1:], first.splitlines()[1:]
        bad |= {i for i, line in enumerate(lines) if i >= len(ref_lines) or line != ref_lines[i]}
        if bad - set(reports[r["csv"]].failed):
            notes.append(f"round {k}: CSV differs from round 0")
        failed += len(bad)
    return failed, notes


def end_to_end(rounds):
    return {name: statistics.median(r[name] for r in rounds)
            for name in ("setup_s", "wall_s", "cpu_s", "peak_rss_mb")}


def per_layer(rounds, units):
    from tracing import layer_metrics

    traced = [r for r in rounds if r["traced"]]
    plain = [r for r in rounds if not r["traced"]]
    layers = [layer_metrics(r["spans"]) for r in traced]
    values = {}
    for name in layers[0]:
        if units.get(name) == "s":
            values[name] = statistics.median(m[name] for m in layers)
        else:
            values[name] = layers[0][name]
    repeat = all(m[n] == layers[0][n] for m in layers for n in m if units.get(n) != "s")
    wall_traced = statistics.median(r["wall_s"] for r in traced)
    wall_plain = statistics.median(r["wall_s"] for r in plain)
    values["trace.overhead_s"] = wall_traced - wall_plain
    values["trace.overhead_ratio"] = (wall_traced - wall_plain) / wall_plain
    csv = next((r["csv"] for r in rounds if r["csv"] is not None), "")
    values["cli.csv_bytes"] = len(csv.encode())
    return values, {"counts_repeat": repeat, "absent_hooks": traced[0]["absent"]}


def run_workload(name, seed, seconds, trace):
    spec = load_spec()
    e2e_units, layer_units = units_of(spec["end_to_end"]), units_of(spec["per_layer"])
    wl = WORKLOADS[name]
    workdir = OUT / f"{name}-seed{seed}-trace{int(trace)}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    (workdir / "config.txt").write_text(wl.config_text())

    rounds = run_rounds(wl, seed, seconds, trace, workdir)
    failed, notes = check_rounds(wl, seed, rounds, workdir)
    attempted = wl.rows() * len(rounds)
    if trace:
        values, extra = per_layer(rounds, layer_units)
        units = layer_units
    else:
        values, extra, units = end_to_end(rounds), {}, e2e_units
    missing = set(units) - set(values)
    if missing:
        raise HarnessError(f"metrics not produced: {sorted(missing)}")
    metrics = {n: {"value": values[n], "unit": units[n]} for n in units}
    summary = {"workload": name, "seed": seed, "rounds": len(rounds), "notes": notes,
               "per_round": [{k: r[k] for k in ("wall_s", "cpu_s", "setup_s", "peak_rss_mb",
                                                 "traced", "rc")} for r in rounds], **extra}
    (workdir / "summary.json").write_text(json.dumps({**summary, "metrics": metrics}, indent=1))

    log = sys.stderr
    print(f"workload {name}  seed {seed}  rounds {len(rounds)}  attempted {attempted}  "
          f"failed {failed}", file=log)
    for note in notes:
        print(f"  check: {note}", file=log)
    for key, value in extra.items():
        print(f"  {key}: {value}", file=log)
    for n, m in metrics.items():
        print(f"  {n:<52} {m['value']:>14.6g} {m['unit']}", file=log)
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        help="one workload (default: every workload in turn)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, help="measuring time per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # as an exception, SIGTERM makes subprocess.run kill and reap the round's process
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    seconds = args.seconds if args.seconds is not None else load_spec()["run_seconds"]
    names = [args.workload] if args.workload else list(WORKLOADS)
    try:
        for name in names:
            result = run_workload(name, args.seed, seconds, bool(args.trace))
            print(json.dumps(result), flush=True)
    except HarnessError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
