"""Run one slicesim command in this fresh process and record how it went.

Usage: python3 perfbench/child.py REQUEST.json

The request names the source tree, the CLI arguments and where to write the
result. Set-up ends once slicesim is imported and the spec is parsed, before
any Monte Carlo draw; the command itself is `slicesim.cli.main(argv)`, timed
with no wrappers unless the request asks for a traced run.
"""

import json
import os
import resource
import sys
import time


def _cpu(ru):
    return ru.ru_utime + ru.ru_stime


def main():
    with open(sys.argv[1]) as fh:
        req = json.load(fh)
    sys.path.insert(0, req["src"])
    import slicesim.cli as cli

    here = os.path.realpath(cli.__file__)
    if not here.startswith(os.path.realpath(req["src"]) + os.sep):
        raise SystemExit(f"slicesim was imported from {here}, not from {req['src']}")
    with open(req["config"]) as fh:
        cli.parse_spec(req["argv"][0], fh.read(), req["preset"], seed=req["seed"])
    ready = time.monotonic()

    command = cli.main
    tracer = None
    if req["trace"]:
        import tracing

        tracer = tracing.Tracer()
        tracer.install()
        command = tracer.span(tracing.ROOT, cli.main)
    ru0 = resource.getrusage(resource.RUSAGE_SELF)
    t0 = time.perf_counter()
    rc = command(req["argv"])
    wall = time.perf_counter() - t0
    ru1 = resource.getrusage(resource.RUSAGE_SELF)
    out = {
        "rc": rc,
        "ready": ready,
        "wall_s": wall,
        "cpu_s": _cpu(ru1) - _cpu(ru0),
        "peak_rss_mb": ru1.ru_maxrss / 1024.0,  # Linux reports KiB
    }
    if tracer is not None:
        out["spans"] = tracer.spans
        out["absent"] = tracer.absent
    with open(req["result"], "w") as fh:
        json.dump(out, fh)


if __name__ == "__main__":
    main()
