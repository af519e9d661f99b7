"""Spans around the calls into slicesim's layers, installed from outside the program.

`Tracer.install()` replaces module-level names with wrappers that record one
span per call: (id, parent, name, start, end, info). A name is wrapped where
it is looked up, so a function imported into several modules is wrapped in
each of them (`build_trial_table` is called through `monte_carlo`,
`slicing_search` and `cli`). Spans are kept in memory and written out by the
caller when the command ends. The parent of a span is the innermost span open
in the calling context; `monte_carlo.ThreadPoolExecutor` is replaced by an
executor that runs each task in a copy of the submitting context, so spans
on worker threads get the span that submitted them as parent.

A hook whose target is missing (a later change removed or renamed it) is
recorded in `Tracer.absent` and skipped; it is not an error.

`layer_metrics(spans)` turns one traced command's spans into the per-layer
metrics. Self time is a span's duration minus the union of its children's
intervals, so overlapping children on worker threads are counted once.
"""

from __future__ import annotations

import contextvars
import functools
import importlib
import inspect
import itertools
import time
from collections import defaultdict

_current = contextvars.ContextVar("perfbench_span", default=None)
_ids = itertools.count(1)

ROOT = "cli.main"


def _keyed_uniforms(args, result):
    return {"values": int(result.size)}


def _ndtri(args, result):
    return {"values": int(args["u"].size)}


def _table_chunk(args, result):
    cfg = args["cfg"]
    # complex128 (chunk, M, M) Gram block, computed from the shapes
    return {"gram_bytes": (args["t1"] - args["t0"]) * cfg.M * cfg.M * 16}


def _build(args, result):
    cfg = args["cfg"]
    nbytes = sum(v.nbytes for v in vars(result).values() if hasattr(v, "nbytes"))
    return {"key": repr(cfg), "trials": int(cfg.trials), "table_bytes": int(nbytes)}


def _nonorth(args, result):
    cfg = args["self"].cfg
    return {"device_trials": int(cfg.trials) * int(cfg.M)}


# (module, attribute path, span name, info from bound arguments and result)
HOOKS = [
    ("slicesim.monte_carlo", "keyed_uniforms", "numerics.keyed_uniforms", _keyed_uniforms),
    ("slicesim.monte_carlo", "_normals_from_uniforms", "numerics.ndtri", _ndtri),
    ("slicesim.monte_carlo", "_table_chunk", "monte_carlo.table_chunk", _table_chunk),
    ("slicesim.monte_carlo", "build_trial_table", "monte_carlo.build_trial_table", _build),
    ("slicesim.slicing_search", "build_trial_table", "monte_carlo.build_trial_table", _build),
    ("slicesim.cli", "build_trial_table", "monte_carlo.build_trial_table", _build),
    ("slicesim.monte_carlo", "TrialTable.nonorth_error_counts",
     "monte_carlo.nonorth_error_counts", _nonorth),
    ("slicesim.monte_carlo", "TrialTable.mmtc_orth_error_count",
     "monte_carlo.mmtc_orth_error_count", None),
    ("slicesim.slicing_search", "max_mmtc_rate_orth", "slicing_search.max_mmtc_rate_orth", None),
    ("slicesim.cli", "max_mmtc_rate_orth", "slicing_search.max_mmtc_rate_orth", None),
    ("slicesim.slicing_search", "min_feasible_gamma_tar",
     "slicing_search.min_feasible_gamma_tar", None),
    ("slicesim.slicing_search", "max_mmtc_rate_nonorth",
     "slicing_search.max_mmtc_rate_nonorth", None),
    ("slicesim.cli", "max_devices", "slicing_search.max_devices", None),
    ("slicesim.cli", "operating_point", "embb_analysis.operating_point", None),
    ("slicesim.slicing_search", "operating_point", "embb_analysis.operating_point", None),
]
EXECUTOR_HOOK = ("slicesim.monte_carlo", "ThreadPoolExecutor")


class Tracer:
    def __init__(self):
        self.spans = []
        self.absent = []

    def span(self, name, fn, measure=None):
        """Wrap fn so that every call records a span named `name`."""
        spans = self.spans
        sig = inspect.signature(fn) if measure is not None else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = _current.get()
            sid = next(_ids)
            token = _current.set(sid)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                _current.reset(token)
            info = {}
            if measure is not None:
                try:
                    info = measure(sig.bind(*args, **kwargs).arguments, result)
                except (AttributeError, KeyError, TypeError):
                    info = {"unmeasured": True}
            spans.append({"id": sid, "parent": parent, "name": name,
                          "t0": t0, "t1": t1, "info": info})
            return result

        return wrapper

    def install(self):
        for module_name, path, name, measure in HOOKS:
            owner, attr = _resolve(module_name, path)
            if owner is None:
                self.absent.append(f"{module_name}.{path}")
                continue
            setattr(owner, attr, self.span(name, getattr(owner, attr), measure))
        owner, attr = _resolve(*EXECUTOR_HOOK)
        if owner is None or not isinstance(getattr(owner, attr), type):
            self.absent.append(".".join(EXECUTOR_HOOK))
        else:
            setattr(owner, attr, _context_executor(getattr(owner, attr)))


def _resolve(module_name, path):
    """(object holding the last attribute, its name), or (None, None)."""
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None, None
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part, None)
        if owner is None:
            return None, None
    if not hasattr(owner, attr):
        return None, None
    return owner, attr


def _context_executor(base):
    class ContextExecutor(base):
        def submit(self, fn, /, *args, **kwargs):
            return super().submit(contextvars.copy_context().run, fn, *args, **kwargs)

    return ContextExecutor


def _union_length(intervals):
    total, end = 0.0, float("-inf")
    for a, b in sorted(intervals):
        if b <= end:
            continue
        total += b - max(a, end)
        end = b
    return total


def layer_metrics(spans):
    """Per-layer counts and times from one traced command's spans."""
    by_id = {s["id"]: s for s in spans}
    children = defaultdict(list)
    for s in spans:
        children[s["parent"]].append(s)

    def ancestors(s):
        p = by_id.get(s["parent"])
        while p is not None:
            yield p["name"]
            p = by_id.get(p["parent"])

    def named(name):
        return [s for s in spans if s["name"] == name]

    def calls(name):
        return len(named(name))

    def inclusive(name):
        # outermost spans only, so a recursive call is not counted twice
        return sum(s["t1"] - s["t0"] for s in named(name) if name not in ancestors(s))

    def self_time(name):
        total = 0.0
        for s in named(name):
            kids = [(max(k["t0"], s["t0"]), min(k["t1"], s["t1"])) for k in children[s["id"]]]
            total += (s["t1"] - s["t0"]) - _union_length([iv for iv in kids if iv[0] < iv[1]])
        return total

    def under(names, ancestor):
        return sum(1 for s in spans if s["name"] in names and ancestor in ancestors(s))

    def info_sum(name, key):
        return sum(s["info"].get(key, 0) for s in named(name))

    def info_max(name, key):
        return max((s["info"].get(key, 0) for s in named(name)), default=0)

    def ratio(a, b):
        return a / b if b else 0.0

    ku, nd = "numerics.keyed_uniforms", "numerics.ndtri"
    bt, tc = "monte_carlo.build_trial_table", "monte_carlo.table_chunk"
    ne, oe = "monte_carlo.nonorth_error_counts", "monte_carlo.mmtc_orth_error_count"
    mf, mn = "slicing_search.min_feasible_gamma_tar", "slicing_search.max_mmtc_rate_nonorth"
    mo, md = "slicing_search.max_mmtc_rate_orth", "slicing_search.max_devices"
    op = "embb_analysis.operating_point"
    builds, distinct = calls(bt), len({s["info"].get("key") for s in named(bt)})
    evals, gamma_calls = under({ne}, mf), calls(mf)
    return {
        f"{ku}.calls": calls(ku),
        f"{ku}.values": info_sum(ku, "values"),
        f"{ku}.s": inclusive(ku),
        f"{nd}.values": info_sum(nd, "values"),
        f"{nd}.s": inclusive(nd),
        f"{bt}.calls": builds,
        f"{bt}.distinct": distinct,
        f"{bt}.trials": info_sum(bt, "trials"),
        f"{bt}.s": inclusive(bt),
        f"{bt}.self_s": self_time(bt),
        f"{bt}.useful_ratio": ratio(distinct, builds),
        f"{tc}.calls": calls(tc),
        f"{tc}.self_s": self_time(tc),
        "monte_carlo.table_bytes_max": info_max(bt, "table_bytes"),
        "monte_carlo.chunk_gram_bytes_max": info_max(tc, "gram_bytes"),
        f"{ne}.calls": calls(ne),
        f"{ne}.device_trials": info_sum(ne, "device_trials"),
        f"{ne}.s": inclusive(ne),
        f"{oe}.calls": calls(oe),
        f"{oe}.s": inclusive(oe),
        f"{mf}.calls": gamma_calls,
        f"{mf}.evals": evals,
        f"{mf}.s": inclusive(mf),
        f"{mf}.evals_per_call": ratio(evals, gamma_calls),
        f"{mn}.calls": calls(mn),
        f"{mn}.probes": under({mf}, mn),
        f"{mn}.s": inclusive(mn),
        f"{mo}.calls": calls(mo),
        f"{mo}.s": inclusive(mo),
        f"{md}.calls": calls(md),
        f"{md}.probes": under({oe, mf}, md),
        f"{md}.s": inclusive(md),
        f"{op}.calls": calls(op),
        f"{op}.s": inclusive(op),
        "cli.self_s": self_time(ROOT),
    }
