"""Span tracer that wraps the library's public functions from outside.

Each traced function is rebound, by name, in every ``occlucode`` module
namespace that holds it, because ``from .solvers import solve_group_bpdn``
gives ``classify`` its own binding that a patch of ``solvers`` alone would
miss. Spans are kept in memory and written out when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import time
from contextlib import contextmanager

import numpy as np

PACKAGE = "occlucode"
RESIDUAL_SLACK = 1e-6

# Layers are the package's modules. Each traced function maps to the names
# of its counters and a function that reads them from (result, args).


def _solve_counters(result, args):
    """Iterations, non-converged solves, and converged solves whose
    coefficients miss the residual bound (a false convergence claim)."""
    u, dictionary, cfg = args[:3]
    resid = np.linalg.norm(u.data - dictionary.atoms @ result.coefficients.values)
    return {
        "iters": result.iterations,
        "nonconverged": int(not result.converged),
        "converged_above_eps": int(
            result.converged and resid > cfg.epsilon * (1 + RESIDUAL_SLACK)),
    }


def _file_bytes(*paths):
    return sum(os.path.getsize(p) for p in paths if os.path.exists(p))


def _pgm_bytes(result, args):
    return {"bytes": _file_bytes(args[0])}


def _matrix_bytes(result, args):
    return {"bytes": _file_bytes(args[0] + ".json", args[0] + ".f64")}


SOLVE = (("iters", "nonconverged", "converged_above_eps"), _solve_counters)
PGM = (("bytes",), _pgm_bytes)
MATRIX = (("bytes",), _matrix_bytes)
PLAIN = ((), None)

LAYERS = {
    "solvers": {
        "solve_group_bpdn": SOLVE,
        "solve_l1_bpdn": SOLVE,
        "l1_regression": PLAIN,
    },
    "classify": {
        "classify": PLAIN,
        "classify_src_baseline": PLAIN,
        "with_identity_block": PLAIN,
    },
    "core": {
        "residual": PLAIN,
        "downsample_dictionary": (("atoms",), lambda r, a: {"atoms": a[0].n}),
        "downsample_vector": PLAIN,
    },
    "maskest": {
        "estimate_mask": (("outer_iters",), lambda r, a: {"outer_iters": r.iterations}),
        "update_support": PLAIN,
        "support_energy": PLAIN,
        "build_lcd": PLAIN,
    },
    "graphcut": {
        "maximize_grid_mrf": PLAIN,
        "grid_edges": PLAIN,
    },
    "dictlearn": {
        "collect_soc": PLAIN,
        "ksvd_train_with_trace": (("iters",), lambda r, a: {"iters": len(r[1])}),
        "build_sample_set": PLAIN,
    },
    "synth": {
        "generate_gallery": PLAIN,
        "apply_occlusion": PLAIN,
        "generate_corpus": PLAIN,
    },
    "imageio": {
        "read_pgm": PGM,
        "write_pgm": PGM,
        "load_matrix": MATRIX,
        "save_matrix": MATRIX,
        "read_manifest": PLAIN,
    },
}

# The CLI layer is timed per command around ``occlucode.cli.main``.
CLI_COMMANDS = ("synth", "collect", "train", "classify", "roc", "sweep")


def per_layer_metric_names():
    """(name, unit) of every per-layer metric, in report order."""
    out = []
    for layer, funcs in LAYERS.items():
        for func, (counters, _) in funcs.items():
            span = f"{layer}.{func}"
            out += [(f"{span}.calls", "count"), (f"{span}.self_s", "s")]
            out += [(f"{span}.{c}", "bytes" if c == "bytes" else "count")
                    for c in counters]
    out += [(f"cli.{cmd}.wall_s", "s") for cmd in CLI_COMMANDS]
    return out


class Tracer:
    """In-memory span recorder. A span is [name, parent, item, start, end,
    counters]; ``parent`` is the index of the enclosing span or -1, and
    ``item`` is the id of the workload item being processed."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._restore = []
        self.item = None

    def _open(self, name):
        parent = self._stack[-1] if self._stack else -1
        span = [name, parent, self.item, time.perf_counter(), None, {}]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _close(self, span):
        span[4] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name):
        span = self._open(name)
        try:
            yield span
        finally:
            self._close(span)

    def wrap(self, name, fn, counters):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if counters is not None:
                span[5] = counters(result, args)
            return result

        return traced

    def install(self):
        """Rebind every traced function in every package module that holds it."""
        modules = [sys.modules[PACKAGE]] + [
            importlib.import_module(f"{PACKAGE}.{m}")
            for m in list(LAYERS) + ["cli"]
        ]
        for layer, funcs in LAYERS.items():
            home = importlib.import_module(f"{PACKAGE}.{layer}")
            for func, (_, counters) in funcs.items():
                original = getattr(home, func)
                traced = self.wrap(f"{layer}.{func}", original, counters)
                for mod in modules:
                    if getattr(mod, func, None) is original:
                        self._restore.append((mod, func, original))
                        setattr(mod, func, traced)

    def uninstall(self):
        for mod, func, original in reversed(self._restore):
            setattr(mod, func, original)
        self._restore = []

    def aggregate(self):
        """Per-span-name calls, total and self time, and summed counters.
        Self time is a span's duration minus the time its direct children
        cover; spans of one thread nest, so the children never overlap."""
        child_time = [0.0] * len(self.spans)
        for name, parent, _item, start, end, _c in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        totals = {}
        for i, (name, _p, _item, start, end, counters) in enumerate(self.spans):
            agg = totals.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            agg["calls"] += 1
            agg["total_s"] += end - start
            agg["self_s"] += (end - start) - child_time[i]
            for key, val in counters.items():
                agg[key] = agg.get(key, 0) + val
        return totals

    def share(self, inner, outer):
        """Time in ``inner`` spans over the time of the ``outer`` spans that
        enclose them; outer spans without an ``inner`` span are left out.
        None when no ``outer`` span encloses an ``inner`` one."""
        inner_s, outers = 0.0, set()
        for name, parent, _item, start, end, _c in self.spans:
            if name != inner:
                continue
            while parent >= 0 and self.spans[parent][0] != outer:
                parent = self.spans[parent][1]
            if parent >= 0:
                inner_s += end - start
                outers.add(parent)
        outer_s = sum(self.spans[i][4] - self.spans[i][3] for i in outers)
        return inner_s / outer_s if outer_s else None

    def write(self, path):
        t0 = self.spans[0][3] if self.spans else 0.0
        rows = [
            {
                "id": i,
                "name": name,
                "parent": parent,
                "item": item,
                "start_s": start - t0,
                "dur_s": end - start,
                **counters,
            }
            for i, (name, parent, item, start, end, counters) in enumerate(self.spans)
        ]
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as f:
            json.dump({"spans": rows, "layers": self.aggregate()}, f)
            f.write("\n")


def span_cost(calls=20000):
    """Seconds one traced call of a no-op costs, for estimating overhead."""
    tracer = Tracer()
    traced = tracer.wrap("probe", lambda: None, None)
    t0 = time.perf_counter()
    for _ in range(calls):
        traced()
    return (time.perf_counter() - t0) / calls
