"""Benchmark entry point.

    python3 perfbench/run.py --workload recognize --seed 1 --seconds 25 --trace 0

Run from the repository root. The package is imported from ``src/``; there
is nothing to build. Each workload is a closed loop with one client: the
next item is submitted when the previous one has finished. With
``--trace 0`` the last line of standard output is a JSON object holding the
end-to-end metrics; with ``--trace 1`` it holds the per-layer metrics of a
traced run. A line before it (``detail``) records the environment and the
workload's own figures. The exit code is non-zero when the program cannot
be imported or a workload fails to run.
"""

import os

# BLAS must be pinned before numpy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import platform
import shutil
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_out")

SETUP_REPEATS = 3
SETUP_MIN_S = 2.0  # short set-ups repeat more, so their median is steady
SETUP_MAX_REPEATS = 40


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def import_program():
    if not os.path.isfile(os.path.join(SRC, "occlucode", "__init__.py")):
        raise SystemExit(f"occlucode sources not found under {SRC}")
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    import numpy
    import scipy

    import occlucode  # noqa: F401

    return numpy, scipy


def environment(numpy, scipy):
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (KeyError, TypeError):  # the layout differs between numpy versions
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
    }


def timed_setup(workload, seed, errors, times, digests, until_s, min_repeats):
    """Set up until ``times`` holds ``min_repeats`` set-up times adding up
    to ``until_s`` (at most SETUP_MAX_REPEATS); every set-up must produce
    the inputs of the first. Returns the last state, or None if none ran."""
    state = None
    while len(times) < min_repeats or (
            sum(times) < until_s and len(times) < SETUP_MAX_REPEATS):
        if state is not None:
            workload.teardown(state)
        t0 = time.perf_counter()
        state = workload.setup(seed)
        times.append(time.perf_counter() - t0)
        digests.append(workload.setup_digest(state))
        if digests[-1] != digests[0]:
            errors.append("set-up outputs differ between repeats")
    return state


def closed_loop(workload, state, seconds, errors, tracer=None, passes=None):
    """Run items one after another until ``seconds`` have passed and the
    first pass over the item list is complete (or exactly ``passes``
    passes). Returns per-item latencies, complete pass times, the first
    pass's results keyed by item id, the timed seconds and the number of
    repeated items, each checked against its first result."""
    items = workload.items(state)
    first = {}
    latencies, pass_times = [], []
    repeats = 0
    t_start = time.perf_counter()
    while True:
        t_pass = time.perf_counter()
        complete = True
        for item_id, run in items:
            if passes is None and first and len(first) == len(items) \
                    and time.perf_counter() - t_start >= seconds:
                complete = False
                break
            if tracer is not None:
                tracer.item = item_id
            t0 = time.perf_counter()
            result = run()
            latencies.append(time.perf_counter() - t0)
            if item_id in first:
                if not workload.same_result(first[item_id], result):
                    errors.append(f"item {item_id} changed on repeat")
                repeats += 1
            else:
                first[item_id] = result
        if complete:
            pass_times.append(time.perf_counter() - t_pass)
        t_total = time.perf_counter() - t_start
        if passes is not None and len(pass_times) >= passes:
            break
        if passes is None and t_total >= seconds:
            break
    if tracer is not None:
        tracer.item = None
    return latencies, pass_times, first, t_total, repeats


def end_to_end(workload, seed, seconds):
    from workloads import tail

    # Set-up is timed before and after the timed phase, so that its median
    # does not rest on one stretch of the machine's varying speed.
    errors, setup_times, digests = [], [], []
    state = timed_setup(workload, seed, errors, setup_times, digests,
                        SETUP_MIN_S / 2, SETUP_REPEATS)
    try:
        latencies, pass_times, first, t_total, repeats = closed_loop(
            workload, state, seconds, errors)
        if not repeats:  # the run was one pass; repeat its first item untimed
            item_id, run = workload.items(state)[0]
            if not workload.same_result(first[item_id], run()):
                errors.append(f"item {item_id} changed on repeat")
        summary = workload.summarize(state, first)
    finally:
        workload.teardown(state)
    state = timed_setup(workload, seed, errors, setup_times, digests, SETUP_MIN_S, 0)
    if state is not None:
        workload.teardown(state)
    summary.errors += errors
    tail_s, tail_pct, n = tail(latencies)
    setup_s = statistics.median(setup_times)
    wall_s = statistics.median(pass_times)
    metrics = {
        "setup_s": (setup_s, "s"),
        "wall_s": (wall_s, "s"),
        "item_ms.p50": (1e3 * statistics.median(latencies), "ms"),
        "accuracy": (summary.accuracy, "fraction"),
        "mask_iou": (summary.mask_iou, "fraction"),
        "ksvd_error": (summary.ksvd_error, "frobenius"),
        "success_fraction": (1.0 - summary.failed / summary.attempted, "fraction"),
    }
    named = {"setup_s": (setup_s, "s"), "wall_s": (wall_s, "s"), **summary.named,
             "failed_fraction": (summary.failed / summary.attempted, "fraction")}
    detail = {
        "workload_metrics": {k: {"value": v, "unit": u} for k, (v, u) in named.items()},
        "items": len(latencies),
        "items_per_s": len(latencies) / t_total,
        "passes": len(pass_times),
        "item_ms.tail": 1e3 * tail_s,
        "item_ms.tail_percentile": tail_pct,
        "item_ms.tail_samples": n,
        "timed_s": t_total,
        "setups": len(setup_times),
        "failures": dict(summary.failures),
        **summary.detail,
    }
    return metrics, summary, detail


def traced(workload, seed):
    """One untraced pass, then one traced set-up and pass. The difference of
    the two pass times is the tracing overhead."""
    from tracer import Tracer, per_layer_metric_names, span_cost

    errors = []
    state = timed_setup(workload, seed, errors, [], [], 0.0, 1)
    try:
        _, untraced_passes, *_ = closed_loop(workload, state, 0.0, errors, passes=1)
    finally:
        workload.teardown(state)
    tracer = Tracer()
    tracer.install()
    workload.tracer = tracer
    try:
        with tracer.span("bench.setup"):
            state = workload.setup(seed)
        try:
            _, traced_passes, first, *_ = closed_loop(
                workload, state, 0.0, errors, tracer=tracer, passes=1)
        finally:
            tracer.uninstall()
            workload.tracer = None
        summary = workload.summarize(state, first)
        summary.errors += errors
    finally:
        workload.teardown(state)
    totals = tracer.aggregate()
    for span in ("solvers.solve_group_bpdn", "solvers.solve_l1_bpdn"):
        if totals.get(span, {}).get("converged_above_eps", 0):
            summary.errors.append(f"{span}: a converged solve misses eps")
    metrics = {}
    for name, unit in per_layer_metric_names():
        span, _, key = name.rpartition(".")
        value = totals.get(span, {}).get("total_s" if key == "wall_s" else key, 0)
        if unit == "s":
            value = float(value)
        metrics[name] = (value, unit)
    overhead = traced_passes[0] - untraced_passes[0]
    detail = {
        "wall_s.untraced": untraced_passes[0],
        "wall_s.traced": traced_passes[0],
        "trace_overhead_s": overhead,
        "trace_overhead_share": overhead / untraced_passes[0],
        "spans": len(tracer.spans),
        "trace_overhead_est_s": len(tracer.spans) * span_cost(),
        # where the time of the two costliest stages goes
        "share.solve_group_bpdn_in_classify": tracer.share(
            "solvers.solve_group_bpdn", "classify.classify"),
        "share.l1_regression_in_estimate_mask": tracer.share(
            "solvers.l1_regression", "maskest.estimate_mask"),
        "failures": dict(summary.failures),
        **summary.detail,
    }
    return metrics, summary, detail, tracer


def main(argv=None):
    args = parse_args(argv)
    numpy, scipy = import_program()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        raise SystemExit(f"unknown workload {args.workload!r}; "
                         f"choose from {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload](ROOT)
    env = environment(numpy, scipy)
    tracer = None
    try:
        if args.trace:
            metrics, summary, detail, tracer = traced(workload, args.seed)
        else:
            metrics, summary, detail = end_to_end(workload, args.seed, args.seconds)
    finally:
        shutil.rmtree(workload.tmp_root, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(workload.tmp_root))
        except OSError:  # absent, or another run still uses it
            pass
    detail = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "environment": env, **detail, "errors": summary.errors}
    if tracer is not None:
        path = os.path.join(OUT_DIR, f"trace_{args.workload}_seed{args.seed}.json")
        tracer.write(path)
        detail["trace_file"] = os.path.relpath(path, ROOT)
    print(json.dumps({"detail": detail}))
    result = {
        "correct": not summary.errors,
        "attempted": summary.attempted,
        "failed": summary.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
