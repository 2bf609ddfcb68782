"""Metrics from a finished run, the run record, and the result line."""

import ctypes
import glob
import hashlib
import json
import os
import platform
import resource
import statistics
import sys

import numpy as np
import scipy


def load_spec(root):
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        return json.load(f)


def timing(values):
    """Median, and the highest percentile with at least ten samples beyond it.

    Below 21 samples that percentile is at or under the median; the tail is
    then the maximum.
    """
    s = sorted(values)
    n = len(s)
    if n >= 21:
        return statistics.median(s), s[n - 11], f"p{100.0 * (n - 10) / n:.1f}"
    return statistics.median(s), s[-1], "max (fewer than 21 samples)"


def end_to_end(run):
    """name -> (value, unit, sample count, how it is taken)."""
    m = {}
    for name in ("pipeline_s", "gl_solve_s", "mbo_solve_s"):
        values = run.samples.get(name, [])
        if values:
            median, tail, which = timing(values)
            m[name] = (median, "s", len(values), "median")
            m[f"{name}_tail"] = (tail, "s", len(values), which)
    for solver in ("gl", "mbo"):
        iterations = sum(run.samples.get(f"{solver}_iterations", []))
        if iterations:
            seconds = sum(run.samples[f"{solver}_solve_s"])
            m[f"{solver}_iter_ms"] = (1e3 * seconds / iterations, "ms", iterations,
                                      "solve time over iterations")
    if run.timed_s > 0:
        m["solves_per_s"] = (run.solves / run.timed_s, "1/s", run.solves, "total")
    for solver in ("gl", "mbo"):
        firsts = [v for (s, _), v in run.first.items() if s == solver]
        if firsts:
            m[f"{solver}_accuracy"] = (float(np.mean([v["accuracy"] for v in firsts])),
                                       "fraction", len(firsts), "mean over seeds")
            m[f"{solver}_nonconverged_share"] = (
                sum(not v["converged"] for v in firsts) / len(firsts),
                "fraction", len(firsts), "over seeds")
    m["failed_share"] = (run.failed / max(run.attempted, 1), "fraction", run.attempted,
                         "failed / attempted")
    m["setup_s"] = (statistics.median(run.setup_s), "s", len(run.setup_s), "median")
    m["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                        "MB", 1, "peak")
    return m


def per_layer(run, tracer):
    """Span times (seconds per call), self times and calls, plus exact counts."""
    count_ops = {"setup0", *range(run.cycle)}
    m = {name: (value, unit, None, "")
         for name, (value, unit) in tracer.layer_metrics(count_ops).items()}
    own = tracer.self_totals()
    traced = sum(len(v) for (phase, _), v in run.by_phase.items() if phase == "traced")
    cli_own = sum(v for name, v in own.items() if name.startswith("cli."))
    m["cli.self_s"] = (cli_own / traced if traced else 0.0, "s", traced,
                       "per operation: parsing, hashing, manifests")
    units = {"graph.distance_gflop": "GFLOP", "graph.cache_bytes": "bytes",
             "spectral.cache_bytes": "bytes", "spectral.residual_max": "1"}
    for name in ("graph.edges", "graph.components", "graph.distance_gflop",
                 "graph.cache_bytes", "spectral.cache_bytes", "spectral.residual_max"):
        m[name] = (run.counts.get(name, 0), units.get(name, "count"), None, "")
    for solver in ("gl", "mbo"):
        firsts = [v for (s, _), v in sorted(run.first.items()) if s == solver]
        m[f"{solver}.iterations"] = (sum(v["iterations"] for v in firsts), "count",
                                     len(firsts), "sum over seeds")
        m[f"{solver}.nonconverged"] = (sum(not v["converged"] for v in firsts), "count",
                                       len(firsts), "over seeds")
    diffs, shares = [], []
    for (phase, key), values in run.by_phase.items():
        if phase == "traced" and ("untraced", key) in run.by_phase:
            base = float(np.mean(run.by_phase[("untraced", key)]))
            diffs.append(float(np.mean(values)) - base)
            shares.append(diffs[-1] / base)
    if diffs:
        m["trace.overhead_s"] = (statistics.median(diffs), "s", len(diffs),
                                 "traced minus untraced, median over seeds")
        m["trace.overhead_share"] = (statistics.median(shares), "fraction", len(diffs),
                                     "traced over untraced minus 1, median over seeds")
    return m


def _git_revision(root):
    head = os.path.join(root, ".git", "HEAD")
    if not os.path.isfile(head):
        return "unavailable (not a git checkout)"
    with open(head) as f:
        ref = f.read().strip()
    if not ref.startswith("ref: "):
        return ref
    path = os.path.join(root, ".git", ref[5:])
    if os.path.isfile(path):
        with open(path) as f:
            return f.read().strip()
    return f"unresolved {ref[5:]}"


def _source_digest(src):
    h = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(src, "graphseg", "*.py"))):
        h.update(os.path.basename(path).encode())
        with open(path, "rb") as f:
            h.update(f.read())
    return h.hexdigest()


def _blas():
    config = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__) + ".libs", "*openblas*"))
    for lib in libs:
        try:
            get = ctypes.CDLL(lib).scipy_openblas_get_num_threads64_
        except (OSError, AttributeError):
            continue
        get.restype = ctypes.c_int
        threads = get()
    return {"name": config.get("name"), "version": config.get("version"),
            "threads": threads}


def run_record(root, src, thread_cap):
    return {
        "git_revision": _git_revision(root),
        "source_sha256": _source_digest(src),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": _blas(),
        "thread_cap": thread_cap,
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
    }


def _fmt(value):
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def emit(spec, args, run, tracer, root, src, thread_cap):
    """Print the report and the result line; write the record. Returns 0."""
    e2e = end_to_end(run)
    layers = per_layer(run, tracer) if args.trace else {}
    record = run_record(root, src, thread_cap)
    out_dir = os.path.join(root, ".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    stem = os.path.join(out_dir, f"{args.workload}-seed{args.seed}-trace{args.trace}")

    exact = {
        field: {s: [run.first[k][field] for k in sorted(run.first) if k[0] == s]
                for s in ("gl", "mbo")}
        for field in ("iterations", "converged", "accuracy")
    }
    exact.update(run.counts)
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  "
          f"trace {args.trace}")
    print("run record: " + json.dumps(record, sort_keys=True))
    print(f"operations: {run.attempted} attempted, {run.failed} failed")
    for err in run.errors[:10]:
        print(f"  failed: {err}")
    if not args.trace:
        print("end-to-end:")
        for name, (value, unit, n, how) in e2e.items():
            print(f"  {name:<26} {_fmt(value):>12} {unit:<9} n={n} ({how})")
    else:
        print("per layer (times are seconds per call; calls over one setup and one cycle):")
        for name, (value, unit, n, how) in sorted(layers.items()):
            extra = f" n={n} ({how})" if how else ""
            print(f"  {name:<34} {_fmt(value):>12} {unit}{extra}")
        tracer.write(stem + "-spans.json")
    print("exact counts: " + json.dumps(exact, sort_keys=True))

    with open(stem + ".json", "w") as f:
        json.dump({"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                   "trace": args.trace, "record": record, "attempted": run.attempted,
                   "failed": run.failed, "errors": run.errors,
                   "end_to_end": {k: dict(zip(("value", "unit", "n", "how"), v))
                                  for k, v in e2e.items()},
                   "per_layer": {k: dict(zip(("value", "unit", "n", "how"), v))
                                 for k, v in layers.items()},
                   "exact": exact, "samples": run.samples, "setup_s": run.setup_s},
                  f, indent=1, sort_keys=True)

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    source = layers if args.trace else e2e
    metrics = {}
    for entry in wanted:
        value = source.get(entry["name"], (0.0,))[0]
        metrics[entry["name"]] = {"value": value, "unit": entry["unit"]}
    correct = run.failed == 0
    print(json.dumps({"correct": correct, "attempted": run.attempted, "failed": run.failed,
                      "metrics": metrics}))
    sys.stdout.flush()
    return 0


def emit_failure(spec, trace):
    """Result line for a run whose setup failed before any operation."""
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    metrics = {e["name"]: {"value": 0.0, "unit": e["unit"]} for e in wanted}
    print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": metrics}))
