"""Run the benchmark in alternating parent/change pairs and judge each
end-to-end metric.

    python3 tools/bench_pairs.py --parent DIR --change DIR --pairs N [--workload W ...] [--seed S]

Reads the command, run length, workloads and end-to-end metrics (with their
`better` direction and `bound`) from the change checkout's BENCHMARK.json,
and refuses to run if the parent's declares anything else. Each pair runs
the command with --trace 0 once in each checkout, from that checkout, the
parent first in even pairs and the change first in odd ones. A run that
exits non-zero, or whose last line is not a result, stops the tool with
exit 1.

Per workload and metric it prints the parent's median [q1, q3], the
change's, the relative change of the medians, the pairs the change won
(ties count for neither side) and one verdict:
  gain            the change won at least 9/10 of the pairs and the medians
                  differ by more than the parent's q3 - q1;
  worse           the change's median is worse than the parent's by more
                  than bound x the parent's median;
  unresolved      the parent's q3 - q1 exceeds bound x its median, unless
                  every change run beats every parent run;
  within bound    otherwise.
It also prints each side's runs in order, so that machine phases show, and
each side's failed/attempted counts. Uses the standard library only.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


def quartiles(values):
    """(q1, median, q3)."""
    return tuple(statistics.quantiles(values, n=4, method="inclusive"))


def beats(a, b, better):
    return a < b if better == "lower" else a > b


def wins(parent, change, better):
    """Pairs whose change run beats its parent run; ties count for neither."""
    return sum(beats(c, p, better) for p, c in zip(parent, change))


def verdict(parent, change, better, bound):
    """The verdict on one metric from its paired runs, in pair order."""
    q1, p_median, q3 = quartiles(parent)
    c_median = statistics.median(change)
    spread = q3 - q1
    if (10 * wins(parent, change, better) >= 9 * len(parent)
            and beats(c_median, p_median, better) and abs(c_median - p_median) > spread):
        return "gain"
    if beats(p_median, c_median, better) and abs(c_median - p_median) > bound * abs(p_median):
        return "worse"
    if spread > bound * abs(p_median) and not all(
            beats(c, p, better) for c in change for p in parent):
        return "unresolved"
    return "within bound"


def run_once(root, command, workload, seed, seconds):
    """The result line of one benchmark run in the checkout at `root`."""
    argv = [*command, "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]
    name = f"{' '.join(argv)} in {root}"
    proc = subprocess.run(argv, cwd=root, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.exit(f"error: {name} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except ValueError:
        result = None
    if not (isinstance(result, dict) and {"metrics", "attempted", "failed"} <= result.keys()):
        sys.exit(f"error: the last line of {name} is not a result")
    return result


def load_spec(root):
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        return json.load(f)


def _fmt(value):
    return f"{value:.4g}"


def report(workload, runs, metrics):
    """Print one workload's table from runs[side] = [result, ...]."""
    print(f"{workload}: {len(runs['parent'])} pairs")
    for side in ("parent", "change"):
        counts = " ".join(f"{r['failed']}/{r['attempted']}" for r in runs[side])
        print(f"  {side} failed/attempted: {counts}")
    for metric in metrics:
        name, better, bound = metric["name"], metric["better"], metric["bound"]
        parent = [r["metrics"][name]["value"] for r in runs["parent"]]
        change = [r["metrics"][name]["value"] for r in runs["change"]]
        (pq1, pm, pq3), (cq1, cm, cq3) = quartiles(parent), quartiles(change)
        rel = f"{100.0 * (cm - pm) / pm:+.1f} %" if pm else "n/a"
        print(f"  {name} ({metric['unit']}, {better} is better, bound {bound:g}): "
              f"{_fmt(pm)} [{_fmt(pq1)}, {_fmt(pq3)}] -> {_fmt(cm)} [{_fmt(cq1)}, {_fmt(cq3)}]"
              f"  {rel}  won {wins(parent, change, better)}/{len(parent)}"
              f"  {verdict(parent, change, better, bound)}")
        print(f"    parent runs: {' '.join(_fmt(v) for v in parent)}")
        print(f"    change runs: {' '.join(_fmt(v) for v in change)}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="checkout of the parent commit")
    parser.add_argument("--change", required=True, help="checkout of the change")
    parser.add_argument("--pairs", type=int, required=True, help="pairs per workload")
    parser.add_argument("--workload", action="append",
                        help="a workload to run (repeatable; default every workload)")
    parser.add_argument("--seed", type=int, default=1, help="data seed of every run (default 1)")
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be >= 2")
    spec = load_spec(args.change)
    if load_spec(args.parent) != spec:
        sys.exit("error: the parent's BENCHMARK.json differs from the change's")
    names = [w["name"] for w in spec["workloads"]]
    for workload in args.workload or ():
        if workload not in names:
            parser.error(f"unknown workload {workload!r}; choose from {', '.join(names)}")

    for workload in args.workload or names:
        runs = {"parent": [], "change": []}
        for i in range(args.pairs):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for side in order:
                print(f"{workload} pair {i + 1}/{args.pairs}: {side} ...", file=sys.stderr,
                      flush=True)
                runs[side].append(run_once(getattr(args, side), spec["command"], workload,
                                           args.seed, spec["run_seconds"]))
        report(workload, runs, spec["end_to_end"])
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
