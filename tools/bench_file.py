"""Write BENCH_<tag>.json: every benchmark workload at one revision.

    python3 tools/bench_file.py --tag T --seed S

Runs the command of BENCHMARK.json (bench/run.py) on each of its workloads
twice, for the run length it sets: with --trace 0 for the end-to-end
metrics and with --trace 1 for the per-layer metrics. It writes
BENCH_<T>.json at the root of the checkout it sits in. Per workload the
file holds the operation counts of both runs, every end-to-end and
per-layer metric with its unit and sample count, and the exact counts; at
the top it holds the run record (revision, source digest, BLAS and thread
cap) and the line count of the Python sources under src/. Uses the standard library only; the benchmark imports numpy itself.
"""

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_once(command, workload, seed, seconds, trace):
    """One benchmark run: its result line and its full record, or None when
    setup failed and no record was written."""
    argv = [*command, "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    path = os.path.join(ROOT, ".bench_out", f"{workload}-seed{seed}-trace{trace}.json")
    if os.path.exists(path):  # a record left by an earlier run
        os.remove(path)
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"error: {' '.join(argv)} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    if not os.path.exists(path):
        return json.loads(lines[-1]), None
    with open(path) as f:
        return json.loads(lines[-1]), json.load(f)


def src_lines():
    """Lines of the Python sources under src/, counted as `wc -l` does."""
    total = 0
    for folder, _, names in os.walk(os.path.join(ROOT, "src")):
        for name in names:
            if name.endswith(".py"):
                with open(os.path.join(folder, name), "rb") as f:
                    total += f.read().count(b"\n")
    return total


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--tag", required=True, help="names the file BENCH_<tag>.json")
    parser.add_argument("--seed", type=int, required=True, help="data seed of every run")
    args = parser.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    seconds = spec["run_seconds"]
    bench = {"tag": args.tag, "seed": args.seed, "seconds": seconds,
             "command": spec["command"], "record": None, "src_lines": src_lines(),
             "workloads": {}}
    for workload in (w["name"] for w in spec["workloads"]):
        entry = {}
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            print(f"{workload} --trace {trace} ...", file=sys.stderr, flush=True)
            result, record = run_once(spec["command"], workload, args.seed, seconds, trace)
            entry[f"trace{trace}"] = {k: result[k] for k in ("correct", "attempted", "failed")}
            entry[key] = record[key] if record else {}
            if record:
                entry.setdefault("exact", record["exact"])
                if bench["record"] is None:
                    bench["record"] = record["record"]
                elif record["record"]["source_sha256"] != bench["record"]["source_sha256"]:
                    sys.exit("error: the source changed between runs")
        bench["workloads"][workload] = entry

    out = os.path.join(ROOT, f"BENCH_{args.tag}.json")
    with open(out, "w") as f:
        json.dump(bench, f, indent=1, sort_keys=True)
        f.write("\n")
    print(f"wrote {out}; src/ has {bench['src_lines']} lines")
    for workload, entry in bench["workloads"].items():
        e2e, layers = entry["end_to_end"], entry["per_layer"]
        cells = [f"{name} {metrics[name]['value']:.4g}"
                 for metrics, name in ((e2e, "pipeline_s"), (e2e, "setup_s"),
                                       (layers, "graph.knn_s")) if name in metrics]
        failed = entry["trace0"]["failed"] + entry["trace1"]["failed"]
        print(f"  {workload}: {', '.join(cells)}; failed {failed}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
