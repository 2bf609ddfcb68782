"""graphseg benchmark: python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from a source checkout; it imports graphseg from the checkout's `src/`.
Prints a readable report, then, as the last line, one JSON object with
`correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics of
BENCHMARK.json with --trace 0, its per-layer metrics with --trace 1. The
full record (run record, every metric with its sample count, exact counts,
and with --trace 1 the spans) goes to .bench_out/.
"""

import argparse
import os
import sys
import traceback

# BLAS thread caps must be set before numpy is first imported
THREADS = 1
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "GRAPHSEG_THREADS"):
    os.environ[_var] = str(THREADS)

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


def _import_graphseg():
    """Import graphseg from this checkout's src/, or exit 2 without a result."""
    sys.path.insert(0, SRC)
    try:
        import graphseg
    except ImportError as exc:
        print(f"error: cannot import graphseg from {SRC}: {exc}", file=sys.stderr)
        sys.exit(2)
    if not os.path.abspath(graphseg.__file__).startswith(SRC + os.sep):
        print(f"error: graphseg was imported from {graphseg.__file__}, not {SRC}",
              file=sys.stderr)
        sys.exit(2)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")

    _import_graphseg()
    import report
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(workloads.WORKLOADS)}")
    spec = report.load_spec(ROOT)
    try:
        if args.workload == "moons-cli-6k":
            run, tracer = workloads.run_cli(args.seed, args.seconds, args.trace, ROOT)
        else:
            run, tracer = workloads.run_sweep(args.workload, args.seed, args.seconds,
                                              args.trace)
    except Exception:  # setup failed: no operation could run
        traceback.print_exc()
        report.emit_failure(spec, args.trace)
        return 0
    return report.emit(spec, args, run, tracer, ROOT, SRC, THREADS)


if __name__ == "__main__":
    sys.exit(main())
